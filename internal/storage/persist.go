package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"monetlite/internal/mtypes"
	"monetlite/internal/pagemap"
	"monetlite/internal/strheap"
	"monetlite/internal/vec"
	"monetlite/internal/workpool"
)

// Column file formats (native endianness, like MonetDB's on-disk BATs —
// database directories are not portable across byte orders). The full spec
// lives in docs/STORAGE_FORMAT.md; both versions share a 16-byte header
// that keeps the payload 8-byte aligned so mapped files can be
// reinterpreted as typed slices in place.
//
// MLC1 — raw columns:
//
//	offset 0:  magic "MLC1"
//	offset 4:  kind (uint8), scale (uint8), reserved (2 bytes)
//	offset 8:  count (uint64)
//	offset 16: fixed-width: raw values (count * width bytes)
//	           varchar:     offsets (count * 4 bytes), heapLen (uint64),
//	                        heap bytes
//
// MLC2 — encoded columns (byte 6 of the header selects the encoding):
//
//	offset 0:  magic "MLC2"
//	offset 4:  kind (uint8), scale (uint8), enc (uint8), reserved (1 byte)
//	offset 8:  count (uint64)
//	offset 16: encoding-specific body (see writeEncodedColumnFile)
//
// Readers dispatch on the magic: a database written before compression
// existed contains only MLC1 files and opens unchanged, and columns that
// don't benefit from encoding keep being written as MLC1.
const columnMagic = "MLC1"

const columnMagicV2 = "MLC2"

const columnHeaderSize = 16

func encodeColumnHeader(typ mtypes.Type, count int) []byte {
	h := make([]byte, columnHeaderSize)
	copy(h, columnMagic)
	h[4] = byte(typ.Kind)
	h[5] = byte(typ.Scale)
	binary.LittleEndian.PutUint64(h[8:], uint64(count))
	return h
}

// writeFileAtomic writes path the crash-safe way: into path.tmp through a
// buffer, fsync, then rename over path. A bufio.Writer's error is sticky —
// after a failed write every later one fails too and Flush reports it — so
// write may ignore the errors of individual writes. The rename is durable
// once the directory is synced, which Checkpoint does once per checkpoint.
func writeFileAtomic(path string, write func(w *bufio.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// syncDir fsyncs a directory, making the renames inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeColumnFile persists a column's physical state atomically in the MLC1
// format.
func writeColumnFile(path string, typ mtypes.Type, data *vec.Vector, heap *strheap.Heap, offs []uint32) error {
	n := data.Len()
	if typ.Kind == mtypes.KVarchar && len(offs) != n {
		return fmt.Errorf("storage: varchar offsets out of sync (%d vs %d)", len(offs), n)
	}
	return writeFileAtomic(path, func(w *bufio.Writer) error {
		w.Write(encodeColumnHeader(typ, n))
		switch typ.Kind {
		case mtypes.KVarchar:
			w.Write(pagemap.BytesOfUint32s(offs))
			hb := heap.Bytes()
			w.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(hb))))
			w.Write(hb)
			return nil
		}
		return writePayload(w, data)
	})
}

// writePayload writes a fixed-width vector's values as raw bytes.
func writePayload(w *bufio.Writer, v *vec.Vector) error {
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		w.Write(pagemap.BytesOfInt8s(v.I8))
	case mtypes.KSmallInt:
		w.Write(pagemap.BytesOfInt16s(v.I16))
	case mtypes.KInt, mtypes.KDate:
		w.Write(pagemap.BytesOfInt32s(v.I32))
	case mtypes.KBigInt, mtypes.KDecimal:
		w.Write(pagemap.BytesOfInt64s(v.I64))
	case mtypes.KDouble:
		w.Write(pagemap.BytesOfFloat64s(v.F64))
	default:
		return fmt.Errorf("storage: cannot persist kind %d", v.Typ.Kind)
	}
	return nil
}

// writeEncodedColumnFile persists a compressed column atomically in the
// MLC2 format. Encoding-specific bodies (all integers little-endian):
//
//	dict: dictCount u64, codeWidth u64, wordCount u64,
//	      code words (wordCount * 8 bytes, starting at offset 40),
//	      then dictCount entries of {len u32, bytes} in sorted order
//	for:  base u64 (int64 bits), codeMax u64, codeWidth u64, wordCount u64,
//	      code words (starting at offset 48)
//	rle:  runCount u64, run ends (runCount * 4 bytes, int32, exclusive),
//	      zero padding to the next 8-byte boundary,
//	      run values: fixed-width raw payload, or {len u32, bytes} per run
//	      for varchar (NULL runs store the sentinel byte 0x80)
func writeEncodedColumnFile(path string, typ mtypes.Type, e *vec.Encoded) error {
	return writeFileAtomic(path, func(w *bufio.Writer) error {
		h := make([]byte, columnHeaderSize)
		copy(h, columnMagicV2)
		h[4] = byte(typ.Kind)
		h[5] = byte(typ.Scale)
		h[6] = byte(e.Enc)
		binary.LittleEndian.PutUint64(h[8:], uint64(e.N))
		w.Write(h)
		var buf [8]byte
		putU64 := func(x uint64) { w.Write(binary.LittleEndian.AppendUint64(buf[:0], x)) }
		putStrs := func(ss []string) {
			for _, s := range ss {
				w.Write(binary.LittleEndian.AppendUint32(buf[:0], uint32(len(s))))
				w.WriteString(s)
			}
		}
		switch e.Enc {
		case vec.EncDict:
			putU64(uint64(len(e.Dict)))
			putU64(uint64(e.Codes.Width))
			putU64(uint64(len(e.Codes.Words)))
			w.Write(pagemap.BytesOfUint64s(e.Codes.Words))
			putStrs(e.Dict)
		case vec.EncFOR:
			putU64(uint64(e.Base))
			putU64(e.CodeMax)
			putU64(uint64(e.Codes.Width))
			putU64(uint64(len(e.Codes.Words)))
			w.Write(pagemap.BytesOfUint64s(e.Codes.Words))
		case vec.EncRLE:
			nruns := len(e.RunEnds)
			putU64(uint64(nruns))
			w.Write(pagemap.BytesOfInt32s(e.RunEnds))
			if nruns%2 != 0 {
				w.Write([]byte{0, 0, 0, 0})
			}
			if typ.Kind == mtypes.KVarchar {
				putStrs(e.RunVals.Str)
				return nil
			}
			return writePayload(w, e.RunVals)
		default:
			return fmt.Errorf("storage: unknown encoding %d", e.Enc)
		}
		return nil
	})
}

// decodeEncodedColumnFile reconstructs a compressed column from mapped MLC2
// bytes. Bit-packed code words and RLE payloads are typed views straight
// into the mapping (zero-copy); dictionary entries and varchar run values
// are copied out (they are small by construction).
func decodeEncodedColumnFile(typ mtypes.Type, b []byte) (*vec.Encoded, error) {
	count := int(binary.LittleEndian.Uint64(b[8:]))
	enc := vec.Encoding(b[6])
	body := b[columnHeaderSize:]
	need := func(n int) error {
		if len(body) < n {
			return fmt.Errorf("truncated %s column body", enc)
		}
		return nil
	}
	e := &vec.Encoded{Typ: typ, Enc: enc, N: count}
	switch enc {
	case vec.EncDict:
		if err := need(24); err != nil {
			return nil, err
		}
		dictCount := int(binary.LittleEndian.Uint64(body[0:]))
		width := int(binary.LittleEndian.Uint64(body[8:]))
		wordCount := int(binary.LittleEndian.Uint64(body[16:]))
		if err := need(24 + 8*wordCount); err != nil {
			return nil, err
		}
		words, err := pagemap.Uint64s(body[24 : 24+8*wordCount])
		if err != nil {
			return nil, err
		}
		dict := make([]string, dictCount)
		pos := 24 + 8*wordCount
		for i := range dict {
			if err := need(pos + 4); err != nil {
				return nil, err
			}
			sl := int(binary.LittleEndian.Uint32(body[pos:]))
			pos += 4
			if err := need(pos + sl); err != nil {
				return nil, err
			}
			dict[i] = string(body[pos : pos+sl])
			pos += sl
		}
		e.Codes = vec.NewPackedInts(words, width, count)
		e.CodeMax = uint64(dictCount)
		e.Dict = dict
	case vec.EncFOR:
		if err := need(32); err != nil {
			return nil, err
		}
		e.Base = int64(binary.LittleEndian.Uint64(body[0:]))
		e.CodeMax = binary.LittleEndian.Uint64(body[8:])
		width := int(binary.LittleEndian.Uint64(body[16:]))
		wordCount := int(binary.LittleEndian.Uint64(body[24:]))
		if err := need(32 + 8*wordCount); err != nil {
			return nil, err
		}
		words, err := pagemap.Uint64s(body[32 : 32+8*wordCount])
		if err != nil {
			return nil, err
		}
		e.Codes = vec.NewPackedInts(words, width, count)
	case vec.EncRLE:
		if err := need(8); err != nil {
			return nil, err
		}
		nruns := int(binary.LittleEndian.Uint64(body[0:]))
		if err := need(8 + 4*nruns); err != nil {
			return nil, err
		}
		runEnds, err := pagemap.Int32s(body[8 : 8+4*nruns])
		if err != nil {
			return nil, err
		}
		pos := 8 + 4*nruns
		if nruns%2 != 0 {
			pos += 4
		}
		rv := &vec.Vector{Typ: typ}
		if typ.Kind == mtypes.KVarchar {
			rv.Str = make([]string, nruns)
			for i := range rv.Str {
				if err := need(pos + 4); err != nil {
					return nil, err
				}
				sl := int(binary.LittleEndian.Uint32(body[pos:]))
				pos += 4
				if err := need(pos + sl); err != nil {
					return nil, err
				}
				rv.Str[i] = string(body[pos : pos+sl])
				pos += sl
			}
		} else {
			w := 8
			switch typ.Kind {
			case mtypes.KBool, mtypes.KTinyInt:
				w = 1
			case mtypes.KSmallInt:
				w = 2
			case mtypes.KInt, mtypes.KDate:
				w = 4
			}
			if err := need(pos + w*nruns); err != nil {
				return nil, err
			}
			payload := body[pos : pos+w*nruns]
			switch typ.Kind {
			case mtypes.KBool, mtypes.KTinyInt:
				rv.I8, err = pagemap.Int8s(payload)
			case mtypes.KSmallInt:
				rv.I16, err = pagemap.Int16s(payload)
			case mtypes.KInt, mtypes.KDate:
				rv.I32, err = pagemap.Int32s(payload)
			case mtypes.KBigInt, mtypes.KDecimal:
				rv.I64, err = pagemap.Int64s(payload)
			case mtypes.KDouble:
				rv.F64, err = pagemap.Float64s(payload)
			default:
				return nil, fmt.Errorf("unsupported rle kind %d", typ.Kind)
			}
			if err != nil {
				return nil, err
			}
		}
		e.RunVals = rv
		e.RunEnds = runEnds
		if nruns > 0 && int(runEnds[nruns-1]) != count {
			return nil, fmt.Errorf("rle run ends inconsistent with row count")
		}
	default:
		return nil, fmt.Errorf("unknown column encoding %d", b[6])
	}
	return e, nil
}

// decodeColumnFile reconstructs a column from mapped file bytes, dispatching
// on the format magic. Raw (MLC1) files yield a data vector (fixed-width
// payloads are typed views straight into the mapping; varchar strings alias
// the mapped heap bytes). Encoded (MLC2) files yield only the compressed
// form — the data vector is decoded lazily on first raw access.
func decodeColumnFile(typ mtypes.Type, b []byte) (*vec.Vector, *strheap.Heap, []uint32, *vec.Encoded, error) {
	if len(b) < columnHeaderSize {
		return nil, nil, nil, nil, fmt.Errorf("bad column file header")
	}
	if string(b[:4]) == columnMagicV2 {
		if mtypes.Kind(b[4]) != typ.Kind {
			return nil, nil, nil, nil, fmt.Errorf("column kind mismatch: file %d, catalog %d", b[4], typ.Kind)
		}
		enc, err := decodeEncodedColumnFile(typ, b)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		return nil, nil, nil, enc, nil
	}
	data, heap, offs, err := decodeRawColumnFile(typ, b)
	return data, heap, offs, nil, err
}

// decodeRawColumnFile handles the MLC1 (raw) format.
func decodeRawColumnFile(typ mtypes.Type, b []byte) (*vec.Vector, *strheap.Heap, []uint32, error) {
	if string(b[:4]) != columnMagic {
		return nil, nil, nil, fmt.Errorf("bad column file header")
	}
	if mtypes.Kind(b[4]) != typ.Kind {
		return nil, nil, nil, fmt.Errorf("column kind mismatch: file %d, catalog %d", b[4], typ.Kind)
	}
	count := int(binary.LittleEndian.Uint64(b[8:]))
	body := b[columnHeaderSize:]
	v := &vec.Vector{Typ: typ}
	var err error
	switch typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		v.I8, err = pagemap.Int8s(body[:count])
	case mtypes.KSmallInt:
		v.I16, err = pagemap.Int16s(body[:2*count])
	case mtypes.KInt, mtypes.KDate:
		v.I32, err = pagemap.Int32s(body[:4*count])
	case mtypes.KBigInt, mtypes.KDecimal:
		v.I64, err = pagemap.Int64s(body[:8*count])
	case mtypes.KDouble:
		v.F64, err = pagemap.Float64s(body[:8*count])
	case mtypes.KVarchar:
		if len(body) < 4*count+8 {
			return nil, nil, nil, fmt.Errorf("truncated varchar column")
		}
		var offs []uint32
		offs, err = pagemap.Uint32s(body[:4*count])
		if err != nil {
			return nil, nil, nil, err
		}
		heapLen := int(binary.LittleEndian.Uint64(body[4*count:]))
		heapBytes := body[4*count+8:]
		if len(heapBytes) < heapLen {
			return nil, nil, nil, fmt.Errorf("truncated varchar heap")
		}
		heap, herr := strheap.FromBytes(heapBytes[:heapLen], true)
		if herr != nil {
			return nil, nil, nil, herr
		}
		v.Str = make([]string, count)
		for i, off := range offs {
			if heap.IsNull(off) {
				v.Str[i] = vec.StrNull
			} else {
				v.Str[i] = heap.Get(off)
			}
		}
		// offs must be mutable for future appends: copy out of the mapping.
		ownOffs := make([]uint32, count)
		copy(ownOffs, offs)
		return v, heap, ownOffs, nil
	default:
		return nil, nil, nil, fmt.Errorf("unsupported kind %d", typ.Kind)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return v, nil, nil, nil
}

// ---------------------------------------------------------------------------
// Catalog file.
// ---------------------------------------------------------------------------

type catalogJSON struct {
	Version uint64        `json:"version"`
	Tables  []tableJSON   `json:"tables"`
	Orders  []orderedIdxJ `json:"order_indexes,omitempty"`
}

type tableJSON struct {
	Name  string    `json:"name"`
	Cols  []colJSON `json:"cols"`
	NRows int       `json:"nrows"`
	Dels  []int32   `json:"dels,omitempty"`
}

type colJSON struct {
	Name  string `json:"name"`
	Kind  uint8  `json:"kind"`
	Prec  int    `json:"prec,omitempty"`
	Scale int    `json:"scale,omitempty"`
	Width int    `json:"width,omitempty"`
}

type orderedIdxJ struct {
	Table string `json:"table"`
	Col   string `json:"col"`
}

const catalogName = "catalog.json"

func (s *Store) columnPath(table, col string) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.%s.col", table, col))
}

// saveCatalogLocked writes catalog.json atomically (tmp, fsync, rename).
// Caller holds s.mu.
func (s *Store) saveCatalogLocked() error {
	cat := catalogJSON{Version: s.version}
	for _, name := range s.tableNamesLocked() {
		t := s.tables[name]
		tv := t.Version()
		tj := tableJSON{Name: t.Meta.Name, NRows: tv.NRows, Dels: tv.Dels.Slots()}
		for _, cd := range t.Meta.Cols {
			tj.Cols = append(tj.Cols, colJSON{
				Name: cd.Name, Kind: uint8(cd.Typ.Kind),
				Prec: cd.Typ.Prec, Scale: cd.Typ.Scale, Width: cd.Typ.Width,
			})
		}
		cat.Tables = append(cat.Tables, tj)
		t.mu.Lock() // idx entries change under t.mu (StatsFor, index builds)
		for ci := range t.idx {
			if t.idx[ci].order != nil {
				cat.Orders = append(cat.Orders, orderedIdxJ{Table: t.Meta.Name, Col: t.Meta.Cols[ci].Name})
			}
		}
		t.mu.Unlock()
	}
	data, err := json.MarshalIndent(&cat, "", " ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(s.dir, catalogName), func(w *bufio.Writer) error {
		w.Write(data)
		return nil
	})
}

// loadCatalog reads catalog.json and wires up lazily loaded tables.
func (s *Store) loadCatalog() error {
	data, err := os.ReadFile(filepath.Join(s.dir, catalogName))
	if err != nil {
		return err
	}
	var cat catalogJSON
	if err := json.Unmarshal(data, &cat); err != nil {
		return fmt.Errorf("storage: corrupt catalog: %w", err)
	}
	s.version = cat.Version
	for _, tj := range cat.Tables {
		meta := TableMeta{Name: tj.Name}
		for _, cj := range tj.Cols {
			meta.Cols = append(meta.Cols, ColDef{
				Name: cj.Name,
				Typ:  mtypes.Type{Kind: mtypes.Kind(cj.Kind), Prec: cj.Prec, Scale: cj.Scale, Width: cj.Width},
			})
		}
		t := newTable(meta)
		for i, cd := range meta.Cols {
			t.cols[i] = FileColumn(cd.Typ, s.columnPath(tj.Name, cd.Name))
		}
		var dels *Bitmap
		if len(tj.Dels) > 0 {
			dels = NewBitmap(tj.NRows)
			for _, r := range tj.Dels {
				dels.Set(r)
			}
		}
		// On-disk state is always fully merged: checkpoints fold any pending
		// append-delta into the persisted columns, so the loaded base covers
		// every cataloged row. Delta durability between checkpoints comes from
		// WAL replay, whose appends extend past this boundary.
		t.baseRows = tj.NRows
		t.publish(&TableVersion{Version: cat.Version, NRows: tj.NRows, BaseRows: tj.NRows, Dels: dels, table: t})
		s.tables[tj.Name] = t
	}
	// Rebuild persisted order indexes lazily: mark them requested so the
	// first access rebuilds (cheap bookkeeping, avoids loading columns now).
	for _, oj := range cat.Orders {
		if t, ok := s.tables[oj.Table]; ok {
			if ci := t.Meta.ColIndex(oj.Col); ci >= 0 {
				t.idx[ci].orderWanted = true
			}
		}
	}
	return nil
}

// Checkpoint persists all table data and the catalog. After a successful
// checkpoint the WAL can be truncated by the caller: column files, then the
// catalog, are written to temporaries, fsynced and renamed, and the
// directory is fsynced last so every rename survives a power loss. Columns
// are persisted in parallel, one task per column through a workpool lease;
// each holds only its own column's lock.
func (s *Store) Checkpoint() error {
	if s.dir == "" {
		return nil // in-memory databases persist nothing
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	type job struct {
		c    *Column
		path string
		rows int
	}
	var jobs []job
	for _, name := range s.tableNamesLocked() {
		t := s.tables[name]
		rows := t.Version().NRows
		for i, cd := range t.Meta.Cols {
			jobs = append(jobs, job{t.cols[i], s.columnPath(name, cd.Name), rows})
		}
	}
	errs := make([]error, len(jobs))
	lease := workpool.Global.Register()
	defer lease.Close()
	lease.Run(len(jobs), func(i int) {
		errs[i] = jobs[i].c.persist(jobs[i].path, jobs[i].rows)
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if err := s.saveCatalogLocked(); err != nil {
		return err
	}
	return syncDir(s.dir)
}

// persist brings the column file at path up to date with the column's first
// n rows. Checkpoint is where encodings are (re)chosen, for columns of at
// least checkpointEncodeMinRows rows that no earlier decision covers; an
// encoding that covers only part of the snapshot (an unmerged append-delta)
// is folded forward the same way. A file that already holds those rows in
// the same form is left alone: no rewrite, no fsync.
func (c *Column) persist(path string, n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.loaded {
		return nil // never touched since load: on-disk state is already current
	}
	if c.data == nil && c.enc != nil && c.enc.N != n {
		// Encoded resident form doesn't match the snapshot (possible after
		// crash recovery): decode so the raw path below applies.
		if _, err := c.loadDataLocked(); err != nil {
			return err
		}
	}
	if (c.enc == nil || c.enc.N != n) && c.data != nil &&
		n >= checkpointEncodeMinRows && c.data.Len() >= n && !c.decidedLocked(n, 0) {
		c.encodeLocked(c.data, n, 0)
	}
	var enc *vec.Encoded
	if c.enc != nil && c.enc.N == n {
		enc = c.enc
	}
	if c.fileKnown && c.fileRows == n && c.fileEnc == enc {
		return nil
	}
	c.fileKnown = false
	var err error
	if enc != nil {
		err = writeEncodedColumnFile(path, c.Typ, enc)
	} else {
		// A column decoded from an encoded file has no heap yet: rebuild it
		// for the raw write.
		c.ensureHeapLocked()
		offs := c.offs
		if c.Typ.Kind == mtypes.KVarchar {
			offs = offs[:n]
		}
		err = writeColumnFile(path, c.Typ, c.data.Slice(0, n), c.heap, offs)
	}
	if err != nil {
		return err
	}
	c.fileKnown, c.fileRows, c.fileEnc = true, n, enc
	return nil
}
