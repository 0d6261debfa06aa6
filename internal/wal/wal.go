// Package wal implements monetlite's write-ahead log: a physical redo log of
// committed mutations. Transactions buffer their writes; at commit the
// mutation records are appended, terminated by a commit marker, and synced
// before the commit is acknowledged. Recovery replays only record groups
// that end in a commit marker, so a crash mid-commit loses the uncommitted
// tail and nothing else.
//
// Record framing: [length uint32][crc32(payload) uint32][payload]. The first
// payload byte is the record kind.
//
// Open repairs the log before use: the tail is scanned for torn frames
// (partial header or payload), checksum mismatches and trailing records with
// no commit marker, and the file is truncated back to the last committed
// frame. Tail anomalies are the expected crash artifact and are never fatal;
// the RecoveryReport says what was found and removed.
//
// Commit durability uses group commit: AppendCommit places the commit marker
// under the log lock (establishing commit order) and returns a sequence
// number; SyncTo makes that sequence durable with a leader/follower
// handoff — the first committer to need a sync flushes and fsyncs once for
// every marker appended before it, and concurrent committers piggyback on
// that one fsync instead of issuing their own.
package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"slices"
	"sync"

	"monetlite/internal/faultfs"
	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

// Record kinds.
const (
	KindCreateTable = byte('C')
	KindDropTable   = byte('D')
	KindAppend      = byte('A')
	KindDelete      = byte('X')
	KindCommit      = byte('T')
	KindOrderIndex  = byte('O')
)

// Record is one logical WAL entry.
type Record struct {
	Kind    byte
	Table   string
	Col     string        // order index records
	MetaJS  []byte        // create-table records: JSON schema
	Cols    []*vec.Vector // append records
	RowIDs  []int32       // delete records
	Version uint64        // commit records
}

// RecoveryReport describes what Open found and repaired.
type RecoveryReport struct {
	Committed int    // committed record groups in the log
	Version   uint64 // last committed version (0 when the log is empty)
	Tail      string // anomaly that ended the scan ("" = clean end of log)
	Truncated int64  // torn/uncommitted bytes removed from the tail
	Size      int64  // log size after repair
}

// Log is an append-only WAL file.
type Log struct {
	mu   sync.Mutex
	path string
	f    faultfs.File
	w    *bufio.Writer
	size int64  // logical length including buffered bytes
	seq  uint64 // commit markers appended so far

	group  bool       // group commit on (default); off = flush+fsync per commit
	soloMu sync.Mutex // serializes ungrouped syncs (true per-txn fsync)

	// Group-commit state. durable is the highest seq covered by a completed
	// fsync; syncing marks an in-flight leader; failed poisons the log after
	// a sync error (durability of acknowledged commits would be unknown).
	gcMu    sync.Mutex
	gcCond  *sync.Cond
	durable uint64
	syncing bool
	failed  error
}

// Open opens (creating if needed) the WAL at path, repairing any torn tail.
func Open(path string) (*Log, *RecoveryReport, error) {
	return OpenFS(faultfs.Disk, path)
}

// OpenFS is Open over an injectable filesystem (crash-point fuzzing).
func OpenFS(fs faultfs.FS, path string) (*Log, *RecoveryReport, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, nil, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	data := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(data, 0); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	end, rep := scanTail(data)
	if int64(end) < size {
		// Torn or uncommitted tail: truncate back to the last committed
		// frame so the repair is durable and appends restart from a clean
		// boundary (a torn frame would otherwise shadow future commits).
		rep.Truncated = size - int64(end)
		if err := f.Truncate(int64(end)); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	rep.Size = int64(end)
	l := &Log{path: path, f: f, w: bufio.NewWriterSize(f, 1<<20), size: int64(end), group: true}
	l.gcCond = sync.NewCond(&l.gcMu)
	return l, &rep, nil
}

// scanTail walks the frames in data and returns the offset just past the
// last committed group, plus the recovery report for what follows it.
func scanTail(data []byte) (int, RecoveryReport) {
	var rep RecoveryReport
	off, committedEnd := 0, 0
	uncommitted := 0
	for {
		if off == len(data) {
			if uncommitted > 0 {
				rep.Tail = fmt.Sprintf("%d record(s) with no commit marker", uncommitted)
			}
			return committedEnd, rep
		}
		if len(data)-off < 8 {
			rep.Tail = "torn frame header"
			return committedEnd, rep
		}
		length := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if int(length) > len(data)-off-8 {
			rep.Tail = "torn record payload"
			return committedEnd, rep
		}
		payload := data[off+8 : off+8+int(length)]
		if crc32.ChecksumIEEE(payload) != sum {
			rep.Tail = "checksum mismatch"
			return committedEnd, rep
		}
		if len(payload) == 0 {
			rep.Tail = "empty record"
			return committedEnd, rep
		}
		off += 8 + int(length)
		if payload[0] == KindCommit {
			if v, k := binary.Uvarint(payload[1:]); k > 0 {
				rep.Version = v
			}
			rep.Committed++
			committedEnd = off
			uncommitted = 0
		} else {
			uncommitted++
		}
	}
}

// SetGroupCommit toggles group commit. Off means every Commit/SyncTo does
// its own flush+fsync — the per-transaction fsync baseline the commit
// throughput benchmark compares against.
func (l *Log) SetGroupCommit(on bool) {
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	l.group = on
}

// Size returns the current logical log length (buffered bytes included) —
// the checkpoint trigger for WAL rotation.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Append buffers one record (no sync; the commit path flushes and syncs).
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.pollFailed(); err != nil {
		return err
	}
	return l.writeLocked(rec)
}

// AppendCommit buffers the commit marker for version and returns its
// sequence number for SyncTo. The log lock serializes markers, so sequence
// order equals file order: any fsync that covers sequence s covers every
// earlier sequence too.
func (l *Log) AppendCommit(version uint64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.pollFailed(); err != nil {
		return 0, err
	}
	if err := l.writeLocked(Record{Kind: KindCommit, Version: version}); err != nil {
		return 0, err
	}
	l.seq++
	return l.seq, nil
}

// SyncTo blocks until the commit marker with sequence seq is durable.
// Under group commit the first waiter becomes the leader: it flushes the
// buffer and fsyncs once, covering every marker appended before the flush;
// the rest ride along. A sync failure poisons the log — durability of
// acknowledged commits can no longer be promised, so every later operation
// fails with the same error.
func (l *Log) SyncTo(seq uint64) error {
	l.gcMu.Lock()
	if !l.group {
		l.gcMu.Unlock()
		return l.soloSync()
	}
	for {
		if l.failed != nil {
			err := l.failed
			l.gcMu.Unlock()
			return err
		}
		if l.durable >= seq {
			l.gcMu.Unlock()
			return nil
		}
		if !l.syncing {
			break
		}
		l.gcCond.Wait()
	}
	l.syncing = true
	l.gcMu.Unlock()

	// Leader: yield once before snapshotting so committers mid-apply get
	// their markers into this batch. Without it, batches alternate 1-and-N:
	// a just-acknowledged committer re-enters, finds no sync in flight, and
	// leads a batch of one while everyone else is still applying.
	runtime.Gosched()

	// Flush under the log lock (snapshotting the covered sequence), fsync
	// outside it so new commits keep appending during the sync.
	l.mu.Lock()
	covered := l.seq
	err := l.w.Flush()
	l.mu.Unlock()
	if err == nil {
		err = l.f.Sync()
	}

	l.gcMu.Lock()
	l.syncing = false
	if err != nil {
		l.failed = err
	} else if covered > l.durable {
		l.durable = covered
	}
	l.gcCond.Broadcast()
	l.gcMu.Unlock()
	// Our own marker predates the flush snapshot (seq <= covered), so leader
	// success means our commit is durable.
	return err
}

// soloSync is the ungrouped path: flush and fsync for this commit alone.
// The whole operation holds soloMu so concurrent commits queue for one fsync
// each — the classic per-transaction-fsync baseline. (Without it, concurrent
// fsyncs on the shared fd get coalesced by the kernel, which is group commit
// by accident and would poison the ablation.)
func (l *Log) soloSync() error {
	l.soloMu.Lock()
	defer l.soloMu.Unlock()
	l.mu.Lock()
	err := l.w.Flush()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.f.Sync()
}

// Commit appends the commit marker for version and makes it durable (one
// flush+fsync, shared with concurrent committers). Only after Commit
// returns may the transaction be acknowledged.
func (l *Log) Commit(version uint64) error {
	seq, err := l.AppendCommit(version)
	if err != nil {
		return err
	}
	return l.SyncTo(seq)
}

// pollFailed surfaces a sticky group-commit sync failure. Caller holds l.mu.
func (l *Log) pollFailed() error {
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	return l.failed
}

// Reset truncates the log after a successful checkpoint. Everything the log
// held is durable in the storage snapshot now, so outstanding markers are
// marked durable wholesale.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Reset(l.f) // buffered bytes describe pre-checkpoint state
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.size = 0
	l.gcMu.Lock()
	l.durable = l.seq
	l.gcCond.Broadcast()
	l.gcMu.Unlock()
	return nil
}

// Close flushes and closes the file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

func (l *Log) writeLocked(rec Record) error {
	payload, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := l.w.Write(payload); err != nil {
		return err
	}
	l.size += int64(8 + len(payload))
	return nil
}

// Replay invokes apply once per committed record group already in the log,
// in commit order. Call after Open and before the first Append: Open has
// repaired the tail, so every frame up to the recovered size must decode —
// failures here are real corruption, not crash artifacts.
func (l *Log) Replay(apply func(recs []Record, version uint64) error) error {
	l.mu.Lock()
	size := l.size
	l.mu.Unlock()
	if size == 0 {
		return nil
	}
	data := make([]byte, size)
	if _, err := l.f.ReadAt(data, 0); err != nil {
		return err
	}
	return replayFrames(data, apply)
}

// Replay reads the WAL at path and invokes apply once per committed
// transaction with its records (commit marker excluded) and version.
// Truncated or corrupt tails (the expected crash artifact) are skipped;
// corruption before the last commit marker is reported as an error.
func Replay(path string, apply func(recs []Record, version uint64) error) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	end, _ := scanTail(data)
	return replayFrames(data[:end], apply)
}

// replayFrames decodes and applies the committed groups in data, which must
// end on a committed frame boundary (scanTail's contract).
func replayFrames(data []byte, apply func(recs []Record, version uint64) error) error {
	var pending []Record
	for off := 0; off < len(data); {
		length := binary.LittleEndian.Uint32(data[off:])
		payload := data[off+8 : off+8+int(length)]
		off += 8 + int(length)
		rec, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if rec.Kind == KindCommit {
			if err := apply(pending, rec.Version); err != nil {
				return err
			}
			pending = nil
			continue
		}
		pending = append(pending, rec)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Record encoding.
// ---------------------------------------------------------------------------

func encodeRecord(rec Record) ([]byte, error) {
	buf := []byte{rec.Kind}
	putStr := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	switch rec.Kind {
	case KindCreateTable:
		buf = binary.AppendUvarint(buf, uint64(len(rec.MetaJS)))
		buf = append(buf, rec.MetaJS...)
	case KindDropTable:
		putStr(rec.Table)
	case KindOrderIndex:
		putStr(rec.Table)
		putStr(rec.Col)
	case KindAppend:
		putStr(rec.Table)
		buf = binary.AppendUvarint(buf, uint64(len(rec.Cols)))
		for _, v := range rec.Cols {
			var err error
			buf, err = encodeVector(buf, v)
			if err != nil {
				return nil, err
			}
		}
	case KindDelete:
		putStr(rec.Table)
		buf = binary.AppendUvarint(buf, uint64(len(rec.RowIDs)))
		for _, r := range rec.RowIDs {
			buf = binary.AppendVarint(buf, int64(r))
		}
	case KindCommit:
		buf = binary.AppendUvarint(buf, rec.Version)
	default:
		return nil, fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return buf, nil
}

func decodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, errors.New("empty record")
	}
	rec := Record{Kind: payload[0]}
	b := payload[1:]
	fail := errors.New("truncated record")
	getStr := func() (string, error) {
		n, k := binary.Uvarint(b)
		if k <= 0 || int(n) > len(b)-k {
			return "", fail
		}
		s := string(b[k : k+int(n)])
		b = b[k+int(n):]
		return s, nil
	}
	var err error
	switch rec.Kind {
	case KindCreateTable:
		var s string
		if s, err = getStr(); err != nil {
			return rec, err
		}
		rec.MetaJS = []byte(s)
	case KindDropTable:
		rec.Table, err = getStr()
	case KindOrderIndex:
		if rec.Table, err = getStr(); err != nil {
			return rec, err
		}
		rec.Col, err = getStr()
	case KindAppend:
		if rec.Table, err = getStr(); err != nil {
			return rec, err
		}
		n, k := binary.Uvarint(b)
		if k <= 0 {
			return rec, fail
		}
		b = b[k:]
		for i := 0; i < int(n); i++ {
			var v *vec.Vector
			v, b, err = decodeVector(b)
			if err != nil {
				return rec, err
			}
			rec.Cols = append(rec.Cols, v)
		}
	case KindDelete:
		if rec.Table, err = getStr(); err != nil {
			return rec, err
		}
		n, k := binary.Uvarint(b)
		if k <= 0 {
			return rec, fail
		}
		b = b[k:]
		for i := 0; i < int(n); i++ {
			x, k := binary.Varint(b)
			if k <= 0 {
				return rec, fail
			}
			b = b[k:]
			rec.RowIDs = append(rec.RowIDs, int32(x))
		}
	case KindCommit:
		v, k := binary.Uvarint(b)
		if k <= 0 {
			return rec, fail
		}
		rec.Version = v
	default:
		return rec, fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return rec, err
}

// encodeVector serializes a vector: kind, scale, count, then values
// (fixed-width little-endian integers, raw float bits, uvarint
// length-prefixed strings).
func encodeVector(buf []byte, v *vec.Vector) ([]byte, error) {
	n := v.Len()
	buf = slices.Grow(buf, encodedVectorSize(v))
	buf = append(buf, byte(v.Typ.Kind), byte(v.Typ.Scale))
	buf = binary.AppendUvarint(buf, uint64(n))
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		for _, x := range v.I8 {
			buf = append(buf, byte(x))
		}
	case mtypes.KSmallInt:
		for _, x := range v.I16 {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(x))
		}
	case mtypes.KInt, mtypes.KDate:
		for _, x := range v.I32 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
	case mtypes.KBigInt, mtypes.KDecimal:
		for _, x := range v.I64 {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	case mtypes.KDouble:
		for _, x := range v.F64 {
			buf = binary.LittleEndian.AppendUint64(buf, floatBits(x))
		}
	case mtypes.KVarchar:
		for _, s := range v.Str {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	default:
		return nil, fmt.Errorf("cannot log vector kind %d", v.Typ.Kind)
	}
	return buf, nil
}

// encodedVectorSize is the exact length of encodeVector's output for v, so
// the record buffer grows once per vector, not once per value.
func encodedVectorSize(v *vec.Vector) int {
	n := v.Len()
	size := 2 + uvarintLen(uint64(n))
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		size += n
	case mtypes.KSmallInt:
		size += 2 * n
	case mtypes.KInt, mtypes.KDate:
		size += 4 * n
	case mtypes.KVarchar:
		for _, s := range v.Str {
			size += uvarintLen(uint64(len(s))) + len(s)
		}
	default:
		size += 8 * n
	}
	return size
}

func decodeVector(b []byte) (*vec.Vector, []byte, error) {
	fail := errors.New("truncated vector")
	if len(b) < 2 {
		return nil, b, fail
	}
	typ := mtypes.Type{Kind: mtypes.Kind(b[0]), Scale: int(b[1])}
	b = b[2:]
	n64, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, b, fail
	}
	b = b[k:]
	n := int(n64)
	v := vec.New(typ, n)
	switch typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		if len(b) < n {
			return nil, b, fail
		}
		for i := 0; i < n; i++ {
			v.I8[i] = int8(b[i])
		}
		b = b[n:]
	case mtypes.KSmallInt:
		if len(b) < 2*n {
			return nil, b, fail
		}
		for i := 0; i < n; i++ {
			v.I16[i] = int16(binary.LittleEndian.Uint16(b[2*i:]))
		}
		b = b[2*n:]
	case mtypes.KInt, mtypes.KDate:
		if len(b) < 4*n {
			return nil, b, fail
		}
		for i := 0; i < n; i++ {
			v.I32[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
		b = b[4*n:]
	case mtypes.KBigInt, mtypes.KDecimal:
		if len(b) < 8*n {
			return nil, b, fail
		}
		for i := 0; i < n; i++ {
			v.I64[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
		b = b[8*n:]
	case mtypes.KDouble:
		if len(b) < 8*n {
			return nil, b, fail
		}
		for i := 0; i < n; i++ {
			v.F64[i] = floatFrom(binary.LittleEndian.Uint64(b[8*i:]))
		}
		b = b[8*n:]
	case mtypes.KVarchar:
		for i := 0; i < n; i++ {
			sn, k := binary.Uvarint(b)
			if k <= 0 || int(sn) > len(b)-k {
				return nil, b, fail
			}
			v.Str[i] = string(b[k : k+int(sn)])
			b = b[k+int(sn):]
		}
	default:
		return nil, b, fmt.Errorf("unknown vector kind %d", typ.Kind)
	}
	return v, b, nil
}

// MetaToJSON / MetaFromJSON marshal table schemas for create-table records.
func MetaToJSON(meta any) ([]byte, error) { return json.Marshal(meta) }

// MetaFromJSON unmarshals a create-table record's schema payload.
func MetaFromJSON(data []byte, into any) error { return json.Unmarshal(data, into) }
