// Package storage implements monetlite's columnar storage engine: tables of
// tightly packed column arrays with versioned snapshots, deletion bitmaps,
// automatic secondary indexes, lazy memory-mapped loading of persistent
// columns, and a durable on-disk format.
//
// Concurrency model (paper §3.1 "Concurrency Control"): readers obtain an
// immutable TableVersion snapshot and never block; writers mutate tables
// under the transaction layer's global commit lock, publishing a fresh
// version atomically. Committed column data is append-only — row content
// never changes in place (DELETE sets bitmap bits, UPDATE is delete+append),
// so snapshots may safely share the underlying arrays with later versions.
package storage

import (
	"fmt"
	"slices"
	"sync"

	"monetlite/internal/mtypes"
	"monetlite/internal/pagemap"
	"monetlite/internal/strheap"
	"monetlite/internal/vec"
)

// Column stores one attribute as a tightly packed array. A Column is either
// memory-resident or file-backed; file-backed columns load lazily on first
// touch via mmap (the OS pages them in and out — there is no buffer pool).
type Column struct {
	Typ mtypes.Type

	mu     sync.Mutex
	loaded bool
	data   *vec.Vector // full physical data; grows on append
	heap   *strheap.Heap
	offs   []uint32 // varchar: offsets into heap, parallel to data.Str

	// enc is the compressed representation when one exists (see encode.go).
	// Invariant: when both enc and data are non-nil, data's first enc.N rows
	// are enc's decoded form; rows beyond enc.N are the append-delta, not yet
	// folded into the encoding. Appends therefore keep enc (encoded execution
	// windows itself at enc.N); only truncation below enc.N drops it. The
	// background merger re-encodes and installs a full-coverage replacement
	// via refreshEncoded. After loading an encoded (MLC2) file, data may be
	// nil until a caller needs raw values.
	enc *vec.Encoded

	// encRows is the row count the last encoding decision (a
	// vec.EncodeColumn call) covered, 0 when there was none; encPruned
	// records that a stats hint removed the dictionary candidate from it.
	// EncodeColumn is deterministic and rows are append-only, so a decision
	// stands for its prefix until TruncateTo — re-encoding the same rows
	// would reach the same answer (see decidedLocked). In memory only.
	encRows   int
	encPruned bool

	// fileKnown, fileRows and fileEnc describe what the column file holds:
	// the first fileRows rows, encoded as fileEnc (nil: raw MLC1). Set on
	// load and on each successful write, cleared by TruncateTo and Release;
	// Checkpoint skips a column whose file already matches its snapshot.
	fileKnown bool
	fileRows  int
	fileEnc   *vec.Encoded

	path    string // non-empty when file-backed and not yet loaded
	mapping *pagemap.Mapping
}

// NewColumn creates an empty memory-resident column.
func NewColumn(typ mtypes.Type) *Column {
	c := &Column{Typ: typ, loaded: true, data: vec.NewCap(typ, 0)}
	if typ.Kind == mtypes.KVarchar {
		c.heap = strheap.New()
	}
	return c
}

// FileColumn creates a lazily loaded column backed by the given file.
func FileColumn(typ mtypes.Type, path string) *Column {
	return &Column{Typ: typ, path: path}
}

// Load returns the column's full data vector, reading and mapping the
// backing file on first use. The returned vector may alias read-only mapped
// memory; callers must treat it as immutable.
func (c *Column) Load() (*vec.Vector, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loadDataLocked()
}

// loadDataLocked ensures the raw data vector is resident, decoding the
// compressed form on first demand when the column was loaded from an
// encoded (MLC2) file. Caller holds c.mu.
func (c *Column) loadDataLocked() (*vec.Vector, error) {
	if !c.loaded {
		if err := c.loadLocked(); err != nil {
			return nil, err
		}
	}
	if c.data == nil && c.enc != nil {
		c.data = c.enc.Decode()
	}
	return c.data, nil
}

// ensureHeapLocked rebuilds the varchar heap and offset array from the
// decoded strings. A varchar column decoded from an encoded file has no heap
// yet (readers never need one), but mutations do. Caller holds c.mu with
// c.data resident.
func (c *Column) ensureHeapLocked() {
	if c.Typ.Kind == mtypes.KVarchar && c.heap == nil {
		c.heap = strheap.New()
		c.offs = make([]uint32, 0, len(c.data.Str))
		for _, s := range c.data.Str {
			if s == vec.StrNull {
				c.offs = append(c.offs, c.heap.PutNull())
			} else {
				c.offs = append(c.offs, c.heap.Put(s))
			}
		}
	}
}

// LoadSlice returns the column's first n rows. The slice headers are copied
// while holding the column lock, so a concurrent delta append — which grows
// the shared arrays past n under the same lock — never races with the
// reader. Sharing the underlying arrays is safe: appends write only indices
// >= the reader's length, and a reallocating append switches to a new array.
func (c *Column) LoadSlice(n int) (*vec.Vector, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, err := c.loadDataLocked()
	if err != nil {
		return nil, err
	}
	if data.Len() < n {
		return nil, fmt.Errorf("storage: column has %d rows, snapshot wants %d", data.Len(), n)
	}
	return data.Slice(0, n), nil
}

// refreshEncoded installs a replacement compressed form (nil decays the
// column to raw-only) chosen over the first rows rows. The background merger
// calls this after re-encoding a column whose old encoding covered only the
// pre-merge base.
func (c *Column) refreshEncoded(e *vec.Encoded, rows int) {
	c.mu.Lock()
	c.enc = e
	c.encRows, c.encPruned = rows, false
	c.mu.Unlock()
}

// Loaded reports whether the column data is resident (for tests and stats).
func (c *Column) Loaded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loaded
}

// Append adds vals to the end of the column, returning the new physical
// length. Must be called under the owner's write lock. Values are coerced to
// the column type by the caller; decimals of different scale are rescaled by
// vector Set semantics.
func (c *Column) Append(vals *vec.Vector) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.loadDataLocked(); err != nil {
		return 0, err
	}
	// The compressed form survives: it keeps covering the pre-append prefix
	// (enc.N rows) and the new rows ride in the raw delta tail until the
	// background merger folds them in.
	c.ensureHeapLocked()
	if c.Typ.Kind == mtypes.KVarchar {
		c.offs = slices.Grow(c.offs, len(vals.Str))
		c.data.Str = slices.Grow(c.data.Str, len(vals.Str))
		for _, s := range vals.Str {
			if s == vec.StrNull {
				c.offs = append(c.offs, c.heap.PutNull())
				c.data.Str = append(c.data.Str, vec.StrNull)
			} else {
				off := c.heap.Put(s)
				c.offs = append(c.offs, off)
				// Share the heap's bytes (dedup keeps one copy per value).
				c.data.Str = append(c.data.Str, c.heap.Get(off))
			}
		}
		return len(c.data.Str), nil
	}
	if vals.Typ == c.Typ {
		// In-place amortized growth. Appending to a slice at full capacity
		// reallocates, so mmap-backed arrays are never written through — the
		// first append after a load copies the column into process memory,
		// later ones amortize to O(1) per value.
		c.data.AppendVec(vals)
		return c.data.Len(), nil
	}
	// Slow path with per-value coercion (e.g. INSERT of int literal into
	// decimal column).
	for i := 0; i < vals.Len(); i++ {
		c.data.AppendValue(vals.Value(i))
	}
	return c.data.Len(), nil
}

// TruncateTo discards physical rows beyond n. Crash recovery needs this: a
// checkpoint that died after writing column files but before the catalog
// leaves columns longer than the cataloged row count, and WAL replay would
// then re-append rows that are already present. The survivor is deep-copied
// so that later appends never write through leftover slice capacity into
// read-only mapped memory.
func (c *Column) TruncateTo(n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.loadDataLocked(); err != nil {
		return err
	}
	if c.data.Len() <= n {
		return nil
	}
	c.ensureHeapLocked()
	if c.enc != nil && c.enc.N > n {
		// The encoding covers rows being discarded; it cannot be windowed
		// down, so decay to raw.
		c.enc = nil
	}
	c.encRows, c.fileKnown, c.fileEnc = 0, false, nil
	c.data = c.data.Slice(0, n).Clone()
	if len(c.offs) > n {
		// Orphaned heap entries are harmless (the heap dedups), but the offset
		// array must stay parallel to the string array.
		c.offs = append([]uint32(nil), c.offs[:n]...)
	}
	return nil
}

// Release drops any file mapping (database shutdown). The column must not be
// used afterwards.
func (c *Column) Release() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.loaded = false
	c.data = nil
	c.heap = nil
	c.offs = nil
	c.enc = nil
	c.encRows, c.fileKnown, c.fileEnc = 0, false, nil
	if c.mapping != nil {
		err := c.mapping.Close()
		c.mapping = nil
		return err
	}
	return nil
}

func (c *Column) loadLocked() error {
	if c.path == "" {
		// Fresh empty column.
		c.data = vec.NewCap(c.Typ, 0)
		if c.Typ.Kind == mtypes.KVarchar {
			c.heap = strheap.New()
		}
		c.loaded = true
		return nil
	}
	m, err := pagemap.Map(c.path)
	if err != nil {
		return fmt.Errorf("storage: loading column %s: %w", c.path, err)
	}
	data, heap, offs, enc, err := decodeColumnFile(c.Typ, m.Bytes())
	if err != nil {
		m.Close()
		return fmt.Errorf("storage: decoding column %s: %w", c.path, err)
	}
	c.mapping = m
	c.data, c.heap, c.offs, c.enc = data, heap, offs, enc
	c.fileKnown, c.fileEnc = true, enc
	if enc != nil {
		c.fileRows = enc.N
	} else {
		c.fileRows = data.Len()
	}
	c.loaded = true
	return nil
}
