package storage

import (
	"errors"

	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
	"monetlite/internal/workpool"
)

// Compressed physical columns (ROADMAP item 3). A Column may carry a
// vec.Encoded form alongside (or instead of) its raw vector: dictionary
// codes for low-NDV varchars, frame-of-reference bit-packing for the
// integer family, run-length pairs for clustered data. The encoding is the
// *storage representation*, not a secondary index — it is chosen here (at
// explicit EncodeColumns calls and at checkpoint time, driven by ColStats),
// persisted in the MLC2 column format (persist.go), loaded lazily, and
// handed to the executor through Table.EncodedFor so filters, group-by and
// sort can run directly on codes. An append keeps the encoding as a prefix
// window: rows past enc.N form the raw append-delta until the background
// merger re-encodes the whole column (merge.go); only truncation below
// enc.N drops it. The decoded vector doubles as a cache so operators that
// need raw values never decode twice. An encoding is chosen once per row
// count: a column remembers the rows its last decision covered, and neither
// EncodeColumns nor Checkpoint repeats a decision for the same rows.

// checkpointEncodeMinRows is the row floor below which Checkpoint leaves
// columns raw: tiny tables gain nothing and the fixed per-file overhead of
// the encoded format would dominate.
const checkpointEncodeMinRows = 1024

// EncodedForm returns the column's compressed representation, or nil when
// the column is raw. The result is immutable.
func (c *Column) EncodedForm() *vec.Encoded {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enc
}

// decidedLocked reports whether an earlier encoding decision covers the
// first n rows for a caller passing ndvHint: the decision saw the same rows,
// and either no hint pruned it or this caller's hint prunes the same
// candidate. Caller holds c.mu.
func (c *Column) decidedLocked(n, ndvHint int) bool {
	return n > 0 && c.encRows == n && (!c.encPruned || vec.DictHintPrunes(ndvHint))
}

// encodeLocked runs the encoding decision over the first n rows of data,
// installing a winning encoding and remembering the decision. Caller holds
// c.mu.
func (c *Column) encodeLocked(data *vec.Vector, n, ndvHint int) *vec.Encoded {
	e := vec.EncodeColumn(data.Slice(0, n), ndvHint)
	c.encRows, c.encPruned = n, vec.DictHintPrunes(ndvHint)
	if e != nil {
		c.enc = e
	}
	return e
}

// encodeSettled reports whether the first n rows need no encoding decision
// whatever the hint: an encoding covers them, or an unpruned decision did.
func (c *Column) encodeSettled(n int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return (c.enc != nil && c.enc.N >= n) || c.decidedLocked(n, 0)
}

// encode compresses the column if its resident data covers n rows and an
// encoding pays for itself (vec.EncodeColumn's size hysteresis). ndvHint
// forwards the stats estimate to skip hopeless dictionary attempts.
func (c *Column) encode(n int, ndvHint int) (vec.Encoding, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.enc != nil && c.enc.N >= n {
		return c.enc.Enc, nil
	}
	if c.decidedLocked(n, ndvHint) {
		return vec.EncNone, nil
	}
	data, err := c.loadDataLocked()
	if err != nil {
		return vec.EncNone, err
	}
	if data.Len() < n {
		return vec.EncNone, nil // snapshot ahead of resident data: stay raw
	}
	if e := c.encodeLocked(data, n, ndvHint); e != nil {
		return e.Enc, nil
	}
	return vec.EncNone, nil
}

// EncodedFor returns the compressed form of column ci, nil when the column
// is raw. The encoding is the physical data itself: append-only arrays make
// any row-prefix window valid for any snapshot, and deleted rows are
// excluded by the executor's candidate lists exactly as they are on the raw
// path. The encoding may cover fewer rows than the snapshot (e.N < tv.NRows)
// when an append-delta is pending — the executor windows encoded kernels at
// e.N and raw-scans the tail — or more rows than an older snapshot sees,
// which is harmless for the same windowing reason.
func (t *Table) EncodedFor(tv *TableVersion, ci int) *vec.Encoded {
	return t.cols[ci].EncodedForm()
}

// encodeColumn compresses column ci of snapshot tv (stats-driven: the
// cached ColStats NDV estimate pre-screens dictionary candidates of a
// varchar column that still needs a decision).
func (t *Table) encodeColumn(tv *TableVersion, ci int) (vec.Encoding, error) {
	c := t.cols[ci]
	hint := 0
	if c.Typ.Kind == mtypes.KVarchar && !c.encodeSettled(tv.NRows) {
		if st := t.StatsFor(tv, ci); st != nil {
			hint = int(st.NDV)
		}
	}
	return c.encode(tv.NRows, hint)
}

// EncodeColumns compresses every column of the current snapshot. It returns
// how many columns now hold an encoded form.
func (t *Table) EncodeColumns() (int, error) {
	return encodeTables([]*Table{t})
}

// EncodeAll compresses the columns of every table in the store. Returns the
// total number of encoded columns.
func (s *Store) EncodeAll() (int, error) {
	s.mu.RLock()
	tables := make([]*Table, 0, len(s.tables))
	for _, name := range s.tableNamesLocked() {
		tables = append(tables, s.tables[name])
	}
	s.mu.RUnlock()
	return encodeTables(tables)
}

// encodeTables runs every column's encoding decision, one task per column
// through a workpool lease. Columns are independent: each decision holds
// only its own column's lock.
func encodeTables(tables []*Table) (int, error) {
	type job struct {
		t  *Table
		tv *TableVersion
		ci int
	}
	var jobs []job
	for _, t := range tables {
		tv := t.Version()
		for ci := range t.cols {
			jobs = append(jobs, job{t, tv, ci})
		}
	}
	encs := make([]vec.Encoding, len(jobs))
	errs := make([]error, len(jobs))
	lease := workpool.Global.Register()
	defer lease.Close()
	lease.Run(len(jobs), func(i int) {
		encs[i], errs[i] = jobs[i].t.encodeColumn(jobs[i].tv, jobs[i].ci)
	})
	encoded := 0
	for _, e := range encs {
		if e != vec.EncNone {
			encoded++
		}
	}
	return encoded, errors.Join(errs...)
}

// ColFootprint reports one column's storage footprint for the bytes/row
// measurements (README table, BenchmarkEncodedScan's bytes/row).
type ColFootprint struct {
	Name     string
	Enc      vec.Encoding
	Bytes    int64 // resident representation: encoded size when encoded
	RawBytes int64 // what the same rows cost in the raw (MLC1) layout
}

// Footprint measures every column of the current snapshot.
func (t *Table) Footprint() ([]ColFootprint, error) {
	tv := t.Version()
	out := make([]ColFootprint, len(t.cols))
	for ci, c := range t.cols {
		fp := ColFootprint{Name: t.Meta.Cols[ci].Name}
		c.mu.Lock()
		if c.enc != nil {
			fp.Enc = c.enc.Enc
			fp.Bytes = c.enc.SizeBytes()
			fp.RawBytes = c.enc.RawSizeBytes()
			c.mu.Unlock()
			out[ci] = fp
			continue
		}
		data, err := c.loadDataLocked()
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		data = data.Slice(0, min(data.Len(), tv.NRows))
		if c.Typ.Kind == mtypes.KVarchar {
			fp.RawBytes = 4 * int64(data.Len())
			if c.heap != nil {
				fp.RawBytes += int64(len(c.heap.Bytes()))
			}
		} else {
			fp.RawBytes = vec.RawBytes(data)
		}
		fp.Bytes = fp.RawBytes
		c.mu.Unlock()
		out[ci] = fp
	}
	return out, nil
}
