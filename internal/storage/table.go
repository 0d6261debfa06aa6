package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"monetlite/internal/delta"
	"monetlite/internal/index"
	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

// ColDef describes one column of a table.
type ColDef struct {
	Name string
	Typ  mtypes.Type
}

// TableMeta is a table's schema.
type TableMeta struct {
	Name string
	Cols []ColDef
}

// ColIndex returns the position of the named column, or -1.
func (m *TableMeta) ColIndex(name string) int {
	for i, c := range m.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// TableVersion is an immutable snapshot of a table's visible state: a row
// count and a deletion bitmap over append-only column arrays, plus the
// boundary of the merged base. Reading a version never blocks writers and
// vice versa.
//
// Delta-store layout (paper §3.1): rows [0, BaseRows) are the immutable
// base — the prefix the secondary indexes and column encodings were last
// folded over. Rows [BaseRows, NRows) are the append-delta: recent commits'
// raw vectors, visible to scans as an extra trailing window that indexes do
// not cover. Dels is the delete-delta: a copy-on-write bitmap scans consume
// directly through candidate lists, never a materialized rewrite. The
// background merger (merge.go) folds the append-delta into the base by
// extending indexes/encodings incrementally and republishing with
// BaseRows = NRows.
type TableVersion struct {
	Version  uint64 // global commit version that produced this snapshot
	NRows    int    // visible physical rows (including deleted ones)
	BaseRows int    // rows covered by the merged base; the tail is the delta
	Dels     *Bitmap
	table    *Table
}

// Meta returns the table schema.
func (tv *TableVersion) Meta() *TableMeta { return &tv.table.Meta }

// Table returns the owning table (for index access).
func (tv *TableVersion) Table() *Table { return tv.table }

// Col loads column i and returns it truncated to this version's row count.
// The slice header is copied under the column lock, so concurrent delta
// appends (which grow the shared array past NRows) never race with readers.
func (tv *TableVersion) Col(i int) (*vec.Vector, error) {
	return tv.table.cols[i].LoadSlice(tv.NRows)
}

// DeltaRows returns the size of this snapshot's append-delta tail.
func (tv *TableVersion) DeltaRows() int { return tv.NRows - tv.BaseRows }

// LiveCands returns the candidate list of non-deleted rows (nil = all).
func (tv *TableVersion) LiveCands() []int32 { return tv.Dels.LiveCands(tv.NRows) }

// LiveRows returns the number of visible rows.
func (tv *TableVersion) LiveRows() int { return tv.NRows - tv.Dels.Count() }

// colIndexes tracks the secondary indexes of one column together with the
// metadata needed to decide their validity for a given snapshot.
type colIndexes struct {
	hash        *index.HashIndex
	order       *index.OrderIndex
	orderWanted bool // CREATE ORDER INDEX was issued; rebuild lazily
	stats       *ColStats
	statsRows   int
}

// Table is a mutable table: current version pointer, physical columns and
// index bookkeeping. Mutations run under the transaction layer's commit lock
// plus t.mu; readers use the atomic version pointer.
type Table struct {
	Meta TableMeta

	mu   sync.Mutex
	cols []*Column
	cur  atomic.Pointer[TableVersion]
	idx  []colIndexes

	// baseRows is the merged-base boundary published as TableVersion
	// .BaseRows: the prefix the indexes and encodings were last folded over
	// (merge.go). Monotone, under t.mu.
	baseRows int

	// delta carries the table's delta-store counters (lock-free gauges).
	delta delta.State

	// Statistics staleness tracking (see StatsEpoch): epoch counter plus the
	// row count at the last epoch bump.
	statsEpoch     uint64
	statsRowsStamp int
}

func newTable(meta TableMeta) *Table {
	t := &Table{Meta: meta, cols: make([]*Column, len(meta.Cols)), idx: make([]colIndexes, len(meta.Cols))}
	return t
}

// NewMemoryTable creates an empty in-memory table (used by tests and the
// in-memory database mode).
func NewMemoryTable(meta TableMeta) *Table {
	t := newTable(meta)
	for i, cd := range meta.Cols {
		t.cols[i] = NewColumn(cd.Typ)
	}
	t.publish(&TableVersion{Version: 0, NRows: 0, table: t})
	return t
}

func (t *Table) publish(tv *TableVersion) { t.cur.Store(tv) }

// Version returns the current snapshot.
func (t *Table) Version() *TableVersion { return t.cur.Load() }

// DeltaState returns the table's delta counters.
func (t *Table) DeltaState() *delta.State { return &t.delta }

// DeltaStats snapshots the table's delta gauges.
func (t *Table) DeltaStats() delta.TableStats {
	tv := t.Version()
	st := delta.TableStats{
		Table:          t.Meta.Name,
		Rows:           tv.NRows,
		BaseRows:       tv.BaseRows,
		DeltaRows:      tv.NRows - tv.BaseRows,
		DeletedRows:    tv.Dels.Count(),
		ReadsWithDelta: t.delta.ReadsWithDelta.Load(),
		Merges:         t.delta.Merges.Load(),
		Deferred:       t.delta.Deferred.Load(),
		MergeNanos:     t.delta.MergeNanos.Load(),
		LastMergeNanos: t.delta.LastMergeNanos.Load(),
	}
	if tv.NRows > 0 {
		st.DeleteDensity = float64(st.DeletedRows) / float64(tv.NRows)
	}
	return st
}

// Append adds a batch of rows (one vector per column, equal lengths) and
// publishes a new version stamped with commitVersion. The new rows land in
// the append-delta: column arrays grow in O(batch) — encodings and indexes
// keep covering the base prefix and are folded forward later by the
// background merger, not here. Order indexes are dropped (they do not
// survive appends); the orderWanted flag keeps lazy rebuilds available.
func (t *Table) Append(cols []*vec.Vector, commitVersion uint64) (*TableVersion, error) {
	if len(cols) != len(t.cols) {
		return nil, fmt.Errorf("storage: append to %s: %d columns, want %d", t.Meta.Name, len(cols), len(t.cols))
	}
	n := cols[0].Len()
	for i, v := range cols {
		if v.Len() != n {
			return nil, fmt.Errorf("storage: append to %s: ragged batch (col %d has %d rows, want %d)", t.Meta.Name, i, v.Len(), n)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.Version()
	for i, v := range cols {
		newLen, err := t.cols[i].Append(v)
		if err != nil {
			return nil, err
		}
		if newLen != old.NRows+n {
			return nil, fmt.Errorf("storage: append to %s: column %d length %d, want %d", t.Meta.Name, i, newLen, old.NRows+n)
		}
	}
	for i := range t.idx {
		t.idx[i].order = nil
	}
	t.noteRowsChanged(old.NRows+n, false)
	tv := &TableVersion{Version: commitVersion, NRows: old.NRows + n, BaseRows: t.baseRows, Dels: old.Dels, table: t}
	t.publish(tv)
	return tv, nil
}

// RecoverTruncate trims every column back to the cataloged row count. WAL
// replay calls it once per table before re-applying appends, so column files
// written ahead of the catalog by a crashed checkpoint don't make replayed
// appends land twice (or fail the length check). Indexes and stats are
// dropped wholesale: truncation followed by replayed re-appends would leave
// them describing rows that no longer exist.
func (t *Table) RecoverTruncate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.Version().NRows
	for _, c := range t.cols {
		if err := c.TruncateTo(n); err != nil {
			return err
		}
	}
	for i := range t.idx {
		t.idx[i] = colIndexes{orderWanted: t.idx[i].orderWanted}
	}
	if t.baseRows > n {
		t.baseRows = n
	}
	return nil
}

// Delete marks rows deleted and publishes a new version. The delete-delta
// stays a bitmap (copy-on-write, so older snapshots keep their own deletion
// state); hash indexes survive — deleted rows are excluded by
// the executor's candidate lists, never served by the index structures
// themselves. Order indexes don't survive (their validity gate requires a
// delete-free snapshot).
func (t *Table) Delete(rowids []int32, commitVersion uint64) (*TableVersion, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.Version()
	dels := old.Dels.Clone(old.NRows)
	n := 0
	for _, r := range rowids {
		if r < 0 || int(r) >= old.NRows {
			return nil, 0, fmt.Errorf("storage: delete from %s: row %d out of range", t.Meta.Name, r)
		}
		if dels.Set(r) {
			n++
		}
	}
	for i := range t.idx {
		t.idx[i].order = nil
		t.idx[i].stats = nil
	}
	// Any delete is a material stats change: min/max and ndv can shift in
	// ways appends cannot, so the epoch always bumps.
	t.noteRowsChanged(old.NRows, true)
	tv := &TableVersion{Version: commitVersion, NRows: old.NRows, BaseRows: t.baseRows, Dels: dels, table: t}
	t.publish(tv)
	return tv, n, nil
}

// ---------------------------------------------------------------------------
// Automatic index access (paper §3.1 "Automatic Indexing").
// ---------------------------------------------------------------------------

// HashFor returns (building on demand) the hash index of column ci for
// snapshot tv; nil when the index covers rows the snapshot cannot see. An
// index covering fewer rows than the snapshot is served — the executor
// raw-scans the uncovered delta tail — and deleted rows are excluded by
// candidate-list intersection.
func (t *Table) HashFor(tv *TableVersion, ci int) *index.HashIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	ix := &t.idx[ci]
	if ix.hash != nil {
		if ix.hash.Rows() <= tv.NRows {
			return ix.hash
		}
		// Cached index covers rows this older snapshot cannot see; don't
		// clobber it with a smaller rebuild.
		return nil
	}
	data, err := t.cols[ci].Load()
	if err != nil {
		return nil
	}
	ix.hash = index.BuildHashIndex(data.Slice(0, tv.NRows))
	return ix.hash
}

// OrderFor returns the order index of column ci if one was created with
// CREATE ORDER INDEX and is still valid for tv. Order indexes are a sorted
// permutation of all rows, so unlike hash indexes they require exact
// coverage: current version, no deletes.
func (t *Table) OrderFor(tv *TableVersion, ci int) *index.OrderIndex {
	if tv != t.Version() || tv.Dels.Count() > 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ix := &t.idx[ci]
	if ix.order != nil && ix.order.Rows() == tv.NRows {
		return ix.order
	}
	if !ix.orderWanted {
		return nil
	}
	data, err := t.cols[ci].Load()
	if err != nil {
		return nil
	}
	ix.order = index.BuildOrderIndex(data.Slice(0, tv.NRows))
	return ix.order
}

// CreateOrderIndex marks column ci as order-indexed and builds the index
// eagerly (CREATE ORDER INDEX statement).
func (t *Table) CreateOrderIndex(ci int) error {
	tv := t.Version()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := t.cols[ci].Load()
	if err != nil {
		return err
	}
	t.idx[ci].orderWanted = true
	t.idx[ci].order = index.BuildOrderIndex(data.Slice(0, tv.NRows))
	return nil
}

// HasOrderIndex reports whether CREATE ORDER INDEX was issued for column ci.
func (t *Table) HasOrderIndex(ci int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.idx[ci].orderWanted
}
