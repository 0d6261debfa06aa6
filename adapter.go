package monetlite

import (
	"monetlite/internal/exec"
	"monetlite/internal/index"
	"monetlite/internal/storage"
	"monetlite/internal/txn"
	"monetlite/internal/vec"
)

// snapshotCatalog adapts a transaction to the planner's Catalog interface.
type snapshotCatalog struct{ tx *txn.Txn }

func (c snapshotCatalog) TableMeta(name string) (*storage.TableMeta, bool) {
	v, ok := c.tx.View(name)
	if !ok {
		return nil, false
	}
	return v.Meta(), true
}

func (c snapshotCatalog) TableRows(name string) int64 {
	v, ok := c.tx.View(name)
	if !ok {
		return 0
	}
	return int64(v.NumRows())
}

// ColStats serves per-column statistics to the cost-based optimizer
// (plan.StatsProvider). Stats follow the same validity rule as the secondary
// indexes: only clean snapshots (no transaction-local writes) of the current
// table version are served, so estimates never describe rows the snapshot
// cannot see.
func (c snapshotCatalog) ColStats(name string, ci int) (storage.ColStats, bool) {
	v, ok := c.tx.View(name)
	if !ok || !v.Clean() {
		return storage.ColStats{}, false
	}
	st := v.Table().StatsFor(v.Base, ci)
	if st == nil {
		return storage.ColStats{}, false
	}
	return *st, true
}

// execCatalog adapts a transaction to the executor's Catalog interface.
type execCatalog struct{ tx *txn.Txn }

func (c execCatalog) Source(name string) (exec.TableSource, bool) {
	v, ok := c.tx.View(name)
	if !ok {
		return nil, false
	}
	return viewSource{v}, true
}

// viewSource adapts a txn.View to exec.TableSource, serving secondary
// indexes only when the view has no transaction-local overlay.
type viewSource struct{ v *txn.View }

func (s viewSource) Meta() *storage.TableMeta       { return s.v.Meta() }
func (s viewSource) NumRows() int                   { return s.v.NumRows() }
func (s viewSource) Col(i int) (*vec.Vector, error) { return s.v.Col(i) }
func (s viewSource) LiveCands() []int32             { return s.v.LiveCands() }

// HashIdx returns the column's hash index when the snapshot is clean.
func (s viewSource) HashIdx(ci int) *index.HashIndex {
	if !s.v.Clean() {
		return nil
	}
	return s.v.Table().HashFor(s.v.Base, ci)
}

// OrderIdx returns the column's order index when the snapshot is clean.
func (s viewSource) OrderIdx(ci int) *index.OrderIndex {
	if !s.v.Clean() {
		return nil
	}
	return s.v.Table().OrderFor(s.v.Base, ci)
}

// EncodedCol returns the column's compressed physical form when the snapshot
// is clean (a transaction-local overlay appends rows the encoding does not
// cover, so overlaid views read raw).
func (s viewSource) EncodedCol(ci int) *vec.Encoded {
	if !s.v.Clean() {
		return nil
	}
	return s.v.Table().EncodedFor(s.v.Base, ci)
}
