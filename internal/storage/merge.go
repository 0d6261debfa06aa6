package storage

import (
	"time"

	"monetlite/internal/index"
	"monetlite/internal/vec"
)

// MergeReport describes one completed delta fold (the storage.deltamerge
// trace line and the merge log are rendered from it).
type MergeReport struct {
	Table            string
	FromRows         int // base boundary before the fold
	ToRows           int // base boundary after (the folded snapshot's NRows)
	ImprintsExtended int // columns whose imprints grew via Imprints.Extend
	HashExtended     int // columns whose hash index grew via HashIndex.Extended
	Encoded          int // columns re-encoded to cover the folded rows
	Duration         time.Duration
}

// MergeDelta folds the table's append-delta into the base: secondary indexes
// are extended incrementally over the delta rows (never rebuilt from
// scratch), encodings that covered only the old base are re-run, and the
// current version is republished with BaseRows advanced to the folded
// boundary. Returns false with no work done when the delta is empty or when
// a reader pins an epoch older than the table's current version (pass
// delta.NoPins to force; folding is always logically safe — pinned snapshots
// keep their own immutable version structs and shared append-only arrays —
// the gate only keeps the merger from churning under long-running scans).
//
// The fold runs in two phases: phase 1 builds the extended index structures
// off the table lock (reading the column through LoadSlice, so concurrent
// appends can land mid-fold without racing), phase 2 installs them under
// t.mu. Structures built for tv.NRows rows stay valid if the table grew in
// between — coverage-based serving (ImprintsFor/HashFor/EncodedFor) windows
// the uncovered tail exactly as it does for any other delta.
func (t *Table) MergeDelta(minPinned uint64) (MergeReport, bool) {
	tv := t.Version()
	rep := MergeReport{Table: t.Meta.Name, FromRows: tv.BaseRows, ToRows: tv.NRows}
	if tv.NRows <= tv.BaseRows {
		return rep, false
	}
	if tv.Version > minPinned {
		t.delta.Deferred.Add(1)
		return rep, false
	}
	start := time.Now()

	type colFold struct {
		im       *index.Imprints
		h        *index.HashIndex
		enc      *vec.Encoded
		reencode bool // a re-encode ran; install enc even when nil (decay)
	}
	folds := make([]colFold, len(t.cols))
	for ci := range t.cols {
		t.mu.Lock()
		im, imRows, h := t.idx[ci].imprints, t.idx[ci].imprintsRows, t.idx[ci].hash
		t.mu.Unlock()
		e := t.cols[ci].EncodedForm()
		if im == nil && h == nil && e == nil {
			continue // nothing covers this column; lazy builds handle it later
		}
		data, err := t.cols[ci].LoadSlice(tv.NRows)
		if err != nil {
			return rep, false
		}
		if im != nil && imRows < tv.NRows {
			if ext := im.Extend(data, imRows); ext != nil {
				folds[ci].im = ext
				rep.ImprintsExtended++
			}
		}
		if h != nil && h.Rows() < tv.NRows {
			folds[ci].h = h.Extended(data, h.Rows())
			rep.HashExtended++
		}
		if e != nil && e.N < tv.NRows {
			// Re-encode over the folded rows; a nil result (encoding no longer
			// pays) decays the column to raw.
			folds[ci].enc = vec.EncodeColumn(data, 0)
			folds[ci].reencode = true
			rep.Encoded++
		}
	}

	t.mu.Lock()
	for ci, f := range folds {
		if f.im != nil {
			t.idx[ci].imprints = f.im
			t.idx[ci].imprintsRows = tv.NRows
		}
		if f.h != nil {
			t.idx[ci].hash = f.h
		}
		if f.reencode {
			t.cols[ci].refreshEncoded(f.enc, tv.NRows)
		}
	}
	if tv.NRows > t.baseRows {
		t.baseRows = tv.NRows
	}
	// Republish the current version with the advanced base boundary. Commits
	// are excluded by t.mu, so cur cannot move underneath the swap; readers
	// holding the old pointer keep a version that merely understates the
	// indexed prefix, which coverage-based serving tolerates.
	cur := t.Version()
	t.publish(&TableVersion{Version: cur.Version, NRows: cur.NRows, BaseRows: t.baseRows, Dels: cur.Dels, table: t})
	t.mu.Unlock()

	rep.Duration = time.Since(start)
	t.delta.Merges.Add(1)
	t.delta.MergeNanos.Add(rep.Duration.Nanoseconds())
	t.delta.LastMergeNanos.Store(rep.Duration.Nanoseconds())
	return rep, true
}
