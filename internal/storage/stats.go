package storage

import (
	"cmp"
	"math"

	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

// ColStats summarizes one column of one table snapshot for the cost-based
// optimizer: row count, null count, estimated number of distinct values, and
// the exact min/max of the non-null domain (absent for empty or all-null
// columns). Like an order index, stats describe the current, delete-free
// version of a table and are computed lazily on first use, then cached until
// an append invalidates them.
type ColStats struct {
	Rows      int64
	NullCount int64
	// NDV is the estimated number of distinct non-null values. Exact when the
	// column fits in the sampling budget, extrapolated from a strided sample
	// otherwise; always within [1, Rows] for non-empty columns.
	NDV int64
	// Min/Max bound the non-null domain (exact, from a full scan). HasRange is
	// false when the column is empty or all-null.
	Min, Max mtypes.Value
	HasRange bool
}

// statsSampleCap bounds the number of values hashed for the NDV estimate.
// Columns at most this long get an exact distinct count.
const statsSampleCap = 16384

// StatsFor returns (computing on demand) the statistics of column ci, valid
// for snapshot tv; nil when the snapshot is stale or has pending deletes —
// exactly the validity rule the secondary indexes use, so stats never
// describe rows a query cannot see.
func (t *Table) StatsFor(tv *TableVersion, ci int) *ColStats {
	if tv != t.Version() || tv.Dels.Count() > 0 {
		return nil
	}
	t.mu.Lock()
	ix := &t.idx[ci]
	if st := ix.stats; st != nil && ix.statsRows == tv.NRows {
		t.mu.Unlock()
		return st
	}
	t.mu.Unlock()
	// Computed off the table lock, so the columns of one table can be
	// scanned concurrently (EncodeColumns); a racing computation of the same
	// snapshot produces the same stats.
	data, err := t.cols[ci].LoadSlice(tv.NRows)
	if err != nil {
		return nil
	}
	st := ComputeColStats(data)
	t.mu.Lock()
	ix.stats, ix.statsRows = st, tv.NRows
	t.mu.Unlock()
	return st
}

// StatsEpoch returns the table's statistics epoch: a counter bumped whenever
// the table's contents change enough that previously computed estimates are
// materially stale (any delete, or appends growing the table by ≥20% or
// ≥4096 rows since the last bump). Plan caches stamp entries with the sum of
// these epochs (Store.StatsVersion) so stats-driven plans are re-optimized
// when the data moves, without invalidating on every small append.
func (t *Table) StatsEpoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.statsEpoch
}

// noteRowsChanged implements the material-change rule; called under t.mu by
// Append and Delete.
func (t *Table) noteRowsChanged(nrows int, forceBump bool) {
	grown := nrows - t.statsRowsStamp
	if grown < 0 {
		grown = -grown
	}
	material := forceBump ||
		grown >= 4096 ||
		(t.statsRowsStamp == 0 && nrows > 0) ||
		(t.statsRowsStamp > 0 && grown*5 >= t.statsRowsStamp)
	if material {
		t.statsEpoch++
		t.statsRowsStamp = nrows
	}
}

// ComputeColStats scans one column vector and produces its statistics. The
// min/max and null count come from one sequential pass; the distinct count
// hashes a strided sample of at most statsSampleCap non-null values and
// extrapolates with a first-order jackknife (d + f1·(N−n)/n, where f1 counts
// sample singletons), clamped to [d, nonNull].
func ComputeColStats(v *vec.Vector) *ColStats {
	n := v.Len()
	st := &ColStats{Rows: int64(n)}
	if n == 0 {
		return st
	}
	// Full pass: nulls and exact min/max. Only the two extremes are boxed.
	var lo, hi int
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		st.NullCount, lo, hi = minMaxPos(v.I8, mtypes.NullInt8)
	case mtypes.KSmallInt:
		st.NullCount, lo, hi = minMaxPos(v.I16, mtypes.NullInt16)
	case mtypes.KInt, mtypes.KDate:
		st.NullCount, lo, hi = minMaxPos(v.I32, mtypes.NullInt32)
	case mtypes.KBigInt, mtypes.KDecimal:
		st.NullCount, lo, hi = minMaxPos(v.I64, mtypes.NullInt64)
	case mtypes.KDouble:
		st.NullCount, lo, hi = minMaxPos(v.F64, mtypes.NullFloat64())
	case mtypes.KVarchar:
		st.NullCount, lo, hi = minMaxPos(v.Str, vec.StrNull)
	}
	if lo >= 0 {
		st.Min, st.Max, st.HasRange = v.Value(lo), v.Value(hi), true
	}
	nonNull := st.Rows - st.NullCount
	if nonNull == 0 {
		return st
	}
	// Strided sample over all rows; nulls inside the sample are skipped so the
	// distinct estimate covers the non-null domain only.
	stride := 1
	if n > statsSampleCap {
		stride = (n + statsSampleCap - 1) / statsSampleCap
	}
	counts := make(map[mtypes.Value]int, min(n/stride+1, statsSampleCap))
	sampled := 0
	for i := 0; i < n; i += stride {
		if v.IsNull(i) {
			continue
		}
		counts[sampleKey(v, i)]++
		sampled++
	}
	if sampled == 0 {
		st.NDV = 1
		return st
	}
	d := int64(len(counts))
	if stride == 1 {
		st.NDV = d
		return st
	}
	f1 := int64(0)
	for _, c := range counts {
		if c == 1 {
			f1++
		}
	}
	est := float64(d) + float64(f1)*(float64(nonNull)-float64(sampled))/float64(sampled)
	st.NDV = int64(math.Ceil(est))
	if st.NDV < d {
		st.NDV = d
	}
	if st.NDV > nonNull {
		st.NDV = nonNull
	}
	return st
}

// minMaxPos counts the NULLs of xs and returns the positions of its first
// minimum and first maximum non-NULL value (-1, -1 when there is none).
// x != x holds only for NaN, so every NaN payload counts as a DOUBLE NULL;
// strict comparisons keep the first of equal values (-0.0 before +0.0).
func minMaxPos[T cmp.Ordered](xs []T, null T) (nulls int64, lo, hi int) {
	lo, hi = -1, -1
	for i, x := range xs {
		if x == null || x != x {
			nulls++
			continue
		}
		if lo < 0 {
			lo, hi = i, i
			continue
		}
		if x < xs[lo] {
			lo = i
		} else if x > xs[hi] {
			hi = i
		}
	}
	return nulls, lo, hi
}

// sampleKey canonicalizes a vector element for use as a distinct-count map
// key: same payload field per kind, doubles folded to bits so that every NaN
// payload (all of which mean NULL and are pre-filtered) cannot split keys.
func sampleKey(v *vec.Vector, i int) mtypes.Value {
	val := v.Value(i)
	if val.Typ.Kind == mtypes.KDouble {
		return mtypes.Value{Typ: mtypes.Double, I: int64(math.Float64bits(val.F))}
	}
	// Zero the type descriptor details that don't affect identity within one
	// column (width/precision are constant per column anyway).
	return val
}
