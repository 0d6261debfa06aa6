package exec

import (
	"fmt"

	"monetlite/internal/mal"
	"monetlite/internal/plan"
	"monetlite/internal/vec"
)

// ORDER BY and ORDER BY … LIMIT execution. Sorting is a blocking operator:
// its keys are gathered (or read as dictionary codes) over every input row,
// and its output is the input's sources composed at the sorted order, no
// column copied. Mitosis here parallelizes the blocking step itself rather
// than the scan feeding it — the index range is cut into contiguous runs
// (sortChunkPlan), each task sorts its run with the typed code kernels
// (vec.CodedSort), and the coordinator k-way merges; one run is the serial
// sort. Because the kernels order rows by (keys, original index), the
// permutation is the stable sort's at every run count, which the sort fuzzer
// checks against vec.SortOrder, a test-only oracle.

// sortKeys evaluates the ORDER BY key expressions over the input batch.
// pre, when non-nil, carries pre-computed key vectors (dictionary codes from
// encodedSortKeys) that replace the expression evaluation slot-for-slot.
func (e *Engine) sortKeys(specs []plan.SortSpec, in *batch, pre []*vec.Vector) ([]vec.SortKey, error) {
	memo := newMemo(e)
	keys := make([]vec.SortKey, len(specs))
	for i, k := range specs {
		if pre != nil && pre[i] != nil {
			keys[i] = vec.SortKey{Vec: pre[i], Desc: k.Desc}
			continue
		}
		kv, err := memo.evalVecN(k.E, in, in.n)
		if err != nil {
			return nil, err
		}
		keys[i] = vec.SortKey{Vec: kv, Desc: k.Desc}
	}
	return keys, nil
}

// encodedSortKeys pre-computes dictionary-code key vectors for ORDER BY keys
// that are bare references to dict-encoded varchar columns, read through the
// column's source ids, so they line up with the batch's rows. The sorted
// dictionary makes code order identical to string order — code 0 (NULL)
// sorts below every code exactly like the varchar kernel's null code — so
// the permutation is unchanged; the sort just compares small ints instead of
// strings.
func (e *Engine) encodedSortKeys(specs []plan.SortSpec, in *batch) []*vec.Vector {
	var pre []*vec.Vector
	n := 0
	for i, k := range specs {
		cr, ok := k.E.(*plan.ColRef)
		if !ok || cr.Slot < 0 {
			continue
		}
		en := in.encOf(cr.Slot)
		if en == nil || en.Enc != vec.EncDict {
			continue
		}
		if pre == nil {
			pre = make([]*vec.Vector, len(specs))
		}
		pre[i] = in.codes(cr.Slot, en)
		n++
	}
	if pre != nil {
		e.Trace.EmitVoid("optimizer.encoding", fmt.Sprintf("sort keys: %d dict codes", n))
	}
	return pre
}

// sortChunkPlan decides the run layout for a parallel sort over n rows. The
// input is already resident, so there is no memory budget; the serial k-way
// merge is the per-run overhead the plain minimum amortizes.
func (e *Engine) sortChunkPlan(n int) mal.ChunkPlan {
	return e.chunkPlan(n, mal.MinChunkRows, 0)
}

func (e *Engine) execSort(x *plan.Sort) (*batch, error) {
	in, err := e.exec(x.Input)
	if err != nil {
		return nil, err
	}
	keys, err := e.sortKeys(x.Keys, in, e.encodedSortKeys(x.Keys, in))
	if err != nil {
		return nil, err
	}
	cp := e.sortChunkPlan(in.n)
	order, err := e.sortOrder(vec.NewCodedSort(keys, in.n), in.n, cp)
	if err != nil {
		return nil, err
	}
	e.Trace.Emit("algebra.sort", e.mitosisArgs(cp.Chunks, "sort",
		[]string{fmt.Sprintf("%d keys", len(keys))}, "parallel %d runs")...)
	return in.at(order, false, false), nil
}

// sortOrder sorts the rows [0, n) by cs: each chunk of cp sorts its run of
// the index range, and the Less-ordered runs are merged. Runs are disjoint
// ascending ranges, so the kernels' index tie-break makes the merge stable
// across runs; a lone run is the serial sort and is returned as is.
func (e *Engine) sortOrder(cs *vec.CodedSort, n int, cp mal.ChunkPlan) ([]int32, error) {
	order := vec.Range(n)
	runs := make([][]int32, 0, cp.Chunks)
	for ci := 0; ci < cp.Chunks; ci++ {
		lo, hi := cp.Bounds(ci, n)
		if lo < hi {
			runs = append(runs, order[lo:hi])
		}
	}
	if err := e.runTasks(len(runs), func(i int) { cs.Sort(runs[i]) }); err != nil {
		return nil, err
	}
	return cs.MergeRuns(runs), nil
}

// execTopN evaluates the fused ORDER BY … LIMIT operator: each chunk keeps
// only its k = N+Offset best rows in a bounded heap, the per-chunk survivors
// (already sorted) are k-way merged, and the global best k are sliced to
// [Offset, Offset+N). Output is permutation-identical to Limit(Sort(…)) —
// i.e. to slicing the serial stable sort — without ever sorting the rows the
// LIMIT discards.
func (e *Engine) execTopN(x *plan.TopN) (*batch, error) {
	in, err := e.exec(x.Input)
	if err != nil {
		return nil, err
	}
	keys, err := e.sortKeys(x.Keys, in, e.encodedSortKeys(x.Keys, in))
	if err != nil {
		return nil, err
	}
	// N and Offset are each non-negative, but only N is bounded (by
	// plan.NoLimit) — an absurd OFFSET literal can wrap the sum. A wrapped
	// (negative) or oversized sum both mean "keep every row", so clamp to
	// the input size.
	k := in.n
	if k64 := x.N + x.Offset; k64 >= 0 && k64 < int64(k) {
		k = int(k64)
	}
	cs := vec.NewCodedSort(keys, in.n)
	cp := e.sortChunkPlan(in.n)
	runs := make([][]int32, cp.Chunks)
	err = e.runTasks(cp.Chunks, func(ci int) {
		lo, hi := cp.Bounds(ci, in.n)
		runs[ci] = cs.TopK(lo, hi, k)
	})
	if err != nil {
		return nil, err
	}
	best := cs.MergeRuns(runs)
	best = best[:min(len(best), k)]
	e.Trace.Emit("algebra.topn", e.mitosisArgs(cp.Chunks, "sort",
		[]string{fmt.Sprintf("%d keys", len(keys)), fmt.Sprintf("k=%d of %d", k, in.n)}, "parallel %d heaps")...)
	lo := int(x.Offset)
	if lo > len(best) {
		lo = len(best)
	}
	return in.at(best[lo:], false, false), nil
}
