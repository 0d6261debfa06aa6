package exec

import (
	"fmt"
	"math/bits"
	"slices"

	"monetlite/internal/mal"
	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
	"monetlite/internal/vec"
)

// Window-function execution. A Window node carries every call that shares one
// (PARTITION BY, ORDER BY) specification, so the operator pays for exactly
// one physical sort per spec: partition keys and order keys are compiled to
// uint64 sort codes (vec.CodedSort — the same kernels ORDER BY uses), one
// stable sort orders the rows by (partition, order, input index), and a
// boundary scan over the sorted order discovers partitions (ComparePrefix on
// the partition-key prefix) and order-key peers (full Compare). Each call's
// kernel then walks its partition's sorted rows and writes results back at
// the rows' *input* positions, so the operator preserves input order and row
// count — output is input columns plus one appended column per call.
//
// Parallelism (windowPartRanges): partitions are fully independent, so
// tasks take contiguous runs of whole partitions and write at disjoint
// output positions — no merge step, and output bit-identical for every
// fan-out; one run of all partitions is the serial walk. The sort itself
// goes through the same run-merge path as ORDER BY. When the optimizer
// proved the input already ordered compatibly (Window.SortFree) the sort is
// skipped outright: the identity permutation is what the stable sort would
// have returned.
//
// The volcano row engine executes the same node naively (rowstore/window.go)
// and serves as the differential oracle; framed aggregates accumulate in the
// same domains and frame order on both sides (see plan/windoweval.go), so
// results match bit-for-bit, doubles included.

func (e *Engine) execWindow(x *plan.Window) (*batch, error) {
	in, err := e.exec(x.Input)
	if err != nil {
		return nil, err
	}
	n := in.n
	memo := newMemo(e)

	// Compile the shared specification: partition keys ascending, then the
	// order keys. One CodedSort serves sorting, partition boundaries and
	// peer detection.
	nPartKeys := len(x.PartitionBy)
	keys := make([]vec.SortKey, 0, nPartKeys+len(x.OrderBy))
	for _, pe := range x.PartitionBy {
		kv, err := memo.evalVecN(pe, in, n)
		if err != nil {
			return nil, err
		}
		keys = append(keys, vec.SortKey{Vec: kv})
	}
	for _, k := range x.OrderBy {
		kv, err := memo.evalVecN(k.E, in, n)
		if err != nil {
			return nil, err
		}
		keys = append(keys, vec.SortKey{Vec: kv, Desc: k.Desc})
	}
	cs := vec.NewCodedSort(keys, n)

	var order []int32
	switch {
	case x.SortFree || len(keys) == 0:
		// Input already ordered compatibly (or no keys at all): the stable
		// sort would return the identity permutation.
		order = vec.Range(n)
		e.Trace.Emit("algebra.window", fmt.Sprintf("%d calls", len(x.Calls)), "sortfree")
	default:
		cp := e.sortChunkPlan(n)
		if order, err = e.sortOrder(cs, n, cp); err != nil {
			return nil, err
		}
		e.Trace.Emit("algebra.windowsort", e.mitosisArgs(cp.Chunks, "sort",
			[]string{fmt.Sprintf("%d keys", len(keys))}, "parallel %d runs")...)
	}

	// Partition boundary scan: starts[p] is the sorted offset of partition p,
	// with a final sentinel at n.
	starts := []int{0}
	if nPartKeys > 0 {
		for i := 1; i < n; i++ {
			if cs.ComparePrefix(order[i-1], order[i], nPartKeys) != 0 {
				starts = append(starts, i)
			}
		}
	}
	if n > 0 {
		starts = append(starts, n)
	} else {
		starts = []int{0, 0}
	}
	nparts := len(starts) - 1

	// Evaluate each call's input expressions once, over the full batch.
	ins, err := e.windowCallInputs(x, memo, in, n)
	if err != nil {
		return nil, err
	}
	outs := make([]*vec.Vector, len(x.Calls))
	for ci, c := range x.Calls {
		outs[ci] = vec.New(plan.WindowResultType(c), n)
	}

	// Fan whole partitions out across workers (windowPartRanges); a worker's
	// partitions cover disjoint input rows, so the shared output vectors need
	// no synchronization and the result is the same for every fan-out. Each
	// partition checks for interrupts (checkInterrupt only reads Engine
	// state, so sharing e across goroutines is safe): a task that sees one
	// stops writing, and runTasks discards the partial output.
	ranges := e.windowPartRanges(starts, n)
	overflow := make([]bool, len(ranges))
	err = e.runTasks(len(ranges), func(i int) {
		for p := ranges[i][0]; p < ranges[i][1]; p++ {
			if e.checkInterrupt() != nil {
				return
			}
			rows := order[starts[p]:starts[p+1]]
			for ci := range x.Calls {
				if !windowPartition(&x.Calls[ci], len(x.OrderBy) > 0, cs, rows, ins[ci], outs[ci]) {
					overflow[i] = true
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if slices.Contains(overflow, true) {
		return nil, fmt.Errorf("exec: window SUM: %w", mtypes.ErrOverflow)
	}
	e.Trace.Emit("algebra.window", e.mitosisArgs(len(ranges), "window",
		[]string{fmt.Sprintf("%d parts", nparts), fmt.Sprintf("%d calls", len(x.Calls))}, "parallel %d part-groups")...)

	return besides(in, denseBatch(outs, n)), nil
}

// windowPartRanges groups whole partitions into contiguous worker ranges of
// roughly one chunk's rows each: the chunk plan's Rows is only a target, and
// a partition never splits.
func (e *Engine) windowPartRanges(starts []int, n int) [][2]int {
	nparts := len(starts) - 1
	if nparts <= 0 {
		return nil
	}
	target := e.chunkPlan(n, mal.MinChunkRows, 0).Rows
	var ranges [][2]int
	for cur := 0; cur < nparts; {
		rows, end := 0, cur
		for end < nparts && (rows == 0 || rows < target) {
			rows += starts[end+1] - starts[end]
			end++
		}
		ranges = append(ranges, [2]int{cur, end})
		cur = end
	}
	return ranges
}

// callInputs holds one call's evaluated input vectors plus the typed views
// its kernel accumulates over.
type callInputs struct {
	arg    *vec.Vector
	def    *vec.Vector    // LAG/LEAD default, aligned with the input
	argCmp *vec.CodedSort // MIN/MAX comparisons over the argument
	ints   []int64        // integer-backed argument values (NullInt64 = NULL)
	floats []float64      // DOUBLE argument values (NaN = NULL)
	scale  int            // decimal scale of the argument
}

func (e *Engine) windowCallInputs(x *plan.Window, memo *memo, in *batch, n int) ([]callInputs, error) {
	out := make([]callInputs, len(x.Calls))
	for ci, c := range x.Calls {
		if c.Arg != nil {
			av, err := memo.evalVecN(c.Arg, in, n)
			if err != nil {
				return nil, err
			}
			out[ci].arg = av
			switch c.Func {
			case plan.WinSum, plan.WinAvg:
				// The binder guarantees a numeric argument here; COUNT takes
				// any type and only needs the null test on the raw vector.
				if av.Typ.Kind == mtypes.KDouble {
					out[ci].floats = av.F64
				} else {
					out[ci].ints = vec.AsInts64(av)
					out[ci].scale = av.Typ.Scale
				}
			case plan.WinMin, plan.WinMax:
				out[ci].argCmp = vec.NewCodedSort([]vec.SortKey{{Vec: av}}, n)
			}
		}
		if c.Default != nil {
			dv, err := memo.evalVecN(c.Default, in, n)
			if err != nil {
				return nil, err
			}
			out[ci].def = dv
		}
	}
	return out, nil
}

// windowPartition computes one call over one partition's sorted rows, writing
// each result at the row's input position. It reports false when an integer
// SUM or AVG over a frame leaves int64.
func windowPartition(c *plan.WindowCall, hasOrder bool, cs *vec.CodedSort, rows []int32, in callInputs, out *vec.Vector) bool {
	m := len(rows)
	if m == 0 {
		return true
	}
	switch c.Func {
	case plan.WinRowNumber:
		for i, r := range rows {
			out.I64[r] = int64(i + 1)
		}
	case plan.WinRank:
		rank := int64(1)
		for i, r := range rows {
			if i > 0 && cs.Compare(rows[i-1], r) != 0 {
				rank = int64(i + 1)
			}
			out.I64[r] = rank
		}
	case plan.WinDenseRank:
		rank := int64(1)
		for i, r := range rows {
			if i > 0 && cs.Compare(rows[i-1], r) != 0 {
				rank++
			}
			out.I64[r] = rank
		}
	case plan.WinLag, plan.WinLead:
		for i, r := range rows {
			j := i - int(c.Offset)
			if c.Func == plan.WinLead {
				j = i + int(c.Offset)
			}
			switch {
			case j >= 0 && j < m:
				out.Set(int(r), in.arg.Value(int(rows[j])))
			case in.def != nil:
				out.Set(int(r), in.def.Value(int(r)))
			default:
				out.SetNull(int(r))
			}
		}
	default:
		return windowAggPartition(c, hasOrder, cs, rows, in, out)
	}
	return true
}

// windowAggPartition evaluates a windowed aggregate over one partition.
// Frames follow the SQL defaults: the whole partition without ORDER BY, the
// peer-inclusive running frame (RANGE UNBOUNDED PRECEDING .. CURRENT ROW)
// with it, and explicit ROWS frames otherwise. Accumulation is always in
// frame order, left to right, in the argument's native domain (int64 for the
// integer-backed kinds, float64 for DOUBLE) — the exact contract the rowstore
// oracle follows, so even floating-point sums agree bitwise. It reports false
// when an integer SUM or AVG over a frame leaves int64 (winAcc.isum).
func windowAggPartition(c *plan.WindowCall, hasOrder bool, cs *vec.CodedSort, rows []int32, in callInputs, out *vec.Vector) bool {
	m := len(rows)
	acc, ok := winAcc{}, true
	switch {
	case c.Frame == nil && !hasOrder:
		// Whole partition, one result broadcast to every row.
		for _, r := range rows {
			acc.add(r, in)
		}
		for _, r := range rows {
			ok = acc.emit(c, in, out, int(r)) && ok
		}
	case c.Frame == nil:
		// Running frame over peer groups: all rows up to and including the
		// current row's order-key peers.
		peerStart := 0
		for i := 0; i < m; i++ {
			acc.add(rows[i], in)
			if i+1 < m && cs.Compare(rows[i], rows[i+1]) == 0 {
				continue // same peer group: frame still growing
			}
			for j := peerStart; j <= i; j++ {
				ok = acc.emit(c, in, out, int(rows[j])) && ok
			}
			peerStart = i + 1
		}
	case c.Frame.Lo.Kind == plan.FrameUnboundedPreceding:
		// Grow-only ROWS frame: extend one accumulator; additions happen in
		// the same left-to-right order a per-row rescan would use.
		added := 0
		for i := 0; i < m; i++ {
			_, hi := plan.FrameRowBounds(c.Frame, i, m)
			for added <= hi {
				acc.add(rows[added], in)
				added++
			}
			ok = acc.emit(c, in, out, int(rows[i])) && ok
		}
	default:
		// Sliding ROWS frame: rescan each row's frame left to right. No
		// subtraction means no float cancellation — results match the naive
		// oracle exactly.
		for i := 0; i < m; i++ {
			lo, hi := plan.FrameRowBounds(c.Frame, i, m)
			acc = winAcc{}
			for j := lo; j <= hi; j++ {
				acc.add(rows[j], in)
			}
			ok = acc.emit(c, in, out, int(rows[i])) && ok
		}
	}
	return ok
}

// winAcc is the typed windowed-aggregate accumulator. The integer sum is
// 128-bit (hi:lo, two's complement), so it is exact whenever the frame's
// total fits int64, however far its running sum strays.
type winAcc struct {
	rows   int64 // frame rows including NULL arguments (COUNT(*))
	count  int64 // non-NULL arguments
	lo     uint64
	hi     int64
	fsum   float64
	minRow int32
	maxRow int32
	seen   bool // minRow/maxRow valid
}

func (a *winAcc) add(r int32, in callInputs) {
	a.rows++
	switch {
	case in.ints != nil:
		if v := in.ints[r]; v != mtypes.NullInt64 {
			a.count++
			var carry uint64
			a.lo, carry = bits.Add64(a.lo, uint64(v), 0)
			a.hi += v>>63 + int64(carry)
		}
	case in.floats != nil:
		if v := in.floats[r]; !mtypes.IsNullF64(v) {
			a.count++
			a.fsum += v
		}
	case in.argCmp != nil:
		if !in.arg.IsNull(int(r)) {
			a.count++
			if !a.seen {
				a.minRow, a.maxRow, a.seen = r, r, true
			} else {
				if in.argCmp.Compare(r, a.minRow) < 0 {
					a.minRow = r
				}
				if in.argCmp.Compare(r, a.maxRow) > 0 {
					a.maxRow = r
				}
			}
		}
	case in.arg != nil:
		if !in.arg.IsNull(int(r)) {
			a.count++
		}
	}
}

// isum returns the integer sum and whether it fits int64, the NULL
// sentinel excluded: the aggregate kernels' rule.
func (a *winAcc) isum() (int64, bool) {
	s := int64(a.lo)
	return s, a.hi == s>>63 && s != mtypes.NullInt64
}

// emit writes the call's result for the frame at pos; it reports false when
// an integer SUM or AVG does not fit (isum).
func (a *winAcc) emit(c *plan.WindowCall, in callInputs, out *vec.Vector, pos int) bool {
	switch c.Func {
	case plan.WinCountStar:
		out.I64[pos] = a.rows
	case plan.WinCount:
		out.I64[pos] = a.count
	case plan.WinSum:
		switch {
		case a.count == 0:
			out.SetNull(pos)
		case in.floats != nil:
			out.F64[pos] = a.fsum
		default:
			s, ok := a.isum()
			out.I64[pos] = s
			return ok
		}
	case plan.WinAvg:
		if a.count == 0 {
			out.SetNull(pos)
		} else if in.floats != nil {
			out.F64[pos] = plan.WinAvgFloat(a.fsum, a.count)
		} else {
			s, ok := a.isum()
			out.F64[pos] = plan.WinAvgInt(s, in.scale, a.count)
			return ok
		}
	case plan.WinMin:
		if !a.seen {
			out.SetNull(pos)
		} else {
			out.Set(pos, in.arg.Value(int(a.minRow)))
		}
	case plan.WinMax:
		if !a.seen {
			out.SetNull(pos)
		} else {
			out.Set(pos, in.arg.Value(int(a.maxRow)))
		}
	}
	return true
}
