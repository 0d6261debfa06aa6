package exec

import (
	"fmt"
	"math"

	"monetlite/internal/mal"
	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
	"monetlite/internal/vec"
)

// execJoin evaluates all join flavors over one build/probe path. The build
// side is chosen at runtime, for every flavor, as the smaller input — the
// paper's "tactical decision" level of optimization. Inner pairs come out in
// probe order; the other flavors emit left rows in left order whichever side
// was built (semi/anti mark matched left rows, left outer orders its pairs by
// left row), so their output does not depend on the choice. No payload is
// copied: the output is the inputs' sources with their ids composed at the
// pair lists (joinPairs), and a semi/anti join narrows its left input's
// sources, as a filter does. Only the key columns are gathered here.
func (e *Engine) execJoin(x *plan.Join) (*batch, error) {
	in, keys, err := e.joinInputs(x)
	if err != nil {
		return nil, err
	}
	left, right := in[0], in[1]
	lKeys, rKeys := keys[0], keys[1]
	for i := range lKeys {
		lKeys[i], rKeys[i], err = alignJoinKeys(lKeys[i], rKeys[i])
		if err != nil {
			return nil, err
		}
	}
	buildLeft := left.n <= right.n
	if e.testBuildSide != 0 {
		buildLeft = e.testBuildSide > 0
	}
	semiAnti := x.Kind == plan.JoinSemi || x.Kind == plan.JoinAnti
	anti := x.Kind == plan.JoinAnti

	if semiAnti && x.Residual == nil && len(x.EquiL) > 0 {
		// A key match decides the row: no pair list is ever enumerated.
		var keep []int32
		if buildLeft {
			jp := e.buildJoinTable(lKeys, left.n, right.n, "build=left")
			matched, err := jp.probeMark(rKeys, right.n, left.n)
			if err != nil {
				return nil, err
			}
			keep = markedRows(matched, left.n, !anti)
		} else {
			jp := e.buildJoinTable(rKeys, right.n, left.n, "build=right")
			if keep, err = jp.probeSemi(lKeys, left.n, anti); err != nil {
				return nil, err
			}
		}
		e.Trace.Emit("algebra.semijoin")
		return left.at(keep, true, false), nil
	}

	// Candidate pairs by key equality (every pair when there are no keys),
	// then the residual over exactly those pairs. The probe side's pair list
	// never decreases (lAsc tells which side that is); the build side's is in
	// probe order.
	var lsel, rsel []int32
	lAsc := true
	switch {
	case len(x.EquiL) == 0:
		e.Trace.Emit("algebra.crossproduct")
		lsel, rsel, err = e.crossPairs(left.n, right.n)
	case buildLeft:
		jp := e.buildJoinTable(lKeys, left.n, right.n, "build=left")
		rsel, lsel, err = jp.probe(rKeys, right.n)
		lAsc = false
	default:
		jp := e.buildJoinTable(rKeys, right.n, left.n, "build=right")
		lsel, rsel, err = jp.probe(lKeys, left.n)
	}
	if err != nil {
		return nil, err
	}
	if x.Residual != nil {
		if lsel, rsel, err = e.filterPairs(x.Residual, left, right, lsel, rsel, lAsc); err != nil {
			return nil, err
		}
	}
	switch {
	case semiAnti:
		matched := vec.NewBitmap(left.n)
		for _, l := range lsel {
			matched.Set(l)
		}
		e.Trace.Emit("algebra.semijoin", "residual")
		return left.at(markedRows(matched, left.n, !anti), true, false), nil
	case x.Kind == plan.JoinLeft:
		e.Trace.Emit("algebra.leftjoin")
		lsel, rsel = outerPairs(left.n, lsel, rsel)
		lAsc = true
	}
	return joinPairs(left, right, lsel, rsel, lAsc, x.Kind == plan.JoinLeft)
}

// joinInputs runs a join's inputs, left at [0] and right at [1], and
// evaluates each one's keys as soon as it has run. The input run second may
// be filtered by the first one's keys (sideways filtering, planSideways);
// the join traces the decision in one line either way.
func (e *Engine) joinInputs(x *plan.Join) (in [2]*batch, keys [2][]*vec.Vector, err error) {
	nodes, exprs := [2]plan.Node{x.Left, x.Right}, [2][]plan.Expr{x.EquiL, x.EquiR}
	run := func(s int) error {
		if in[s], err = e.exec(nodes[s]); err != nil {
			return err
		}
		memo := newMemo(e)
		keys[s] = make([]*vec.Vector, len(exprs[s]))
		for i, k := range exprs[s] {
			if keys[s][i], err = memo.evalVec(k, in[s]); err != nil {
				return err
			}
		}
		return nil
	}
	p := e.planSideways(x)
	if err = run(p.first); err != nil {
		return in, keys, err
	}
	var sf *sidewaysFilter
	reason := p.reason
	if reason == "" {
		sf, reason = e.sidewaysFilterFor(p, in[p.first].n, keys[p.first][p.key])
	}
	e.sideways = sf
	err = run(1 - p.first)
	e.sideways = nil
	if err == nil {
		e.traceSideways(sf, reason)
	}
	return in, keys, err
}

// markedRows lists the rows of [0, n) whose mark equals want, ascending.
func markedRows(marks vec.Bitmap, n int, want bool) []int32 {
	rows := make([]int32, 0, n)
	for i := int32(0); int(i) < n; i++ {
		if marks.Get(i) == want {
			rows = append(rows, i)
		}
	}
	return rows
}

// outerPairs turns inner-join pairs, in any order, into left-outer pairs in
// (left row, right row) order: a stable counting sort by left row that gives
// every left row without a pair one slot with right row -1.
func outerPairs(leftN int, lsel, rsel []int32) ([]int32, []int32) {
	start := make([]int, leftN+1) // start[l+1] counts l's pairs, then prefix-sums
	for _, l := range lsel {
		start[l+1]++
	}
	for l := 0; l < leftN; l++ {
		start[l+1] = start[l] + max(start[l+1], 1)
	}
	outL, outR := make([]int32, start[leftN]), make([]int32, start[leftN])
	for l := 0; l < leftN; l++ {
		for k := start[l]; k < start[l+1]; k++ {
			outL[k], outR[k] = int32(l), -1
		}
	}
	for i, l := range lsel {
		outR[start[l]] = rsel[i]
		start[l]++
	}
	return outL, outR
}

// alignJoinKeys rescales mismatched decimal/integer key domains so hash
// payloads compare correctly.
func alignJoinKeys(l, r *vec.Vector) (*vec.Vector, *vec.Vector, error) {
	lt, rt := l.Typ, r.Typ
	if lt.Kind == rt.Kind && scaleOfT(lt) == scaleOfT(rt) {
		return l, r, nil
	}
	if lt.Kind == mtypes.KVarchar || rt.Kind == mtypes.KVarchar {
		if lt.Kind == rt.Kind {
			return l, r, nil
		}
		return nil, nil, fmt.Errorf("exec: cannot join %s with %s", lt, rt)
	}
	if lt.Kind == mtypes.KDouble || rt.Kind == mtypes.KDouble {
		lc, err := vec.Cast(l, mtypes.Double)
		if err != nil {
			return nil, nil, err
		}
		rc, err := vec.Cast(r, mtypes.Double)
		if err != nil {
			return nil, nil, err
		}
		return lc, rc, nil
	}
	// Integer-backed: unify on BIGINT (or common decimal scale).
	scale := max(scaleOfT(lt), scaleOfT(rt))
	target := mtypes.BigInt
	if scale > 0 {
		target = mtypes.Decimal(18, scale)
	}
	lc, err := vec.Cast(l, target)
	if err != nil {
		return nil, nil, err
	}
	rc, err := vec.Cast(r, target)
	if err != nil {
		return nil, nil, err
	}
	return lc, rc, nil
}

func scaleOfT(t mtypes.Type) int {
	if t.Kind == mtypes.KDecimal {
		return t.Scale
	}
	return 0
}

// ---------------------------------------------------------------------------
// Hash join build and chunked probe (mitosis for hash joins).
// ---------------------------------------------------------------------------

// joinProber wraps the build-side hash table together with the probe-side
// chunk plan. Probe chunks run through runTasks and their outputs are
// concatenated in chunk order — bit-identical for every chunk count, which
// the differential tests exploit; one chunk is the serial probe.
type joinProber struct {
	e   *Engine
	tbl *vec.PartitionedHashTable
	cp  mal.ChunkPlan
}

// buildJoinTable builds the join hash table over the build-side keys. Only
// the probe side splits (every worker shares the one table), and each probe
// chunk covers at least a quarter of the build side's rows: against a large
// build side every lookup misses cache, and the fixed per-chunk cost (key
// view, block buffer, goroutine) must amortize over more probes. The build
// runs on as many workers as there are probe chunks, within the worker
// budget, over a table radix-partitioned so that they never contend; one
// chunk builds one partition on the coordinator. A dense integer key skips
// all that: its positional table is one pass on the coordinator.
func (e *Engine) buildJoinTable(buildKeys []*vec.Vector, buildN, probeN int, label string) *joinProber {
	cp := e.chunkPlan(probeN, max(mal.MinChunkRows, buildN/4), 0)
	workers := min(cp.Chunks, e.workerBudget())
	parts := vec.JoinPartitions(workers)
	tbl := vec.BuildHashPartitioned(buildKeys, parts, workers)
	width, positional, filtered := tbl.KeyFilter()
	args := []string{label}
	if cp.Chunks > 1 {
		e.Trace.EmitVoid("optimizer.mitosis", fmt.Sprintf("%d probe chunks (join)", cp.Chunks))
		if !positional {
			args = append(args, fmt.Sprintf("partitioned %d parts", parts))
		}
	}
	args = append(args, fmt.Sprintf("%d keys", tbl.Len()))
	switch {
	case positional:
		args = append(args, fmt.Sprintf("positional %d slots", width))
	case filtered:
		args = append(args, fmt.Sprintf("filter %d bits", width))
	}
	e.Trace.Emit("algebra.hashjoin", args...)
	return &joinProber{e: e, tbl: tbl, cp: cp}
}

// forChunks fans the probe side out over the chunk plan: each task gets its
// chunk index and slice of the key vectors.
func (jp *joinProber) forChunks(keys []*vec.Vector, n int, probe func(ci int, keys []*vec.Vector)) error {
	return jp.e.runTasks(jp.cp.Chunks, func(ci int) {
		if lo, hi := jp.cp.Bounds(ci, n); lo < hi {
			probe(ci, window(keys, lo, hi))
		}
	})
}

// probe computes inner-join pairs (probe rows, build rows).
func (jp *joinProber) probe(keys []*vec.Vector, n int) ([]int32, []int32, error) {
	ps, bs := make([][]int32, jp.cp.Chunks), make([][]int32, jp.cp.Chunks)
	err := jp.forChunks(keys, n, func(ci int, sliced []*vec.Vector) {
		ps[ci], bs[ci] = jp.tbl.Probe(sliced)
	})
	if err != nil {
		return nil, nil, err
	}
	return concatChunks(ps, int32(jp.cp.Rows)), concatChunks(bs, 0), nil
}

// probeSemi computes the kept probe rows of a semi (anti=false) or anti join.
func (jp *joinProber) probeSemi(keys []*vec.Vector, n int, anti bool) ([]int32, error) {
	keep := make([][]int32, jp.cp.Chunks)
	err := jp.forChunks(keys, n, func(ci int, sliced []*vec.Vector) {
		keep[ci] = jp.tbl.ProbeSemi(sliced, anti)
	})
	if err != nil {
		return nil, err
	}
	return concatChunks(keep, int32(jp.cp.Rows)), nil
}

// probeMark marks the build rows (of buildN) matched by any probe row. Each
// chunk marks its own bitmap; the others are OR-ed into chunk 0's after the
// barrier.
func (jp *joinProber) probeMark(keys []*vec.Vector, n, buildN int) (vec.Bitmap, error) {
	marks := make([]vec.Bitmap, jp.cp.Chunks)
	for ci := range marks {
		marks[ci] = vec.NewBitmap(buildN)
	}
	err := jp.forChunks(keys, n, func(ci int, sliced []*vec.Vector) {
		jp.tbl.ProbeMark(sliced, marks[ci])
	})
	if err != nil {
		return nil, err
	}
	for _, m := range marks[1:] {
		marks[0].Or(m)
	}
	return marks[0], nil
}

// filterPairs keeps the candidate join pairs satisfying the residual
// predicate, compacting the pair lists in place. Only the sources of the
// columns the predicate reads are composed at the pairs, and it is selected
// as a Filter's conjunct over several sources is (selectPositions).
func (e *Engine) filterPairs(residual plan.Expr, left, right *batch, lsel, rsel []int32, lAsc bool) ([]int32, []int32, error) {
	used := map[int]bool{}
	plan.SlotsUsed(residual, used)
	pick := func(b *batch, base int) *batch {
		cs := make([]int, len(b.cols))
		for c := range cs {
			cs[c] = -1
			if used[base+c] {
				cs[c] = c
			}
		}
		return b.project(cs)
	}
	pairs, err := joinPairs(pick(left, 0), pick(right, len(left.cols)), lsel, rsel, lAsc, false)
	if err != nil {
		return nil, nil, err
	}
	keep, err := e.selectPositions(residual, pairs, "residual")
	if err != nil {
		return nil, nil, err
	}
	for k, p := range keep {
		lsel[k], rsel[k] = lsel[p], rsel[p]
	}
	return lsel[:len(keep)], rsel[:len(keep)], nil
}

// checkPairCount guards the join output size: selection vectors address rows
// with int32, so a pair list beyond MaxInt32 would silently truncate row ids
// in downstream operators. Kept separate from joinPairs so the guard is
// testable without allocating gigabytes of pairs.
func checkPairCount(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("exec: join produces %d rows, beyond the %d-row selection-vector limit", n, math.MaxInt32)
	}
	return nil
}

// joinPairs is a join's output: left's sources composed at lsel and right's
// at rsel, side by side, no column copied. lAsc says which pair list never
// decreases: lsel, or else rsel. With outer, rsel entries of -1 (left outer
// non-matches) read as NULLs.
func joinPairs(left, right *batch, lsel, rsel []int32, lAsc, outer bool) (*batch, error) {
	if err := checkPairCount(len(lsel)); err != nil {
		return nil, err
	}
	return besides(left.at(lsel, lAsc, false), right.at(rsel, !lAsc, outer)), nil
}

// crossPairs enumerates the full cross product, checking for cancellation
// once per block of outer rows worth about one chunk of pairs. The size check
// runs before any allocation: nl*nr pairs beyond MaxInt32 would overflow
// int32 row addressing (and on 32-bit platforms the product itself can
// overflow int), so the error surfaces instead of a silently truncated
// selection.
func (e *Engine) crossPairs(nl, nr int) ([]int32, []int32, error) {
	if nl > 0 && nr > 0 && nl > math.MaxInt32/nr {
		return nil, nil, fmt.Errorf("exec: cross product of %d x %d rows exceeds the %d-row selection-vector limit", nl, nr, math.MaxInt32)
	}
	lsel := make([]int32, 0, nl*nr)
	rsel := make([]int32, 0, nl*nr)
	block := max(1, mal.MinChunkRows/max(nr, 1))
	for i := 0; i < nl; i++ {
		if i%block == 0 {
			if err := e.checkInterrupt(); err != nil {
				return nil, nil, err
			}
		}
		for j := 0; j < nr; j++ {
			lsel = append(lsel, int32(i))
			rsel = append(rsel, int32(j))
		}
	}
	return lsel, rsel, nil
}

// ---------------------------------------------------------------------------
// Aggregation.
// ---------------------------------------------------------------------------

// execAggregate runs an aggregate with mitosis (paper Figure 2): the input's
// live rows split into chunks, each chunk groups its rows and aggregates them
// per group (aggregateChunk), and the merge re-groups the chunks' key
// representatives into global groups (gidMaps) and folds the partials into
// them (mergeAgg). A global aggregate is the zero-key case, one group per
// chunk. One chunk is the serial aggregate: its groups are the global groups,
// so nothing is re-grouped.
func (e *Engine) execAggregate(x *plan.Aggregate) (*batch, error) {
	in, err := e.exec(x.Input)
	if err != nil {
		return nil, err
	}
	// A grouped chunk builds its own hash table and adds a keyed merge, so
	// it must be twice the plain minimum to pay.
	minRows, label := mal.MinChunkRows, "chunks"
	if len(x.GroupBy) > 0 {
		minRows, label = 2*mal.MinChunkRows, "chunks (grouped)"
	}
	n := in.n
	cp := e.chunkPlan(n, minRows, 8*len(in.cols))
	if cp.Chunks > 1 {
		e.Trace.EmitVoid("optimizer.mitosis", fmt.Sprintf("%d %s", cp.Chunks, label))
	}
	outs := make([]aggChunk, cp.Chunks)
	errs := make([]error, cp.Chunks)
	err = e.runTasks(cp.Chunks, func(ci int) {
		outs[ci], errs[ci] = e.chunkEngine(cp.Chunks).aggregateChunk(x, in.slice(cp.Bounds(ci, n)))
	})
	if err == nil {
		err = firstErr(errs)
	}
	if err != nil {
		return nil, err
	}

	keys, ngroups, note := outs[0].keys, outs[0].ngroups, ""
	var gidMaps [][]int32 // nil: one chunk, whose groups are the global ones
	var reprs []int32     // nil: keys already hold one row per group
	if cp.Chunks > 1 {
		total := 0
		for ci := range outs {
			total += outs[ci].ngroups
		}
		keys = make([]*vec.Vector, len(x.GroupBy))
		for i := range keys {
			pieces := make([]*vec.Vector, cp.Chunks)
			for ci := range outs {
				pieces[ci] = outs[ci].keys[i]
			}
			keys[i] = vec.Concat(pieces...)
		}
		var gids []int32
		gids, ngroups, reprs, _ = groupIDs(keys, total)
		gidMaps = make([][]int32, cp.Chunks)
		for ci, off := 0, 0; ci < cp.Chunks; ci++ {
			gidMaps[ci] = gids[off : off+outs[ci].ngroups]
			off += outs[ci].ngroups
		}
		note = " (parallel merge)"
	}
	if len(keys) > 0 {
		dense := true
		for ci := range outs {
			dense = dense && outs[ci].dense
		}
		e.traceGroup(len(keys), ngroups, outs[0].dict, dense, note)
	}
	out := keyColumns(keys, outs[0].dict, reprs)
	for ai, a := range x.Aggs {
		parts := make([]aggPart, cp.Chunks)
		for ci := range outs {
			parts[ci] = outs[ci].parts[ai]
		}
		res, err := e.mergeAgg(a, parts, gidMaps, ngroups)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return newBatch(out), nil
}

// grouping assigns the rows of a batch to groups.
type grouping struct {
	keys    []*vec.Vector  // GROUP BY key vectors; dictionary codes where dict[i] != nil
	dict    []*vec.Encoded // the dictionary behind each code-valued key
	gids    []int32        // group of each row
	ngroups int
	reprs   []int32 // first row of each group
	dense   bool    // grouped by direct addressing
}

// groupBatch groups b's rows on the GROUP BY keys. A bare reference to a
// dictionary-coded varchar column groups on its integer codes: the sorted
// dictionary makes codes and strings a bijection, so group ids, counts and
// first-appearance order are those of the strings, and only the group
// representatives are decoded (keyColumns). The codes are read through the
// column's source ids, so they reach a grouping above a join.
func groupBatch(memo *memo, exprs []plan.Expr, b *batch) (grouping, error) {
	g := grouping{keys: make([]*vec.Vector, len(exprs)), dict: make([]*vec.Encoded, len(exprs))}
	for i, ex := range exprs {
		if cr, ok := ex.(*plan.ColRef); ok {
			if en := b.encOf(cr.Slot); en != nil && en.Enc == vec.EncDict {
				g.keys[i], g.dict[i] = b.codes(cr.Slot, en), en
				continue
			}
		}
		kv, err := memo.evalVec(ex, b)
		if err != nil {
			return g, err
		}
		g.keys[i] = kv
	}
	g.gids, g.ngroups, g.reprs, g.dense = groupIDs(g.keys, b.n)
	return g, nil
}

// groupIDs groups n rows on keys. With no keys the rows form one group: a
// global aggregate has one output row, even over no input.
func groupIDs(keys []*vec.Vector, n int) ([]int32, int, []int32, bool) {
	if len(keys) == 0 {
		return make([]int32, n), 1, nil, false
	}
	return vec.GroupBy(keys)
}

// keyColumns gathers the key vectors at the group representatives (nil:
// every row), decoding dictionary codes back to strings (a nil dict keeps
// the codes).
func keyColumns(keys []*vec.Vector, dict []*vec.Encoded, reprs []int32) []*vec.Vector {
	out := make([]*vec.Vector, len(keys))
	for i, kv := range keys {
		out[i] = vec.Gather(kv, reprs)
		if dict != nil && dict[i] != nil {
			out[i] = dict[i].DecodeCodes(out[i])
		}
	}
	return out
}

// traceGroup emits a grouped aggregate's group.group instruction; dense
// marks keys grouped by direct addressing in every chunk.
func (e *Engine) traceGroup(nkeys, ngroups int, dict []*vec.Encoded, dense bool, note string) {
	args := []string{fmt.Sprintf("%d keys -> %d groups%s", nkeys, ngroups, note)}
	if dense {
		args = append(args, "dense")
	}
	nDict := 0
	for _, d := range dict {
		if d != nil {
			nDict++
		}
	}
	if nDict > 0 {
		args = append(args, fmt.Sprintf("%d dict codes", nDict))
	}
	e.Trace.Emit("group.group", args...)
}

// dedupPerGroup keeps the first occurrence of each (group, value) pair
// (COUNT(DISTINCT x) and friends): the pairs grouped by vec.GroupBy, whose
// representatives are those first occurrences, in row order.
func dedupPerGroup(gids []int32, vals *vec.Vector) ([]int32, *vec.Vector) {
	_, _, reprs, _ := vec.GroupBy([]*vec.Vector{{Typ: mtypes.Int, I32: gids}, vals})
	outG := make([]int32, len(reprs))
	for i, r := range reprs {
		outG[i] = gids[r]
	}
	return outG, vec.Gather(vals, reprs)
}

// blocking reports whether an aggregate cannot be merged from per-chunk
// partials: MEDIAN needs all of a group's values, and a DISTINCT partial
// would count again a value that also occurs in another chunk.
func blocking(a plan.AggCall) bool {
	return a.Kind == vec.AggMedian || (a.Distinct && a.Arg != nil)
}

// partialKinds lists the aggregates an aggregate is computed from: SUM and
// COUNT for AVG, which mergeAgg divides once whatever the chunk count, and
// the aggregate itself otherwise.
func partialKinds(k vec.AggKind) []vec.AggKind {
	if k == vec.AggAvg {
		return []vec.AggKind{vec.AggSum, vec.AggCount}
	}
	return []vec.AggKind{k}
}

// aggPart is one chunk's share of one aggregate. A mergeable aggregate
// carries its partials per chunk group (partialKinds), a SUM partial with
// its carry words when its int64 fast path overflowed (hi, see
// vec.SumGroups); a blocking one carries its argument values and each
// value's chunk-local group.
type aggPart struct {
	vecs []*vec.Vector
	gids []int32
	hi   []int64
}

// aggChunk is one chunk's partial aggregate.
type aggChunk struct {
	keys    []*vec.Vector // the chunk's group keys, at their representatives
	dict    []*vec.Encoded
	ngroups int
	dense   bool
	parts   []aggPart // per aggregate
}

// aggregateChunk computes the partial aggregate of one chunk of the
// aggregate's input rows, b, on a chunk engine. Keys and arguments are
// evaluated densely over the chunk's rows; columns nothing references are
// never gathered.
func (e *Engine) aggregateChunk(x *plan.Aggregate, b *batch) (aggChunk, error) {
	memo := newMemo(e)
	g, err := groupBatch(memo, x.GroupBy, b)
	if err != nil {
		return aggChunk{}, err
	}
	c := aggChunk{keys: keyColumns(g.keys, nil, g.reprs), dict: g.dict, ngroups: g.ngroups,
		dense: g.dense, parts: make([]aggPart, len(x.Aggs))}
	for ai, a := range x.Aggs {
		var vals *vec.Vector
		if a.Arg != nil {
			if vals, err = memo.evalVec(a.Arg, b); err != nil {
				return aggChunk{}, err
			}
		}
		p := &c.parts[ai]
		if blocking(a) {
			p.gids = g.gids
			if a.Distinct {
				p.gids, vals = dedupPerGroup(g.gids, vals)
			}
			p.vecs = []*vec.Vector{vals}
			continue
		}
		for _, k := range partialKinds(a.Kind) {
			var partial *vec.Vector
			if k == vec.AggSum {
				partial, p.hi, err = vec.SumGroups(vals, g.gids, g.ngroups)
			} else {
				partial, err = vec.Aggregate(k, vals, g.gids, g.ngroups)
			}
			if err != nil {
				return aggChunk{}, err
			}
			p.vecs = append(p.vecs, partial)
		}
	}
	return c, nil
}

// mergeAgg folds one aggregate's chunk parts into ngroups global groups;
// gidMaps[ci] maps chunk ci's groups to global ones. A nil gidMaps is the
// one-chunk run: its partials are the results, and it traces as a serial
// aggregate. Blocking aggregates aggregate their (group, value) pairs once
// (blockingPairs); AVG divides its SUM by its COUNT.
func (e *Engine) mergeAgg(a plan.AggCall, parts []aggPart, gidMaps [][]int32, ngroups int) (*vec.Vector, error) {
	kinds := partialKinds(a.Kind)
	res := make([]*vec.Vector, len(kinds))
	note := a.Name
	var err error
	switch {
	case blocking(a):
		gids, vals := blockingPairs(parts, gidMaps, a.Distinct)
		for j, k := range kinds {
			if res[j], err = vec.Aggregate(k, vals, gids, ngroups); err != nil {
				return nil, err
			}
		}
		if gidMaps != nil {
			note = "blocking"
		}
	case gidMaps == nil && parts[0].hi == nil:
		res = parts[0].vecs
	default:
		// A SUM partial merges with its carry words (vec.MergeSums), also
		// in a one-chunk run whose fast path overflowed.
		for j, k := range kinds {
			partials := make([]*vec.Vector, len(parts))
			his := make([][]int64, len(parts))
			for ci, p := range parts {
				partials[ci], his[ci] = p.vecs[j], p.hi
			}
			if k == vec.AggSum {
				res[j], err = vec.MergeSums(partials, his, gidMaps, ngroups)
			} else if gidMaps == nil {
				res[j] = partials[0]
			} else {
				res[j], err = vec.MergeKeyedAggPartials(k, partials, gidMaps, ngroups)
			}
			if err != nil {
				return nil, err
			}
		}
		if gidMaps != nil {
			note = "merged"
		}
	}
	e.Trace.Emit("aggr."+a.Kind.String(), note)
	if a.Kind == vec.AggAvg {
		return avgOf(res[0], res[1]), nil
	}
	return res[0], nil
}

// blockingPairs returns a blocking aggregate's (global group, value) pairs:
// a lone chunk's as they are, else every chunk's concatenated in chunk order,
// which is row order, and deduplicated across chunks for DISTINCT — the
// one-chunk run's pairs, so its result bit for bit.
func blockingPairs(parts []aggPart, gidMaps [][]int32, distinct bool) ([]int32, *vec.Vector) {
	if gidMaps == nil {
		return parts[0].gids, parts[0].vecs[0]
	}
	var gids []int32
	vals := make([]*vec.Vector, len(parts))
	for ci, p := range parts {
		for _, g := range p.gids {
			gids = append(gids, gidMaps[ci][g])
		}
		vals[ci] = p.vecs[0]
	}
	if distinct {
		return dedupPerGroup(gids, vec.Concat(vals...))
	}
	return gids, vec.Concat(vals...)
}

// avgOf divides per-group sums by per-group counts, the one AVG formula: a
// serial AVG and a merged one see the same exact sum and equal bit for bit.
// A group without a non-NULL value averages to NULL.
func avgOf(sums, counts *vec.Vector) *vec.Vector {
	fs := vec.AsFloats(sums)
	out := vec.New(mtypes.Double, counts.Len())
	for g, c := range counts.I64 {
		if c == 0 {
			out.SetNull(g)
		} else {
			out.F64[g] = fs[g] / float64(c)
		}
	}
	return out
}
