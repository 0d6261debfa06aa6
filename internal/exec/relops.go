package exec

import (
	"fmt"
	"math"
	"sort"

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
// left row), so their output does not depend on the choice. A semi/anti join
// returns a selection view of its left input: the surviving rows are gathered
// at the next pipeline breaker, like a filter's.
func (e *Engine) execJoin(x *plan.Join) (*batch, error) {
	left, err := e.exec(x.Left)
	if err != nil {
		return nil, err
	}
	right, err := e.exec(x.Right)
	if err != nil {
		return nil, err
	}
	// Join build and probe are pipeline breakers: pair lists address rows
	// positionally, so selection views materialize here, once.
	left, right = e.materialize(left), e.materialize(right)
	memoL, memoR := newMemo(e), newMemo(e)
	lKeys := make([]*vec.Vector, len(x.EquiL))
	rKeys := make([]*vec.Vector, len(x.EquiR))
	for i := range x.EquiL {
		if lKeys[i], err = memoL.evalVec(x.EquiL[i], left); err != nil {
			return nil, err
		}
		if rKeys[i], err = memoR.evalVec(x.EquiR[i], right); err != nil {
			return nil, err
		}
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
		return newSelBatch(left.cols, keep), nil
	}

	// Candidate pairs by key equality (every pair when there are no keys),
	// then the residual over exactly those pairs.
	var lsel, rsel []int32
	switch {
	case len(x.EquiL) == 0:
		e.Trace.Emit("algebra.crossproduct")
		lsel, rsel, err = e.crossPairs(left.n, right.n)
	case buildLeft:
		jp := e.buildJoinTable(lKeys, left.n, right.n, "build=left")
		rsel, lsel, err = jp.probe(rKeys, right.n)
	default:
		jp := e.buildJoinTable(rKeys, right.n, left.n, "build=right")
		lsel, rsel, err = jp.probe(lKeys, left.n)
	}
	if err != nil {
		return nil, err
	}
	if x.Residual != nil {
		if lsel, rsel, err = e.filterPairs(x.Residual, left, right, lsel, rsel); err != nil {
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
		return newSelBatch(left.cols, markedRows(matched, left.n, !anti)), nil
	case x.Kind == plan.JoinLeft:
		e.Trace.Emit("algebra.leftjoin")
		lsel, rsel = outerPairs(left.n, lsel, rsel)
	}
	return joinGather(left, right, lsel, rsel, x.Kind == plan.JoinLeft)
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
// Parallel partitioned probe (mitosis for hash joins).
// ---------------------------------------------------------------------------

// joinProber wraps the build-side hash table together with the probe-side
// chunk plan. With one chunk it is the old serial path verbatim; with more,
// the table is radix-partitioned (parallel contention-free build) and probe
// chunks run on worker goroutines, their pair lists concatenated in chunk
// order — bit-identical output either way, which the differential tests
// exploit.
type joinProber struct {
	e   *Engine
	tbl vec.JoinTable
	cp  mal.ChunkPlan
}

// buildJoinTable builds the join hash table over the build-side keys, picking
// the partitioned parallel form when the probe side is big enough for
// mal.MitosisJoin to split it.
func (e *Engine) buildJoinTable(buildKeys []*vec.Vector, buildN, probeN int, label string) *joinProber {
	cp := mal.ChunkPlan{Chunks: 1, Rows: probeN}
	if e.Parallel {
		cp = mal.MitosisJoin(probeN, buildN, e.MaxThreads)
		if e.testJoinChunkRows > 0 && probeN > e.testJoinChunkRows {
			cp = mal.ChunkPlan{
				Chunks: (probeN + e.testJoinChunkRows - 1) / e.testJoinChunkRows,
				Rows:   e.testJoinChunkRows,
			}
		}
	}
	if cp.Chunks <= 1 {
		ht := vec.BuildHash(buildKeys, nil)
		e.Trace.Emit("algebra.hashjoin", label, fmt.Sprintf("%d keys", ht.Len()))
		return &joinProber{e: e, tbl: ht, cp: cp}
	}
	workers := e.workerBudget()
	parts := vec.JoinPartitions(workers)
	pt := vec.BuildHashPartitioned(buildKeys, nil, parts, workers)
	e.Trace.EmitVoid("optimizer.mitosis", fmt.Sprintf("%d probe chunks (join)", cp.Chunks))
	e.Trace.Emit("algebra.hashjoin", label,
		fmt.Sprintf("partitioned %d parts", parts), fmt.Sprintf("%d keys", pt.Len()))
	return &joinProber{e: e, tbl: pt, cp: cp}
}

// forChunks fans the probe side out over the chunk plan: each worker gets its
// chunk index, first row and slice of the key vectors.
//
// Cancellation: a worker that starts after the query was cancelled skips its
// probe, and the coordinator re-checks after the barrier — a partial result
// must never be mistaken for an (empty) join result.
func (jp *joinProber) forChunks(keys []*vec.Vector, n int, probe func(ci, lo int, keys []*vec.Vector)) error {
	jp.e.runTasks(jp.cp.Chunks, func(ci int) {
		if jp.e.checkInterrupt() != nil {
			return
		}
		lo, hi := jp.cp.Bounds(ci, n)
		if lo >= hi {
			return
		}
		sliced := make([]*vec.Vector, len(keys))
		for i, k := range keys {
			sliced[i] = k.Slice(lo, hi)
		}
		probe(ci, lo, sliced)
	})
	return jp.e.checkInterrupt()
}

// probeChunks runs a pair-list probe per chunk, rebases the emitted probe
// rows and concatenates the pair lists in chunk order.
func (jp *joinProber) probeChunks(keys []*vec.Vector, n int,
	probe func(vec.JoinTable, []*vec.Vector) ([]int32, []int32)) ([]int32, []int32, error) {
	type pairs struct{ p, b []int32 }
	outs := make([]pairs, jp.cp.Chunks)
	err := jp.forChunks(keys, n, func(ci, lo int, sliced []*vec.Vector) {
		p, b := probe(jp.tbl, sliced)
		for i := range p {
			p[i] += int32(lo)
		}
		outs[ci] = pairs{p, b}
	})
	if err != nil {
		return nil, nil, err
	}
	total := 0
	for ci := range outs {
		total += len(outs[ci].p)
	}
	pSel := make([]int32, 0, total)
	var bSel []int32
	if outs[0].b != nil || total == 0 {
		bSel = make([]int32, 0, total)
	}
	for ci := range outs {
		pSel = append(pSel, outs[ci].p...)
		if bSel != nil {
			bSel = append(bSel, outs[ci].b...)
		}
	}
	return pSel, bSel, nil
}

// probe computes inner-join pairs (probe rows, build rows).
func (jp *joinProber) probe(keys []*vec.Vector, n int) ([]int32, []int32, error) {
	if jp.cp.Chunks <= 1 {
		p, b := jp.tbl.Probe(keys, nil)
		return p, b, nil
	}
	return jp.probeChunks(keys, n, func(t vec.JoinTable, ks []*vec.Vector) ([]int32, []int32) {
		return t.Probe(ks, nil)
	})
}

// probeSemi computes the kept probe rows of a semi (anti=false) or anti join.
func (jp *joinProber) probeSemi(keys []*vec.Vector, n int, anti bool) ([]int32, error) {
	if jp.cp.Chunks <= 1 {
		return jp.tbl.ProbeSemi(keys, nil, anti), nil
	}
	keep, _, err := jp.probeChunks(keys, n, func(t vec.JoinTable, ks []*vec.Vector) ([]int32, []int32) {
		return t.ProbeSemi(ks, nil, anti), nil
	})
	return keep, err
}

// probeMark marks the build rows (of buildN) matched by any probe row. Chunk
// workers mark private bitmaps, OR-ed together after the barrier.
func (jp *joinProber) probeMark(keys []*vec.Vector, n, buildN int) (vec.Bitmap, error) {
	marks := vec.NewBitmap(buildN)
	if jp.cp.Chunks <= 1 {
		jp.tbl.ProbeMark(keys, nil, marks)
		return marks, nil
	}
	parts := make([]vec.Bitmap, jp.cp.Chunks)
	err := jp.forChunks(keys, n, func(ci, _ int, sliced []*vec.Vector) {
		parts[ci] = vec.NewBitmap(buildN)
		jp.tbl.ProbeMark(sliced, nil, parts[ci])
	})
	if err != nil {
		return nil, err
	}
	for _, part := range parts {
		if part != nil {
			marks.Or(part)
		}
	}
	return marks, nil
}

// filterPairs keeps the candidate join pairs satisfying the residual
// predicate, compacting the pair lists in place. Only the columns the
// predicate references are gathered at the pairs.
func (e *Engine) filterPairs(residual plan.Expr, left, right *batch, lsel, rsel []int32) ([]int32, []int32, error) {
	used := map[int]bool{}
	plan.SlotsUsed(residual, used)
	if lsel == nil {
		// nil means "no pairs" here — never "all rows" (vec.Gather's nil).
		lsel, rsel = []int32{}, []int32{}
	}
	nl := len(left.cols)
	pairs := &batch{cols: make([]*vec.Vector, nl+len(right.cols)), n: len(lsel)}
	for s := range used {
		if s < nl {
			pairs.cols[s] = vec.Gather(left.cols[s], lsel)
		} else {
			pairs.cols[s] = vec.Gather(right.cols[s-nl], rsel)
		}
	}
	bv, err := newMemo(e).evalVec(residual, pairs)
	if err != nil {
		return nil, nil, err
	}
	k := 0
	for i, ok := range bv.I8 {
		if ok == 1 {
			lsel[k], rsel[k] = lsel[i], rsel[i]
			k++
		}
	}
	return lsel[:k], rsel[:k], nil
}

// checkPairCount guards the join output size: selection vectors address rows
// with int32, so a pair list beyond MaxInt32 would silently truncate row ids
// in downstream operators. Kept separate from joinGather so the guard is
// testable without allocating gigabytes of pairs.
func checkPairCount(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("exec: join produces %d rows, beyond the %d-row selection-vector limit", n, math.MaxInt32)
	}
	return nil
}

// joinGather materializes the pair lists into a combined batch. With outer,
// rsel entries of -1 (left outer non-matches) become NULLs.
func joinGather(left, right *batch, lsel, rsel []int32, outer bool) (*batch, error) {
	if err := checkPairCount(len(lsel)); err != nil {
		return nil, err
	}
	// nil means "no pairs" here — never "all rows" (vec.Gather's nil).
	if lsel == nil {
		lsel, rsel = []int32{}, []int32{}
	}
	gatherRight := vec.Gather
	if outer {
		gatherRight = vec.GatherOuter
	}
	out := make([]*vec.Vector, 0, len(left.cols)+len(right.cols))
	for _, c := range left.cols {
		out = append(out, vec.Gather(c, lsel))
	}
	for _, c := range right.cols {
		out = append(out, gatherRight(c, rsel))
	}
	b := newBatch(out)
	b.n = len(lsel)
	return b, nil
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

func (e *Engine) execAggregate(x *plan.Aggregate) (*batch, error) {
	// Mitosis fast paths: aggregates directly over a scan run the
	// parallelizable prefix (scan, selection, map) per chunk and merge
	// partials before the blocking final step (paper Figure 2). Global
	// aggregates merge aligned partials; grouped aggregates build per-chunk
	// hash tables and merge keyed partials.
	if e.Parallel {
		if scan, ok := x.Input.(*plan.Scan); ok {
			if len(x.GroupBy) == 0 {
				if b, handled, err := e.parallelGlobalAgg(x, scan); handled {
					return b, err
				}
			} else {
				if b, handled, err := e.parallelGroupedAgg(x, scan); handled {
					return b, err
				}
				if b, handled, err := e.parallelDistinctGroupedAgg(x, scan); handled {
					return b, err
				}
			}
		}
	}
	in, err := e.exec(x.Input)
	if err != nil {
		return nil, err
	}
	return e.aggregateBatch(x, in)
}

func (e *Engine) aggregateBatch(x *plan.Aggregate, in *batch) (*batch, error) {
	memo := newMemo(e)
	var gids []int32
	ngroups := 1
	var reprs []int32
	if len(x.GroupBy) > 0 {
		width := in.n
		if len(in.cols) > 0 {
			width = in.cols[0].Len()
		}
		keys := make([]*vec.Vector, len(x.GroupBy))
		// Dictionary-coded varchar keys group on their integer codes: the
		// sorted dictionary makes codes↔strings a bijection, so group ids,
		// counts and first-appearance order are identical to grouping on the
		// strings — only the representatives are decoded, after grouping.
		dictKeys := make([]*vec.Encoded, len(x.GroupBy))
		nDict := 0
		for i, g := range x.GroupBy {
			if cr, ok := g.(*plan.ColRef); ok && in.enc != nil && cr.Slot < len(in.enc) {
				if en := in.enc[cr.Slot]; en != nil && en.Enc == vec.EncDict {
					keys[i] = en.CodesI32(0, width, in.sel)
					dictKeys[i] = en
					nDict++
					continue
				}
			}
			kv, err := memo.evalVec(g, in)
			if err != nil {
				return nil, err
			}
			keys[i] = kv
		}
		gids, ngroups, reprs = vec.GroupBy(keys, nil)
		if nDict > 0 {
			e.Trace.Emit("group.group", fmt.Sprintf("%d keys -> %d groups", len(keys), ngroups),
				fmt.Sprintf("%d dict codes", nDict))
		} else {
			e.Trace.Emit("group.group", fmt.Sprintf("%d keys -> %d groups", len(keys), ngroups))
		}
		out := make([]*vec.Vector, 0, len(x.GroupBy)+len(x.Aggs))
		for i, kv := range keys {
			g := vec.Gather(kv, reprs)
			if dictKeys[i] != nil {
				g = dictKeys[i].DecodeCodes(g)
			}
			out = append(out, g)
		}
		aggCols, err := e.computeAggs(x, in, memo, gids, ngroups)
		if err != nil {
			return nil, err
		}
		return newBatch(append(out, aggCols...)), nil
	}
	// Global aggregate: single group. SQL semantics: aggregates over an
	// empty input still produce one row.
	gids = make([]int32, in.n)
	aggCols, err := e.computeAggs(x, in, memo, gids, ngroups)
	if err != nil {
		return nil, err
	}
	return newBatch(aggCols), nil
}

func (e *Engine) computeAggs(x *plan.Aggregate, in *batch, memo *memo, gids []int32, ngroups int) ([]*vec.Vector, error) {
	out := make([]*vec.Vector, len(x.Aggs))
	for ai, a := range x.Aggs {
		var vals *vec.Vector
		var err error
		if a.Arg != nil {
			vals, err = memo.evalVec(a.Arg, in)
			if err != nil {
				return nil, err
			}
		}
		g, v := gids, vals
		if a.Distinct && a.Arg != nil {
			g, v = dedupPerGroup(gids, vals)
		}
		e.Trace.Emit("aggr."+a.Kind.String(), a.Name)
		res, err := vec.Aggregate(a.Kind, v, g, ngroups)
		if err != nil {
			return nil, err
		}
		out[ai] = res
	}
	return out, nil
}

// dedupPerGroup filters (gid, value) pairs to distinct values per group
// (COUNT(DISTINCT x) and friends).
func dedupPerGroup(gids []int32, vals *vec.Vector) ([]int32, *vec.Vector) {
	type key struct {
		g int32
		v string
	}
	seen := map[key]bool{}
	outG := make([]int32, 0, len(gids))
	keep := make([]int32, 0, len(gids))
	for i, g := range gids {
		k := key{g, vals.Value(i).String()}
		if seen[k] {
			continue
		}
		seen[k] = true
		outG = append(outG, g)
		keep = append(keep, int32(i))
	}
	return outG, vec.Gather(vals, keep)
}

// parallelGlobalAgg runs SELECT agg(expr) FROM t WHERE ... with mitosis:
// chunked scan + map + partial aggregation, then a serial merge. AVG is
// decomposed into SUM+COUNT; MEDIAN keeps per-chunk value vectors and runs
// the blocking median after the merge.
func (e *Engine) parallelGlobalAgg(x *plan.Aggregate, scan *plan.Scan) (*batch, bool, error) {
	for _, a := range x.Aggs {
		if a.Distinct {
			// DISTINCT needs a global dedup before aggregating: per-chunk
			// partials would recount values shared across chunks. Fall back
			// to the serial path (dedupPerGroup), like the grouped pipeline.
			return nil, false, nil
		}
	}
	src, ok := e.Cat.Source(scan.Table)
	if !ok {
		return nil, true, fmt.Errorf("exec: no such table %q", scan.Table)
	}
	nrows := src.NumRows()
	cp := mal.Mitosis(nrows, 8*len(scan.Cols), e.MaxThreads)
	if cp.Chunks <= 1 {
		return nil, false, nil
	}
	e.Trace.EmitVoid("optimizer.mitosis", fmt.Sprintf("%d chunks", cp.Chunks))
	skip0, tot0 := e.imprintsCounters()

	type chunkOut struct {
		partials []*vec.Vector // per agg: partial vector (1 group) or raw values for median
		count    int64
		err      error
	}
	outs := make([]chunkOut, cp.Chunks)
	e.runTasks(cp.Chunks, func(ci int) {
		ce := e.chunkEngine()
		// Worker-start interrupt check: a filterless scan never reaches
		// scanRange's per-conjunct check, so cancellation surfaces here.
		if err := ce.checkInterrupt(); err != nil {
			outs[ci] = chunkOut{err: err}
			return
		}
		lo, hi := cp.Bounds(ci, nrows)
		cands, cols, err := ce.scanRange(scan, src, lo, hi)
		if err != nil {
			outs[ci] = chunkOut{err: err}
			return
		}
		// Selection view: aggregate arguments are evaluated densely over
		// the survivors; non-referenced columns are never gathered.
		cb := newSelBatch(cols, cands)
		memo := newMemo(ce)
		co := chunkOut{partials: make([]*vec.Vector, len(x.Aggs))}
		co.count = int64(cb.n)
		for ai, a := range x.Aggs {
			var vals *vec.Vector
			if a.Arg != nil {
				vals, err = memo.evalVec(a.Arg, cb)
				if err != nil {
					outs[ci] = chunkOut{err: err}
					return
				}
			}
			switch a.Kind {
			case vec.AggMedian:
				co.partials[ai] = vals // blocking: merge raw values
			case vec.AggAvg:
				// Decompose AVG into SUM and COUNT partials (merged
				// serially after the parallel phase).
				sum, err := vec.Aggregate(vec.AggSum, vals, make([]int32, cb.n), 1)
				if err != nil {
					outs[ci] = chunkOut{err: err}
					return
				}
				cnt, _ := vec.Aggregate(vec.AggCount, vals, make([]int32, cb.n), 1)
				co.partials[ai] = sumCountPair(sum, cnt)
			default:
				gd := make([]int32, cb.n)
				p, err := vec.Aggregate(a.Kind, vals, gd, 1)
				if err != nil {
					outs[ci] = chunkOut{err: err}
					return
				}
				co.partials[ai] = p
			}
		}
		outs[ci] = co
	})
	for _, o := range outs {
		if o.err != nil {
			return nil, true, o.err
		}
	}
	e.emitImprintsDelta(skip0, tot0)
	// Merge phase (blocking ops run here).
	result := make([]*vec.Vector, len(x.Aggs))
	for ai, a := range x.Aggs {
		switch a.Kind {
		case vec.AggMedian:
			pieces := make([]*vec.Vector, cp.Chunks)
			for ci := range outs {
				pieces[ci] = outs[ci].partials[ai]
			}
			allVals := vec.Concat(pieces...)
			e.Trace.Emit("aggr.MEDIAN", "blocking")
			m, err := vec.Aggregate(vec.AggMedian, allVals, make([]int32, allVals.Len()), 1)
			if err != nil {
				return nil, true, err
			}
			result[ai] = m
		case vec.AggAvg:
			var sum, cnt float64
			init := false
			for ci := range outs {
				p := outs[ci].partials[ai]
				if !p.IsNull(0) {
					sum += p.F64[0]
					init = true
				}
				cnt += p.F64[1]
			}
			out := vec.New(mtypes.Double, 1)
			if !init || cnt == 0 {
				out.SetNull(0)
			} else {
				out.F64[0] = sum / cnt
			}
			e.Trace.Emit("aggr.AVG", "merged")
			result[ai] = out
		case vec.AggCountStar:
			out := vec.New(mtypes.BigInt, 1)
			for ci := range outs {
				out.I64[0] += outs[ci].count
			}
			result[ai] = out
		default:
			pieces := make([]*vec.Vector, cp.Chunks)
			for ci := range outs {
				pieces[ci] = outs[ci].partials[ai]
			}
			merged, err := vec.MergeAggPartials(a.Kind, pieces, 1)
			if err != nil {
				return nil, true, err
			}
			e.Trace.Emit("aggr."+a.Kind.String(), "merged")
			result[ai] = merged
		}
	}
	return newBatch(result), true, nil
}

// parallelGroupedAgg runs SELECT keys, agg(expr) FROM t WHERE ... GROUP BY
// keys with mitosis: each chunk scans, filters, evaluates the key and
// argument expressions and builds its own hash-aggregated partial (local
// group table + partial aggregate vectors). The merge phase re-groups the
// chunks' key representatives into global groups and folds the keyed
// partials (vec.MergeKeyedAggPartials). AVG is decomposed into SUM+COUNT
// partials; MEDIAN (blocking) and DISTINCT aggregates fall back to the
// serial path. Returns handled=false when the plan shape or chunking
// heuristics rule parallelism out.
func (e *Engine) parallelGroupedAgg(x *plan.Aggregate, scan *plan.Scan) (*batch, bool, error) {
	for _, a := range x.Aggs {
		if a.Kind == vec.AggMedian || a.Distinct {
			return nil, false, nil
		}
	}
	src, ok := e.Cat.Source(scan.Table)
	if !ok {
		return nil, true, fmt.Errorf("exec: no such table %q", scan.Table)
	}
	nrows := src.NumRows()
	cp := mal.MitosisGrouped(nrows, 8*len(scan.Cols), e.MaxThreads)
	if cp.Chunks <= 1 {
		return nil, false, nil
	}
	e.Trace.EmitVoid("optimizer.mitosis", fmt.Sprintf("%d chunks (grouped)", cp.Chunks))
	skip0, tot0 := e.imprintsCounters()

	// Dictionary-coded varchar keys group on integer codes in every chunk;
	// the same dictionary backs all chunks, so the merge phase concatenates
	// and re-groups code vectors directly and decodes only the final
	// representatives (see aggregateBatch).
	dictKeys := make([]*vec.Encoded, len(x.GroupBy))
	nDict := 0
	for i, g := range x.GroupBy {
		if cr, ok := g.(*plan.ColRef); ok {
			// en.N >= nrows: a dictionary that stops short of the visible rows
			// (unmerged append-delta) cannot produce codes for the tail.
			if en := src.EncodedCol(scan.Cols[cr.Slot]); en != nil && en.Enc == vec.EncDict && en.N >= nrows {
				dictKeys[i] = en
				nDict++
			}
		}
	}

	type chunkOut struct {
		keys     []*vec.Vector   // key columns at the chunk's group representatives
		partials [][]*vec.Vector // per agg: one partial, or [SUM, COUNT] for AVG
		ngroups  int
		err      error
	}
	outs := make([]chunkOut, cp.Chunks)
	e.runTasks(cp.Chunks, func(ci int) {
		ce := e.chunkEngine()
		// Worker-start interrupt check (see parallelGlobalAgg).
		if err := ce.checkInterrupt(); err != nil {
			outs[ci] = chunkOut{err: err}
			return
		}
		lo, hi := cp.Bounds(ci, nrows)
		cands, cols, err := ce.scanRange(scan, src, lo, hi)
		if err != nil {
			outs[ci] = chunkOut{err: err}
			return
		}
		// Selection view: keys and aggregate arguments are evaluated
		// densely over the survivors (see parallelGlobalAgg).
		cb := newSelBatch(cols, cands)
		memo := newMemo(ce)
		keys := make([]*vec.Vector, len(x.GroupBy))
		for i, g := range x.GroupBy {
			if dictKeys[i] != nil {
				keys[i] = dictKeys[i].CodesI32(lo, hi, cands)
				continue
			}
			if keys[i], err = memo.evalVec(g, cb); err != nil {
				outs[ci] = chunkOut{err: err}
				return
			}
		}
		gids, ngroups, reprs := vec.GroupBy(keys, nil)
		co := chunkOut{
			keys:     make([]*vec.Vector, len(keys)),
			partials: make([][]*vec.Vector, len(x.Aggs)),
			ngroups:  ngroups,
		}
		for i, kv := range keys {
			co.keys[i] = vec.Gather(kv, reprs)
		}
		for ai, a := range x.Aggs {
			var vals *vec.Vector
			if a.Arg != nil {
				if vals, err = memo.evalVec(a.Arg, cb); err != nil {
					outs[ci] = chunkOut{err: err}
					return
				}
			}
			if a.Kind == vec.AggAvg {
				sum, err := vec.Aggregate(vec.AggSum, vals, gids, ngroups)
				if err != nil {
					outs[ci] = chunkOut{err: err}
					return
				}
				cnt, err := vec.Aggregate(vec.AggCount, vals, gids, ngroups)
				if err != nil {
					outs[ci] = chunkOut{err: err}
					return
				}
				co.partials[ai] = []*vec.Vector{sum, cnt}
				continue
			}
			p, err := vec.Aggregate(a.Kind, vals, gids, ngroups)
			if err != nil {
				outs[ci] = chunkOut{err: err}
				return
			}
			co.partials[ai] = []*vec.Vector{p}
		}
		outs[ci] = co
	})
	for _, o := range outs {
		if o.err != nil {
			return nil, true, o.err
		}
	}
	e.emitImprintsDelta(skip0, tot0)

	// Merge phase: re-group the concatenated chunk representatives to map
	// every chunk-local group onto a global group id.
	allKeys := make([]*vec.Vector, len(x.GroupBy))
	for i := range allKeys {
		pieces := make([]*vec.Vector, cp.Chunks)
		for ci := range outs {
			pieces[ci] = outs[ci].keys[i]
		}
		allKeys[i] = vec.Concat(pieces...)
	}
	gGids, ngroups, gReprs := vec.GroupBy(allKeys, nil)
	gidMaps := make([][]int32, cp.Chunks)
	off := 0
	for ci := range outs {
		gidMaps[ci] = gGids[off : off+outs[ci].ngroups]
		off += outs[ci].ngroups
	}
	if nDict > 0 {
		e.Trace.Emit("group.group", fmt.Sprintf("%d keys -> %d groups (parallel merge)", len(allKeys), ngroups),
			fmt.Sprintf("%d dict codes", nDict))
	} else {
		e.Trace.Emit("group.group", fmt.Sprintf("%d keys -> %d groups (parallel merge)", len(allKeys), ngroups))
	}

	outCols := make([]*vec.Vector, 0, len(allKeys)+len(x.Aggs))
	for i, kv := range allKeys {
		g := vec.Gather(kv, gReprs)
		if dictKeys[i] != nil {
			g = dictKeys[i].DecodeCodes(g)
		}
		outCols = append(outCols, g)
	}
	collect := func(ai, j int) []*vec.Vector {
		ps := make([]*vec.Vector, cp.Chunks)
		for ci := range outs {
			ps[ci] = outs[ci].partials[ai][j]
		}
		return ps
	}
	for ai, a := range x.Aggs {
		if a.Kind == vec.AggAvg {
			sums, err := vec.MergeKeyedAggPartials(vec.AggSum, collect(ai, 0), gidMaps, ngroups)
			if err != nil {
				return nil, true, err
			}
			cnts, err := vec.MergeKeyedAggPartials(vec.AggCount, collect(ai, 1), gidMaps, ngroups)
			if err != nil {
				return nil, true, err
			}
			fs := vec.AsFloats(sums)
			avg := vec.New(mtypes.Double, ngroups)
			for g := 0; g < ngroups; g++ {
				if cnts.I64[g] == 0 {
					avg.SetNull(g)
				} else {
					avg.F64[g] = fs[g] / float64(cnts.I64[g])
				}
			}
			e.Trace.Emit("aggr.AVG", "merged")
			outCols = append(outCols, avg)
			continue
		}
		merged, err := vec.MergeKeyedAggPartials(a.Kind, collect(ai, 0), gidMaps, ngroups)
		if err != nil {
			return nil, true, err
		}
		e.Trace.Emit("aggr."+a.Kind.String(), "merged")
		outCols = append(outCols, merged)
	}
	return newBatch(outCols), true, nil
}

// parallelDistinctGroupedAgg parallelizes GROUP BY queries that contain
// DISTINCT aggregates. Range-chunked mitosis cannot handle these — a value
// appearing in two chunks would be counted twice and per-chunk distinct sets
// don't merge — so this path partitions rows by the group-key hash instead:
// every row of a group lands in the same partition, each worker runs the
// full serial group+dedup+aggregate pipeline on its partition, and the merge
// is a pure concatenation (group sets are disjoint across partitions).
// Restoring first-appearance group order — sorting merged groups on their
// global first row position — makes the output bit-identical to the serial
// path. MEDIAN still falls back to serial (blocking, unrelated to DISTINCT).
func (e *Engine) parallelDistinctGroupedAgg(x *plan.Aggregate, scan *plan.Scan) (*batch, bool, error) {
	anyDistinct := false
	for _, a := range x.Aggs {
		if a.Kind == vec.AggMedian {
			return nil, false, nil
		}
		if a.Distinct {
			anyDistinct = true
		}
	}
	if !anyDistinct {
		return nil, false, nil
	}
	src, ok := e.Cat.Source(scan.Table)
	if !ok {
		return nil, true, fmt.Errorf("exec: no such table %q", scan.Table)
	}
	nrows := src.NumRows()
	cp := mal.MitosisGrouped(nrows, 8*len(scan.Cols), e.MaxThreads)
	if cp.Chunks <= 1 {
		return nil, false, nil
	}
	nparts := cp.Chunks

	// Phase 1 (serial): scan, filter, and evaluate the key and argument
	// expressions densely over the survivors. Dict-coded varchar keys group
	// on their codes, exactly like the other grouped paths.
	cands, cols, err := e.scanRange(scan, src, 0, nrows)
	if err != nil {
		return nil, true, err
	}
	cb := newSelBatch(cols, cands)
	memo := newMemo(e)
	dictKeys := make([]*vec.Encoded, len(x.GroupBy))
	keys := make([]*vec.Vector, len(x.GroupBy))
	for i, g := range x.GroupBy {
		if cr, ok := g.(*plan.ColRef); ok {
			if en := src.EncodedCol(scan.Cols[cr.Slot]); en != nil && en.Enc == vec.EncDict && en.N >= nrows {
				keys[i] = en.CodesI32(0, nrows, cands)
				dictKeys[i] = en
				continue
			}
		}
		if keys[i], err = memo.evalVec(g, cb); err != nil {
			return nil, true, err
		}
	}
	vals := make([]*vec.Vector, len(x.Aggs))
	for ai, a := range x.Aggs {
		if a.Arg == nil {
			continue
		}
		if vals[ai], err = memo.evalVec(a.Arg, cb); err != nil {
			return nil, true, err
		}
	}

	// Partition dense rows by the fused group-key hash (the same hash
	// GroupBy buckets on), so equal keys always co-locate.
	hashes := vec.KeyHashes(keys, nil)
	partRows := make([][]int32, nparts)
	for i, h := range hashes {
		p := int(h % uint64(nparts))
		partRows[p] = append(partRows[p], int32(i))
	}
	e.Trace.EmitVoid("optimizer.mitosis", fmt.Sprintf("%d partitions (parallel distinct)", nparts))

	// Phase 2 (parallel): each partition is a complete, self-contained
	// serial aggregation — group, dedup per group, aggregate.
	type partOut struct {
		keys     []*vec.Vector // key columns at the partition's group reprs
		aggs     []*vec.Vector // finished aggregates per group
		firstPos []int32       // global dense position of each group's first row
		ngroups  int
		err      error
	}
	outs := make([]partOut, nparts)
	e.runTasks(nparts, func(pi int) {
		ce := e.chunkEngine()
		if err := ce.checkInterrupt(); err != nil {
			outs[pi] = partOut{err: err}
			return
		}
		rows := partRows[pi]
		pkeys := make([]*vec.Vector, len(keys))
		for i, kv := range keys {
			pkeys[i] = vec.Gather(kv, rows)
		}
		gids, ngroups, reprs := vec.GroupBy(pkeys, nil)
		po := partOut{
			keys:     make([]*vec.Vector, len(pkeys)),
			aggs:     make([]*vec.Vector, len(x.Aggs)),
			firstPos: make([]int32, ngroups),
			ngroups:  ngroups,
		}
		for i, kv := range pkeys {
			po.keys[i] = vec.Gather(kv, reprs)
		}
		for g, r := range reprs {
			po.firstPos[g] = rows[r]
		}
		for ai, a := range x.Aggs {
			var v *vec.Vector
			if a.Arg != nil {
				v = vec.Gather(vals[ai], rows)
			}
			g2, v2 := gids, v
			if a.Distinct && a.Arg != nil {
				g2, v2 = dedupPerGroup(gids, v)
			}
			res, err := vec.Aggregate(a.Kind, v2, g2, ngroups)
			if err != nil {
				outs[pi] = partOut{err: err}
				return
			}
			po.aggs[ai] = res
		}
		outs[pi] = po
	})
	total := 0
	for _, o := range outs {
		if o.err != nil {
			return nil, true, o.err
		}
		total += o.ngroups
	}

	// Merge: concatenate the disjoint group sets, then permute into global
	// first-appearance order so the result matches the serial path exactly.
	firstPos := make([]int32, 0, total)
	for _, o := range outs {
		firstPos = append(firstPos, o.firstPos...)
	}
	perm := make([]int32, total)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool { return firstPos[perm[a]] < firstPos[perm[b]] })
	e.Trace.Emit("group.group", fmt.Sprintf("%d keys -> %d groups (parallel distinct)", len(keys), total))

	outCols := make([]*vec.Vector, 0, len(keys)+len(x.Aggs))
	for i := range keys {
		pieces := make([]*vec.Vector, nparts)
		for pi := range outs {
			pieces[pi] = outs[pi].keys[i]
		}
		g := vec.Gather(vec.Concat(pieces...), perm)
		if dictKeys[i] != nil {
			g = dictKeys[i].DecodeCodes(g)
		}
		outCols = append(outCols, g)
	}
	for ai, a := range x.Aggs {
		pieces := make([]*vec.Vector, nparts)
		for pi := range outs {
			pieces[pi] = outs[pi].aggs[ai]
		}
		e.Trace.Emit("aggr."+a.Kind.String(), a.Name, "merged (parallel distinct)")
		outCols = append(outCols, vec.Gather(vec.Concat(pieces...), perm))
	}
	return newBatch(outCols), true, nil
}

// sumCountPair packs a 1-row SUM partial and COUNT partial into a 2-row
// vector [sumAsDouble, count] used by the AVG merge.
func sumCountPair(sum, cnt *vec.Vector) *vec.Vector {
	out := vec.New(mtypes.Double, 2)
	if sum.IsNull(0) {
		out.SetNull(0)
	} else {
		out.F64[0] = vec.AsFloats(sum)[0]
	}
	out.F64[1] = float64(cnt.I64[0])
	return out
}
