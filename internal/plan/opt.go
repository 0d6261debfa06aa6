package plan

import (
	"reflect"
	"sort"

	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

// OptOpts tunes the optimizer. The zero value is the default (full
// cost-based optimization).
type OptOpts struct {
	// NoJoinReorder keeps the written join order (predicates are still
	// pushed down and attached). Used as the baseline in plan-quality tests.
	NoJoinReorder bool
}

// Optimize applies the relational-level optimizations the paper describes
// (§3.1): constant folding happened at bind time; this pass performs join
// ordering over cross-join regions, filter pushdown into scans, and
// projection pruning so scans only touch the columns a query needs (the
// column-store advantage the evaluation leans on).
func Optimize(cat Catalog, n Node) Node { return OptimizeWith(cat, n, OptOpts{}) }

// OptimizeWith is Optimize with explicit options.
func OptimizeWith(cat Catalog, n Node, opts OptOpts) Node {
	// Fuse first: the binder's Limit(Sort(…)) / Limit(Project(Sort(…)))
	// shapes are still intact here, and the later passes then see (and are
	// exercised on) the TopN node like any other operator.
	n = fuseTopN(n)
	n = optimizeJoins(cat, n, opts)
	n, _ = pruneNode(n, allRequired(len(n.Schema())))
	// Last, after pushdown has landed every single-table conjunct in its
	// scan: merge one-sided range pairs so imprints see both bounds at once.
	n = fuseScanRanges(n)
	// With shapes final, mark Window nodes whose input is already ordered
	// compatibly so they skip their physical sort.
	n = elideWindowSorts(n)
	// Stamp cardinality estimates on the final shapes; the executor traces
	// them against actuals (optimizer.cardinality in the MAL trace).
	annotateEst(cat, n)
	return n
}

func allRequired(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

// ---------------------------------------------------------------------------
// Join ordering + filter pushdown.
// ---------------------------------------------------------------------------

// optimizeJoins walks the plan; every maximal region of Filters, inner joins
// and semi/anti joins is re-planned: predicates are collected, single-relation
// conjuncts are pushed into scans, equi predicates drive the join-order
// enumeration (joinorder.go) and each semi/anti join is placed by placeSemis.
func optimizeJoins(cat Catalog, n Node, opts OptOpts) Node {
	switch x := n.(type) {
	case *Scan:
		return x
	case *Filter, *Join:
		return replanRegion(cat, n, opts)
	case *Project:
		x.Input = optimizeJoins(cat, x.Input, opts)
		return x
	case *Aggregate:
		x.Input = optimizeJoins(cat, x.Input, opts)
		return x
	case *Sort:
		x.Input = optimizeJoins(cat, x.Input, opts)
		return x
	case *Limit:
		x.Input = optimizeJoins(cat, x.Input, opts)
		return x
	case *TopN:
		x.Input = optimizeJoins(cat, x.Input, opts)
		return x
	case *Distinct:
		x.Input = optimizeJoins(cat, x.Input, opts)
		return x
	case *Window:
		x.Input = optimizeJoins(cat, x.Input, opts)
		return x
	default:
		return n
	}
}

// region is a flattened conjunction of relations and predicates.
type region struct {
	leaves []Node       // ordered; concatenated schemas form the region schema
	starts []int        // slot offset of each leaf in the region schema
	preds  []Expr       // over the region schema
	semis  []regionSemi // in written (innermost-first) order
}

// regionSemi is a semi/anti join flattened into a region. Its output schema
// is its left schema, so it is a row filter over region slots [offset,
// offset+nLeft) whose verdict depends only on those rows and its right input;
// it commutes with every predicate and inner join of the region.
type regionSemi struct {
	j      *Join // Right already optimized; Left is replaced on placement
	offset int   // region slot of the join's left slot 0
}

// leftSlots collects the region slots the join's left-side expressions use.
func (s regionSemi) leftSlots() map[int]bool {
	nLeft := len(s.j.Left.Schema())
	used := map[int]bool{}
	for _, e := range s.j.EquiL {
		SlotsUsed(e, used)
	}
	SlotsUsed(s.j.Residual, used)
	out := map[int]bool{}
	for slot := range used {
		if slot < nLeft {
			out[slot+s.offset] = true
		}
	}
	return out
}

// over re-homes the join on a new left input; place maps a region slot to its
// slot in left's schema.
func (s regionSemi) over(left Node, place func(regionSlot int) int) *Join {
	nLeft, nNew := len(s.j.Left.Schema()), len(left.Schema())
	j := &Join{Kind: s.j.Kind, Left: left, Right: s.j.Right, EquiR: s.j.EquiR}
	for _, e := range s.j.EquiL {
		j.EquiL = append(j.EquiL, MapSlots(e, func(slot int) int { return place(slot + s.offset) }))
	}
	j.Residual = MapSlots(s.j.Residual, func(slot int) int {
		if slot < nLeft {
			return place(slot + s.offset)
		}
		return nNew + slot - nLeft
	})
	return j
}

// collectRegion flattens Filters, INNER joins and semi/anti joins (whose
// subquery side is optimized as its own block). Left joins and everything
// else become leaves, their insides optimized recursively.
func collectRegion(cat Catalog, n Node, offset int, r *region, opts OptOpts) {
	switch x := n.(type) {
	case *Filter:
		collectRegion(cat, x.Input, offset, r, opts)
		for _, c := range splitBoundConjuncts(x.Pred) {
			r.preds = append(r.preds, MapSlots(c, func(s int) int { return s + offset }))
		}
		return
	case *Join:
		switch x.Kind {
		case JoinSemi, JoinAnti:
			collectRegion(cat, x.Left, offset, r, opts)
			x.Right = optimizeJoins(cat, x.Right, opts)
			r.semis = append(r.semis, regionSemi{j: x, offset: offset})
			return
		case JoinInner:
			nLeft := len(x.Left.Schema())
			collectRegion(cat, x.Left, offset, r, opts)
			collectRegion(cat, x.Right, offset+nLeft, r, opts)
			for i := range x.EquiL {
				l := MapSlots(x.EquiL[i], func(s int) int { return s + offset })
				rr := MapSlots(x.EquiR[i], func(s int) int { return s + offset + nLeft })
				r.preds = append(r.preds, &BinOp{Kind: BinCmp, Cmp: vec.CmpEq, L: l, R: rr, Typ: mtypes.Bool})
			}
			if x.Residual != nil {
				r.preds = append(r.preds, MapSlots(x.Residual, func(s int) int { return s + offset }))
			}
			return
		case JoinLeft:
			n = optimizeLeftJoin(cat, x, opts)
		}
	default:
		n = optimizeJoins(cat, n, opts)
	}
	r.leaves = append(r.leaves, n)
	r.starts = append(r.starts, offset)
}

// optimizeLeftJoin optimizes both inputs of a LEFT join as their own blocks.
// ON conjuncts that reference only the right input move into it as an
// ordinary Filter first: a right row failing one can never match, and a left
// row keeps its NULL-padded output either way, so the join is unchanged while
// the conjunct runs in the right input's (parallel, encoded) scan instead of
// over candidate pairs.
func optimizeLeftJoin(cat Catalog, j *Join, opts OptOpts) Node {
	nLeft := len(j.Left.Schema())
	var residual Expr
	for _, c := range splitBoundConjuncts(j.Residual) {
		used := map[int]bool{}
		SlotsUsed(c, used)
		rightOnly := len(used) > 0
		for s := range used {
			rightOnly = rightOnly && s >= nLeft
		}
		if rightOnly {
			j.Right = &Filter{Input: j.Right, Pred: MapSlots(c, func(s int) int { return s - nLeft })}
		} else {
			residual = andExpr(residual, c)
		}
	}
	j.Residual = residual
	j.Left = optimizeJoins(cat, j.Left, opts)
	j.Right = optimizeJoins(cat, j.Right, opts)
	return j
}

func replanRegion(cat Catalog, n Node, opts OptOpts) Node {
	r := &region{}
	collectRegion(cat, n, 0, r, opts)
	// OR predicates are factored: the part every branch shares (TPC-H Q19's
	// join condition) becomes separate conjuncts that can serve as equi edges
	// or be pushed down, and a per-leaf filter is added wherever every branch
	// constrains one leaf on its own (Q7's two nation names, Q19's part and
	// lineitem halves), so those leaves are cut before they are joined.
	var preds []Expr
	for _, p := range r.preds {
		common, rest, implied := factorOr(p, r.predLeaves)
		preds = append(preds, common...)
		if rest != nil {
			preds = append(preds, rest)
		}
		preds = append(preds, implied...)
	}
	r.preds = preds
	if len(r.leaves) == 1 {
		// No join ordering to do: push predicates, then filter by the
		// semi/anti joins in written order.
		out := attachPreds(r.leaves[0], r.preds)
		for _, s := range r.semis {
			out = s.over(out, func(slot int) int { return slot })
		}
		return out
	}
	return orderJoins(cat, n, r, opts)
}

// factorOr factors a WHERE-context predicate p that is an OR of conjunctions;
// leavesOf names the leaves (relations) a predicate reads. It returns
//
//   - common: the conjuncts every branch shares (structural equality),
//     hoisted out — (A ∧ B1) ∨ (A ∧ B2) becomes A ∧ (B1 ∨ B2);
//   - rest: the OR of what remains of the branches — p itself when nothing
//     was common, nil when a branch was exactly the common part (the OR then
//     adds nothing);
//   - implied: when rest reads two or more leaves, one filter per leaf L that
//     every branch of rest constrains on its own: OR over the branches of the
//     AND of the branch's conjuncts that read L alone, in the order the
//     leaves first appear in branch 0.
//
// common ∧ rest rejects exactly the rows p rejects under three-valued logic,
// and adding implied changes nothing: a row for which rest is TRUE has a TRUE
// branch, so that branch's L part, and with it L's implied filter, is TRUE
// too. rest therefore stays, as the join residual.
func factorOr(p Expr, leavesOf func(Expr) map[int]bool) (common []Expr, rest Expr, implied []Expr) {
	branches := splitOrBranches(p)
	if len(branches) < 2 {
		return nil, p, nil
	}
	conjs := make([][]Expr, len(branches))
	for i, b := range branches {
		conjs[i] = splitBoundConjuncts(b)
	}
	for _, c := range conjs[0] {
		inAll := true
		for _, other := range conjs[1:] {
			inAll = inAll && containsExpr(other, c)
		}
		if inAll {
			common = append(common, c)
		}
	}
	rest = p
	if len(common) > 0 {
		rest = nil
		for i, cs := range conjs {
			var kept []Expr
			for _, c := range cs {
				if !containsExpr(common, c) {
					kept = append(kept, c)
				}
			}
			if len(kept) == 0 {
				return common, nil, nil
			}
			conjs[i] = kept
		}
		for _, cs := range conjs {
			rest = orExpr(rest, andAll(cs))
		}
	}
	if len(leavesOf(rest)) < 2 {
		return common, rest, nil
	}
	onlyLeaf := func(c Expr) (int, bool) {
		ls := leavesOf(c)
		for l := range ls {
			return l, len(ls) == 1
		}
		return 0, false
	}
	seen := map[int]bool{}
	for _, c := range conjs[0] {
		leaf, ok := onlyLeaf(c)
		if !ok || seen[leaf] {
			continue
		}
		seen[leaf] = true
		var filter Expr
		for _, cs := range conjs {
			var part []Expr
			for _, c := range cs {
				if l, ok := onlyLeaf(c); ok && l == leaf {
					part = append(part, c)
				}
			}
			if part == nil {
				filter = nil
				break
			}
			filter = orExpr(filter, andAll(part))
		}
		if filter != nil {
			implied = append(implied, filter)
		}
	}
	return common, rest, implied
}

func containsExpr(list []Expr, e Expr) bool {
	for _, x := range list {
		if exprEqual(x, e) {
			return true
		}
	}
	return false
}

func andAll(cs []Expr) Expr {
	var out Expr
	for _, c := range cs {
		out = andExpr(out, c)
	}
	return out
}

func orExpr(a, b Expr) Expr {
	if a == nil {
		return b
	}
	return &BinOp{Kind: BinOr, L: a, R: b, Typ: mtypes.Bool}
}

func splitOrBranches(e Expr) []Expr {
	if bo, ok := e.(*BinOp); ok && bo.Kind == BinOr {
		return append(splitOrBranches(bo.L), splitOrBranches(bo.R)...)
	}
	return []Expr{e}
}

// attachPreds pushes predicates into a single leaf (scan filters when
// possible).
func attachPreds(leaf Node, preds []Expr) Node {
	out := leaf
	if sc, ok := leaf.(*Scan); ok {
		sc.Filters = append(sc.Filters, preds...)
		return sc
	}
	for _, p := range preds {
		out = &Filter{Input: out, Pred: p}
	}
	return out
}

// leafOf returns which leaf a region slot belongs to plus its local slot.
func (r *region) leafOf(slot int) (int, int) {
	i := sort.Search(len(r.starts), func(k int) bool { return r.starts[k] > slot }) - 1
	return i, slot - r.starts[i]
}

// predLeaves returns the set of leaves a predicate touches.
func (r *region) predLeaves(p Expr) map[int]bool {
	used := map[int]bool{}
	SlotsUsed(p, used)
	leaves := map[int]bool{}
	for s := range used {
		l, _ := r.leafOf(s)
		leaves[l] = true
	}
	return leaves
}

// orderJoins builds a left-deep join tree over the region: leaf
// cardinalities come from the shared estimator (EstimateCard), equi
// predicates between leaf pairs become selectivity-weighted graph edges, and
// chooseJoinOrder (exact DP up to dpMaxLeaves relations, cost-greedy above)
// picks the sequence. The region's semi/anti joins are placed by placeSemis:
// at one leaf, or on top of the finished tree. The output is wrapped in a
// Project restoring the region's original slot order so parents are
// unaffected.
func orderJoins(cat Catalog, orig Node, r *region, opts OptOpts) Node {
	nLeaves := len(r.leaves)
	// Assign single-leaf predicates to their leaf.
	leafPreds := make([][]Expr, nLeaves)
	var joinPreds []Expr
	for _, p := range r.preds {
		ls := r.predLeaves(p)
		if len(ls) == 1 {
			for l := range ls {
				leafPreds[l] = append(leafPreds[l], p)
			}
		} else {
			joinPreds = append(joinPreds, p)
		}
	}
	// Push single-leaf predicates (remapped to leaf-local slots).
	est := newEstimator(cat)
	leaves := make([]Node, nLeaves)
	g := newJoinGraph(make([]float64, nLeaves))
	for i, leaf := range r.leaves {
		var local []Expr
		for _, p := range leafPreds[i] {
			local = append(local, MapSlots(p, func(s int) int { return s - r.starts[i] }))
		}
		leaves[i] = attachPreds(leaf, local)
		g.cards[i] = est.card(leaves[i])
	}
	// Two-leaf equi predicates become graph edges weighted by the estimated
	// key selectivity (1/max ndv, PK-FK fallback).
	for _, p := range joinPreds {
		if !isEquiPred(p) {
			continue
		}
		ls := r.predLeaves(p)
		if len(ls) != 2 {
			continue
		}
		var ab []int
		for l := range ls {
			ab = append(ab, l)
		}
		sort.Ints(ab)
		a, b := ab[0], ab[1]
		bo := p.(*BinOp)
		ea, eb := bo.L, bo.R
		if la := r.predLeaves(ea); !la[a] {
			ea, eb = eb, ea
		}
		localA := MapSlots(ea, func(s int) int { return s - r.starts[a] })
		localB := MapSlots(eb, func(s int) int { return s - r.starts[b] })
		g.addEdge(a, b, est.equiPairSel(leaves[a], leaves[b], localA, localB, g.cards[a], g.cards[b]))
	}

	topSemis := r.semis
	if !opts.NoJoinReorder {
		topSemis = placeSemis(est, r, leaves, g)
	}
	perm := chooseJoinOrder(g)
	if opts.NoJoinReorder {
		perm = identityPerm(nLeaves)
	}

	done := make([]bool, nLeaves)
	usedPred := make([]bool, len(joinPreds))
	// newPos[leaf] = slot offset of the leaf in the built plan.
	newPos := make([]int, nLeaves)

	start := perm[0]
	cur := leaves[start]
	done[start] = true
	newPos[start] = 0
	curWidth := len(leaves[start].Schema())

	remapGlobal := func(p Expr) Expr {
		return MapSlots(p, func(s int) int {
			l, local := r.leafOf(s)
			return newPos[l] + local
		})
	}

	for count := 1; count < nLeaves; count++ {
		next := perm[count]
		rightNode := leaves[next]
		nRight := len(rightNode.Schema())
		newPos[next] = curWidth
		done[next] = true

		j := &Join{Kind: JoinInner, Left: cur, Right: rightNode}
		// Attach all now-satisfiable predicates.
		for pi, p := range joinPreds {
			if usedPred[pi] {
				continue
			}
			ready := true
			touchesNext := false
			for l := range r.predLeaves(p) {
				if !done[l] {
					ready = false
					break
				}
				if l == next {
					touchesNext = true
				}
			}
			if !ready {
				continue
			}
			usedPred[pi] = true
			mapped := remapGlobal(p)
			if touchesNext {
				if le, re, ok := equiSides(mapped, curWidth, curWidth+nRight); ok {
					j.EquiL = append(j.EquiL, le)
					j.EquiR = append(j.EquiR, re)
					continue
				}
			}
			j.Residual = andExpr(j.Residual, mapped)
		}
		cur = j
		curWidth += nRight
	}
	// Any stragglers (e.g. preds whose leaves were all in the first leaf).
	for pi, p := range joinPreds {
		if !usedPred[pi] {
			cur = &Filter{Input: cur, Pred: remapGlobal(p)}
		}
	}
	for _, s := range topSemis {
		cur = s.over(cur, func(slot int) int {
			l, local := r.leafOf(slot)
			return newPos[l] + local
		})
	}
	// Restore the original slot order for parent nodes.
	origSchema := orig.Schema()
	exprs := make([]Expr, len(origSchema))
	out := make(Schema, len(origSchema))
	curSchema := cur.Schema()
	for s := 0; s < len(origSchema); s++ {
		l, local := r.leafOf(s)
		ns := newPos[l] + local
		exprs[s] = &ColRef{Slot: ns, Typ: curSchema[ns].Typ, Name: curSchema[ns].Name}
		out[s] = origSchema[s]
	}
	return &Project{Input: cur, Exprs: exprs, Out: out}
}

// placeSemis decides where each of the region's semi/anti joins runs. A semi
// join whose left-side references all come from one leaf may filter that leaf
// before it is joined, and does when the estimator says either
//
//   - its subquery side is smaller than the leaf: at most that many of the
//     leaf's keys survive, so every join above shrinks with it (TPC-H Q18:
//     the IN subquery cuts orders before lineitem is joined), or
//   - the leaf is no larger than the region's join result: probing it there
//     costs no more than probing on top.
//
// Otherwise it stays on top of the join tree, where the region's other
// predicates have left fewer rows to probe with (Q21: l1 is some 40x the join
// result its EXISTS filters, and the EXISTS side is all of lineitem). Anti
// joins always stay on top: theirs is a strong filter only when the subquery
// side is large, which is also when it is expensive. Placed joins wrap their
// leaf (leaves and g.cards are updated); the rest are returned in written
// order.
func placeSemis(est *estimator, r *region, leaves []Node, g *joinGraph) (top []regionSemi) {
	topCard := g.cardOfSet(uint(1)<<len(leaves) - 1)
	for _, s := range r.semis {
		leaf := -1
		for slot := range s.leftSlots() {
			l, _ := r.leafOf(slot)
			if leaf >= 0 && l != leaf {
				leaf = -1
				break
			}
			leaf = l
		}
		if leaf < 0 || s.j.Kind != JoinSemi ||
			(est.card(s.j.Right) >= g.cards[leaf] && g.cards[leaf] > topCard) {
			top = append(top, s)
			continue
		}
		start := r.starts[leaf]
		leaves[leaf] = s.over(leaves[leaf], func(slot int) int { return slot - start })
		g.cards[leaf] = est.card(leaves[leaf])
	}
	return top
}

func isEquiPred(p Expr) bool {
	bo, ok := p.(*BinOp)
	return ok && bo.Kind == BinCmp && bo.Cmp == vec.CmpEq
}

// ---------------------------------------------------------------------------
// Projection pruning.
// ---------------------------------------------------------------------------

// pruneNode trims unused columns bottom-up. It returns the new node plus the
// mapping old-slot -> new-slot for the node's output schema.
func pruneNode(n Node, required []bool) (Node, map[int]int) {
	switch x := n.(type) {
	case *Scan:
		// Filters count as required.
		req := append([]bool(nil), required...)
		for _, f := range x.Filters {
			used := map[int]bool{}
			SlotsUsed(f, used)
			for s := range used {
				req[s] = true
			}
		}
		m := map[int]int{}
		var cols []int
		var out Schema
		for i, r := range req {
			if r {
				m[i] = len(cols)
				cols = append(cols, x.Cols[i])
				out = append(out, x.Out[i])
			}
		}
		if len(cols) == 0 { // keep at least one column for row counting
			m[0] = 0
			cols = []int{x.Cols[0]}
			out = Schema{x.Out[0]}
		}
		filters := make([]Expr, len(x.Filters))
		for i, f := range x.Filters {
			filters[i] = MapSlots(f, func(s int) int { return m[s] })
		}
		return &Scan{Table: x.Table, Cols: cols, Out: out, Filters: filters}, m
	case *Filter:
		req := append([]bool(nil), required...)
		used := map[int]bool{}
		SlotsUsed(x.Pred, used)
		for s := range used {
			req[s] = true
		}
		in, m := pruneNode(x.Input, req)
		return &Filter{Input: in, Pred: mapExprSlots(x.Pred, m)}, m
	case *Project:
		var childReq []bool // a Project without FROM has no input
		if x.Input != nil {
			childReq = make([]bool, len(x.Input.Schema()))
		}
		var exprs []Expr
		var out Schema
		m := map[int]int{}
		for i, e := range x.Exprs {
			if !required[i] {
				continue
			}
			used := map[int]bool{}
			SlotsUsed(e, used)
			for s := range used {
				childReq[s] = true
			}
			m[i] = len(exprs)
			exprs = append(exprs, e)
			out = append(out, x.Out[i])
		}
		if len(exprs) == 0 && len(x.Exprs) > 0 {
			m[0] = 0
			exprs = append(exprs, x.Exprs[0])
			out = append(out, x.Out[0])
			used := map[int]bool{}
			SlotsUsed(x.Exprs[0], used)
			for s := range used {
				childReq[s] = true
			}
		}
		if x.Input == nil {
			return &Project{Input: nil, Exprs: exprs, Out: out}, m
		}
		in, cm := pruneNode(x.Input, childReq)
		for i := range exprs {
			exprs[i] = mapExprSlots(exprs[i], cm)
		}
		return &Project{Input: in, Exprs: exprs, Out: out}, m
	case *Join:
		nL := len(x.Left.Schema())
		leftReq := make([]bool, nL)
		var rightReq []bool
		if x.Kind == JoinSemi || x.Kind == JoinAnti {
			copy(leftReq, required)
			rightReq = make([]bool, len(x.Right.Schema()))
		} else {
			rightReq = make([]bool, len(x.Right.Schema()))
			for s, r := range required {
				if s < nL {
					leftReq[s] = leftReq[s] || r
				} else {
					rightReq[s-nL] = rightReq[s-nL] || r
				}
			}
		}
		mark := func(e Expr, left bool) {
			used := map[int]bool{}
			SlotsUsed(e, used)
			for s := range used {
				if left {
					leftReq[s] = true
				} else {
					rightReq[s] = true
				}
			}
		}
		for i := range x.EquiL {
			mark(x.EquiL[i], true)
			mark(x.EquiR[i], false)
		}
		if x.Residual != nil {
			used := map[int]bool{}
			SlotsUsed(x.Residual, used)
			for s := range used {
				if s < nL {
					leftReq[s] = true
				} else {
					rightReq[s-nL] = true
				}
			}
		}
		lIn, lm := pruneNode(x.Left, leftReq)
		rIn, rm := pruneNode(x.Right, rightReq)
		nlNew := len(lIn.Schema())
		j := &Join{Kind: x.Kind, Left: lIn, Right: rIn}
		for i := range x.EquiL {
			j.EquiL = append(j.EquiL, mapExprSlots(x.EquiL[i], lm))
			j.EquiR = append(j.EquiR, mapExprSlots(x.EquiR[i], rm))
		}
		if x.Residual != nil {
			j.Residual = MapSlots(x.Residual, func(s int) int {
				if s < nL {
					return lm[s]
				}
				return nlNew + rm[s-nL]
			})
		}
		m := map[int]int{}
		for s, ns := range lm {
			m[s] = ns
		}
		if x.Kind != JoinSemi && x.Kind != JoinAnti {
			for s, ns := range rm {
				m[nL+s] = nlNew + ns
			}
		}
		return j, m
	case *Aggregate:
		childReq := make([]bool, len(x.Input.Schema()))
		for _, g := range x.GroupBy {
			used := map[int]bool{}
			SlotsUsed(g, used)
			for s := range used {
				childReq[s] = true
			}
		}
		for _, a := range x.Aggs {
			if a.Arg != nil {
				used := map[int]bool{}
				SlotsUsed(a.Arg, used)
				for s := range used {
					childReq[s] = true
				}
			}
		}
		if len(x.GroupBy) == 0 && len(x.Aggs) > 0 {
			// COUNT(*)-only aggregates still need one column to count.
			any := false
			for _, r := range childReq {
				any = any || r
			}
			if !any && len(childReq) > 0 {
				childReq[0] = true
			}
		}
		in, cm := pruneNode(x.Input, childReq)
		agg := &Aggregate{Input: in, Names: x.Names}
		for _, g := range x.GroupBy {
			agg.GroupBy = append(agg.GroupBy, mapExprSlots(g, cm))
		}
		for _, a := range x.Aggs {
			na := a
			if a.Arg != nil {
				na.Arg = mapExprSlots(a.Arg, cm)
			}
			agg.Aggs = append(agg.Aggs, na)
		}
		return agg, identityMap(len(agg.Schema()))
	case *Sort:
		req := append([]bool(nil), required...)
		for _, k := range x.Keys {
			used := map[int]bool{}
			SlotsUsed(k.E, used)
			for s := range used {
				req[s] = true
			}
		}
		in, m := pruneNode(x.Input, req)
		keys := make([]SortSpec, len(x.Keys))
		for i, k := range x.Keys {
			keys[i] = SortSpec{E: mapExprSlots(k.E, m), Desc: k.Desc}
		}
		return &Sort{Input: in, Keys: keys}, m
	case *Limit:
		in, m := pruneNode(x.Input, required)
		return &Limit{Input: in, N: x.N, Offset: x.Offset}, m
	case *TopN:
		req := append([]bool(nil), required...)
		for _, k := range x.Keys {
			used := map[int]bool{}
			SlotsUsed(k.E, used)
			for s := range used {
				req[s] = true
			}
		}
		in, m := pruneNode(x.Input, req)
		keys := make([]SortSpec, len(x.Keys))
		for i, k := range x.Keys {
			keys[i] = SortSpec{E: mapExprSlots(k.E, m), Desc: k.Desc}
		}
		return &TopN{Input: in, Keys: keys, N: x.N, Offset: x.Offset}, m
	case *Distinct:
		// Distinct compares whole rows: everything is required.
		in, m := pruneNode(x.Input, allRequired(len(x.Input.Schema())))
		return &Distinct{Input: in}, m
	case *Window:
		// Window passes every input column through, and its expressions may
		// hold AggRefs (which SlotsUsed does not track), so the input keeps
		// all columns — pruning still applies below the aggregate/join inputs.
		in, m := pruneNode(x.Input, allRequired(len(x.Input.Schema())))
		w := &Window{Input: in, SortFree: x.SortFree}
		for _, pe := range x.PartitionBy {
			w.PartitionBy = append(w.PartitionBy, mapExprSlots(pe, m))
		}
		for _, k := range x.OrderBy {
			w.OrderBy = append(w.OrderBy, SortSpec{E: mapExprSlots(k.E, m), Desc: k.Desc})
		}
		for _, c := range x.Calls {
			nc := c
			if c.Arg != nil {
				nc.Arg = mapExprSlots(c.Arg, m)
			}
			if c.Default != nil {
				nc.Default = mapExprSlots(c.Default, m)
			}
			w.Calls = append(w.Calls, nc)
		}
		return w, identityMap(len(w.Schema()))
	default:
		return n, identityMap(len(n.Schema()))
	}
}

// ---------------------------------------------------------------------------
// Top-N fusion.
// ---------------------------------------------------------------------------

// fuseTopN rewrites Limit(Sort(…)) — and Limit(Project(Sort(…))), the shape
// the binder emits when ORDER BY references hidden sort columns, since a
// Project is row-preserving and commutes with Limit — into a single TopN
// node. Only real LIMIT clauses fuse (N < NoLimit): an OFFSET-only query
// would make the bounded heap as large as the input, which is just a slower
// full sort.
func fuseTopN(n Node) Node {
	switch x := n.(type) {
	case *Limit:
		x.Input = fuseTopN(x.Input)
		if x.N >= NoLimit {
			return x
		}
		if s, ok := x.Input.(*Sort); ok {
			return &TopN{Input: s.Input, Keys: s.Keys, N: x.N, Offset: x.Offset}
		}
		if p, ok := x.Input.(*Project); ok && p.Input != nil {
			if s, ok := p.Input.(*Sort); ok {
				p.Input = &TopN{Input: s.Input, Keys: s.Keys, N: x.N, Offset: x.Offset}
				return p
			}
		}
		return x
	case *Filter:
		x.Input = fuseTopN(x.Input)
	case *Project:
		if x.Input != nil {
			x.Input = fuseTopN(x.Input)
		}
	case *Join:
		x.Left = fuseTopN(x.Left)
		x.Right = fuseTopN(x.Right)
	case *Aggregate:
		x.Input = fuseTopN(x.Input)
	case *Sort:
		x.Input = fuseTopN(x.Input)
	case *TopN:
		x.Input = fuseTopN(x.Input)
	case *Distinct:
		x.Input = fuseTopN(x.Input)
	case *Window:
		x.Input = fuseTopN(x.Input)
	}
	return n
}

// ---------------------------------------------------------------------------
// Range-conjunct fusion.
// ---------------------------------------------------------------------------

// fuseScanRanges walks the plan and fuses each scan's pushed-down filters.
func fuseScanRanges(n Node) Node {
	switch x := n.(type) {
	case *Scan:
		x.Filters = fuseRangeConjuncts(x.Filters)
	case *Filter:
		x.Input = fuseScanRanges(x.Input)
	case *Project:
		if x.Input != nil {
			x.Input = fuseScanRanges(x.Input)
		}
	case *Join:
		x.Left = fuseScanRanges(x.Left)
		x.Right = fuseScanRanges(x.Right)
	case *Aggregate:
		x.Input = fuseScanRanges(x.Input)
	case *Sort:
		x.Input = fuseScanRanges(x.Input)
	case *TopN:
		x.Input = fuseScanRanges(x.Input)
	case *Limit:
		x.Input = fuseScanRanges(x.Input)
	case *Distinct:
		x.Input = fuseScanRanges(x.Input)
	case *Window:
		x.Input = fuseScanRanges(x.Input)
	}
	return n
}

// ---------------------------------------------------------------------------
// Window sort elision.
// ---------------------------------------------------------------------------

// elideWindowSorts marks Window nodes whose input is already ordered
// compatibly, so execution skips the physical sort. Compatible means the
// input's known ordering starts with the window's partition expressions (in
// either direction — partitions only need to be contiguous, and window
// results are written back by input position, so inter-partition order is
// irrelevant) followed by exactly the window's order keys. A stable sort of
// input already ordered that way is the identity permutation, so skipping it
// is bit-identical to performing it.
func elideWindowSorts(n Node) Node {
	for _, c := range n.Children() {
		elideWindowSorts(c)
	}
	if w, ok := n.(*Window); ok {
		if ord := knownOrdering(w.Input); windowOrderSubsumed(w, ord) {
			w.SortFree = true
		}
	}
	// Recurse into scalar subplans too (cheap completeness).
	return n
}

// knownOrdering returns the sort keys a node's output is known to be ordered
// by, or nil. Filter/Limit/Window preserve relative row order and schema
// prefixes, so the ordering passes through them.
func knownOrdering(n Node) []SortSpec {
	switch x := n.(type) {
	case *Sort:
		return x.Keys
	case *TopN:
		return x.Keys
	case *Filter:
		return knownOrdering(x.Input)
	case *Limit:
		return knownOrdering(x.Input)
	case *Window:
		return knownOrdering(x.Input)
	default:
		return nil
	}
}

// windowOrderSubsumed reports whether ord begins with w's partition
// expressions (any direction) followed by w's order keys (exact direction).
func windowOrderSubsumed(w *Window, ord []SortSpec) bool {
	need := len(w.PartitionBy) + len(w.OrderBy)
	if need == 0 || len(ord) < need {
		return false
	}
	for i, pe := range w.PartitionBy {
		if !exprEqual(ord[i].E, pe) {
			return false
		}
	}
	for j, k := range w.OrderBy {
		o := ord[len(w.PartitionBy)+j]
		if o.Desc != k.Desc || !exprEqual(o.E, k.E) {
			return false
		}
	}
	return true
}

// exprEqual compares bound expressions structurally, ignoring display names
// on column references (a sort key bound through an alias must still match).
func exprEqual(a, b Expr) bool {
	if ca, ok := a.(*ColRef); ok {
		if cb, ok := b.(*ColRef); ok {
			return ca.Slot == cb.Slot && ca.Typ == cb.Typ
		}
		return false
	}
	return reflect.DeepEqual(a, b)
}

// colConstBound recognizes a one-sided comparison between a bare column and a
// constant (either operand order), normalized to column-on-the-left form.
func colConstBound(f Expr) (cr *ColRef, op vec.CmpOp, c *Const, ok bool) {
	bo, isCmp := f.(*BinOp)
	if !isCmp || bo.Kind != BinCmp {
		return nil, 0, nil, false
	}
	if cl, okL := bo.L.(*ColRef); okL {
		if cc, okR := bo.R.(*Const); okR {
			return cl, bo.Cmp, cc, true
		}
	}
	if cr, okR := bo.R.(*ColRef); okR {
		if cc, okL := bo.L.(*Const); okL {
			return cr, bo.Cmp.Flip(), cc, true
		}
	}
	return nil, 0, nil, false
}

// fuseRangeConjuncts merges a lower-bound conjunct (col > / >= const) with an
// upper-bound conjunct (col < / <= const) over the same column into a single
// BetweenExpr (half-open via LoExcl/HiExcl), so the executor runs one range
// selection — and one imprints probe — instead of two one-sided selections
// intersected. The fused node takes the earlier conjunct's position;
// everything unpaired keeps its place and order. Semantics are unchanged:
// the conjunction and the range agree on every input including NULLs (both
// reject them) and inverted bounds (both select nothing).
func fuseRangeConjuncts(filters []Expr) []Expr {
	if len(filters) < 2 {
		return filters
	}
	type bound struct {
		cr *ColRef
		op vec.CmpOp
		c  *Const
	}
	bounds := make([]*bound, len(filters))
	for i, f := range filters {
		if cr, op, c, ok := colConstBound(f); ok {
			bounds[i] = &bound{cr: cr, op: op, c: c}
		}
	}
	used := make([]bool, len(filters))
	out := make([]Expr, 0, len(filters))
	for i, f := range filters {
		if used[i] {
			continue
		}
		b := bounds[i]
		if b == nil || (b.op != vec.CmpGt && b.op != vec.CmpGe && b.op != vec.CmpLt && b.op != vec.CmpLe) {
			out = append(out, f)
			continue
		}
		lower := b.op == vec.CmpGt || b.op == vec.CmpGe
		fused := false
		for j := i + 1; j < len(filters); j++ {
			p := bounds[j]
			if used[j] || p == nil || p.cr.Slot != b.cr.Slot {
				continue
			}
			pLower := p.op == vec.CmpGt || p.op == vec.CmpGe
			pUpper := p.op == vec.CmpLt || p.op == vec.CmpLe
			if (!pLower && !pUpper) || pLower == lower {
				// Equality/inequality conjuncts are not range bounds, and
				// same-direction bounds don't pair.
				continue
			}
			lo, hi := b, p
			if !lower {
				lo, hi = p, b
			}
			out = append(out, &BetweenExpr{
				E:      &ColRef{Slot: b.cr.Slot, Typ: b.cr.Typ, Name: b.cr.Name},
				Lo:     lo.c,
				Hi:     hi.c,
				LoExcl: lo.op == vec.CmpGt,
				HiExcl: hi.op == vec.CmpLt,
			})
			used[j] = true
			fused = true
			break
		}
		if !fused {
			out = append(out, f)
		}
	}
	return out
}

func identityMap(n int) map[int]int {
	m := make(map[int]int, n)
	for i := 0; i < n; i++ {
		m[i] = i
	}
	return m
}

// mapExprSlots remaps ColRefs and recursively prunes subplans.
func mapExprSlots(e Expr, m map[int]int) Expr {
	out := MapSlots(e, func(s int) int {
		if ns, ok := m[s]; ok {
			return ns
		}
		return s
	})
	return out
}
