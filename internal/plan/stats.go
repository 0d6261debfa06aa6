package plan

import (
	"math"
	"sort"

	"monetlite/internal/mtypes"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
)

// StatsProvider is the optional statistics side of Catalog: catalogs that can
// serve per-column statistics (row/null counts, ndv, min/max) implement it,
// and the optimizer type-asserts for it. Catalogs without stats — or snapshots
// with uncommitted local changes — simply don't provide them, and estimation
// falls back to fixed heuristic selectivities.
type StatsProvider interface {
	ColStats(table string, ci int) (storage.ColStats, bool)
}

// Heuristic fallback selectivities, used whenever column statistics are
// unavailable or a predicate shape is not recognized.
const (
	selFallbackEq      = 0.10
	selFallbackRange   = 1.0 / 3
	selFallbackLikePre = 0.05
	selFallbackLike    = 0.25
	selFallbackGeneric = 0.25
	selFloor           = 1e-5
)

// estimator carries the catalog (and its optional stats side) through one
// cardinality-estimation pass. Subtree estimates are memoized by node
// pointer, so repeated card() calls over a shared tree stay linear.
type estimator struct {
	cat  Catalog
	sp   StatsProvider // nil when cat has no stats
	memo map[Node]float64
}

func newEstimator(cat Catalog) *estimator {
	e := &estimator{cat: cat, memo: make(map[Node]float64)}
	if sp, ok := cat.(StatsProvider); ok {
		e.sp = sp
	}
	return e
}

// annotateEst stamps the optimizer's cardinality estimate on every Scan,
// Filter, Join and Aggregate in the final plan. The executor pairs these
// with actual row counts in the MAL trace (optimizer.cardinality), which is
// the raw material for plan-quality tests.
func annotateEst(cat Catalog, n Node) {
	est := newEstimator(cat)
	var walk func(Node)
	walk = func(n Node) {
		for _, c := range n.Children() {
			walk(c)
		}
		switch x := n.(type) {
		case *Scan:
			x.Est = estInt(est.card(x))
		case *Filter:
			x.Est = estInt(est.card(x))
		case *Join:
			x.Est = estInt(est.card(x))
		case *Aggregate:
			x.Est = estInt(est.card(x))
		}
	}
	walk(n)
}

// estInt rounds an estimate for display: at least 1, so an annotated node is
// distinguishable from an unannotated one (Est == 0).
func estInt(card float64) int64 {
	v := int64(math.Ceil(card))
	if v < 1 {
		v = 1
	}
	return v
}

// EstimateCard estimates the output row count of a plan subtree. It is the
// single cardinality model shared by join ordering, the Est annotations on
// plan nodes, and the estimator tests; estimates are always ≥ 0 and a scan's
// estimate never exceeds the table's row count.
func EstimateCard(cat Catalog, n Node) float64 {
	return newEstimator(cat).card(n)
}

func (est *estimator) card(n Node) float64 {
	if c, ok := est.memo[n]; ok {
		return c
	}
	c := est.cardUncached(n)
	est.memo[n] = c
	return c
}

func (est *estimator) cardUncached(n Node) float64 {
	switch x := n.(type) {
	case *Scan:
		rows := float64(est.cat.TableRows(x.Table))
		if len(x.Filters) == 0 {
			return rows
		}
		var sels []float64
		for _, f := range x.Filters {
			for _, c := range splitBoundConjuncts(f) {
				sels = append(sels, est.selOne(x, c))
			}
		}
		return clampCard(rows*dampedProduct(sels), rows)
	case *Filter:
		in := est.card(x.Input)
		var sels []float64
		for _, c := range splitBoundConjuncts(x.Pred) {
			sels = append(sels, est.selOne(x.Input, c))
		}
		return clampCard(in*dampedProduct(sels), in)
	case *Project:
		if x.Input == nil { // SELECT without FROM: one row
			return 1
		}
		return est.card(x.Input)
	case *Join:
		return est.joinCard(x)
	case *Aggregate:
		in := est.card(x.Input)
		if len(x.GroupBy) == 0 {
			return 1
		}
		groups := 1.0
		known := true
		for _, g := range x.GroupBy {
			cr, ok := g.(*ColRef)
			if !ok {
				known = false
				break
			}
			st, ok := est.statsForSlot(x.Input, cr.Slot)
			if !ok || st.NDV <= 0 {
				known = false
				break
			}
			groups *= float64(st.NDV)
		}
		if !known {
			groups = in / 10
		}
		return clampCard(groups, in)
	case *Distinct:
		return est.card(x.Input) / 2
	case *Sort:
		return est.card(x.Input)
	case *Window:
		return est.card(x.Input)
	case *Limit:
		return math.Min(est.card(x.Input), float64(x.N))
	case *TopN:
		return math.Min(est.card(x.Input), float64(x.N))
	}
	if ch := n.Children(); len(ch) == 1 {
		return est.card(ch[0])
	}
	return 1
}

func (est *estimator) joinCard(x *Join) float64 {
	l := est.card(x.Left)
	r := est.card(x.Right)
	switch x.Kind {
	case JoinSemi, JoinAnti:
		frac := 0.5
		if len(x.EquiL) > 0 {
			if ndvL, okL := est.exprNDV(x.Left, x.EquiL[0]); okL {
				if ndvR, okR := est.exprNDV(x.Right, x.EquiR[0]); okR && ndvL > 0 {
					frac = math.Min(1, float64(ndvR)/float64(ndvL))
				}
			}
		}
		if x.Kind == JoinAnti {
			frac = 1 - frac
		}
		return clampCard(l*frac, l)
	}
	// Inner/left: start from the cross product, apply one selectivity per
	// equi pair (damped — composite keys are correlated) plus the residual.
	var sels []float64
	for i := range x.EquiL {
		sels = append(sels, est.equiPairSel(x.Left, x.Right, x.EquiL[i], x.EquiR[i], l, r))
	}
	for _, c := range splitBoundConjuncts(x.Residual) {
		sels = append(sels, est.residualSel(x, c))
	}
	out := l * r * dampedProduct(sels)
	if x.Kind == JoinLeft && out < l {
		out = l // left join preserves every left row
	}
	if out < 0 {
		out = 0
	}
	return out
}

// residualSel estimates one conjunct of a join residual: a fixed guess,
// except for an inner join's OR from which the optimizer derived per-leaf
// filters (factorOr). Those filters already cut the join's inputs, so the OR
// is estimated given them — sel(OR) / Π sel(filter) — and the rows they
// remove are not counted twice.
func (est *estimator) residualSel(x *Join, c Expr) float64 {
	if x.Kind != JoinInner {
		return selFallbackGeneric
	}
	leaf := joinLeaves(x, nil)
	_, _, implied := factorOr(c, func(e Expr) map[int]bool {
		used := map[int]bool{}
		SlotsUsed(e, used)
		out := map[int]bool{}
		for s := range used {
			out[leaf[s]] = true
		}
		return out
	})
	if len(implied) == 0 {
		return selFallbackGeneric
	}
	s := est.selOne(x, c)
	for _, f := range implied {
		s /= est.selOne(x, f)
	}
	return clampSel(s)
}

// joinLeaves appends, for each output slot of n, the number of the leaf it
// comes from, where the leaves of an inner-join tree are its maximal inputs
// that are not inner joins themselves — the relations join ordering joined.
func joinLeaves(n Node, out []int) []int {
	if j, ok := n.(*Join); ok && j.Kind == JoinInner {
		return joinLeaves(j.Right, joinLeaves(j.Left, out))
	}
	id := 0
	if len(out) > 0 {
		id = out[len(out)-1] + 1
	}
	for range n.Schema() {
		out = append(out, id)
	}
	return out
}

// equiPairSel estimates the selectivity of one equi-join pair: 1/max(ndv)
// when both sides' distinct counts are known, else the primary-key/foreign-key
// default 1/max(rows) (which makes the join's output min(l, r)).
func (est *estimator) equiPairSel(left, right Node, el, er Expr, l, r float64) float64 {
	ndvL, okL := est.exprNDV(left, el)
	ndvR, okR := est.exprNDV(right, er)
	if okL && okR {
		m := ndvL
		if ndvR > m {
			m = ndvR
		}
		if m > 0 {
			return 1 / float64(m)
		}
	}
	m := math.Max(l, r)
	if m < 1 {
		m = 1
	}
	return 1 / m
}

// exprNDV returns the distinct count of a join-key expression when it is a
// plain column reference with statistics.
func (est *estimator) exprNDV(input Node, e Expr) (int64, bool) {
	cr, ok := e.(*ColRef)
	if !ok {
		return 0, false
	}
	st, ok := est.statsForSlot(input, cr.Slot)
	if !ok || st.NDV <= 0 {
		return 0, false
	}
	return st.NDV, true
}

// statsForSlot traces an output slot of a plan subtree back to the stored
// column that produced it (through filters, column-preserving projections,
// joins and group-by keys) and returns that column's statistics.
func (est *estimator) statsForSlot(n Node, slot int) (storage.ColStats, bool) {
	if est.sp == nil {
		return storage.ColStats{}, false
	}
	table, ci, ok := slotOrigin(n, slot)
	if !ok {
		return storage.ColStats{}, false
	}
	return est.sp.ColStats(table, ci)
}

func slotOrigin(n Node, slot int) (string, int, bool) {
	switch x := n.(type) {
	case *Scan:
		if slot >= 0 && slot < len(x.Cols) {
			return x.Table, x.Cols[slot], true
		}
	case *Filter:
		return slotOrigin(x.Input, slot)
	case *Project:
		if slot >= 0 && slot < len(x.Exprs) {
			if cr, ok := x.Exprs[slot].(*ColRef); ok {
				return slotOrigin(x.Input, cr.Slot)
			}
		}
	case *Join:
		if x.Kind == JoinSemi || x.Kind == JoinAnti {
			return slotOrigin(x.Left, slot)
		}
		nl := len(x.Left.Schema())
		if slot < nl {
			return slotOrigin(x.Left, slot)
		}
		return slotOrigin(x.Right, slot-nl)
	case *Aggregate:
		if slot >= 0 && slot < len(x.GroupBy) {
			if cr, ok := x.GroupBy[slot].(*ColRef); ok {
				return slotOrigin(x.Input, cr.Slot)
			}
		}
	case *Sort:
		return slotOrigin(x.Input, slot)
	case *Limit:
		return slotOrigin(x.Input, slot)
	case *TopN:
		return slotOrigin(x.Input, slot)
	case *Distinct:
		return slotOrigin(x.Input, slot)
	case *Window:
		if slot < len(x.Input.Schema()) {
			return slotOrigin(x.Input, slot)
		}
	}
	return "", 0, false
}

// ---------------------------------------------------------------------------
// Predicate selectivity.
// ---------------------------------------------------------------------------

// selOne estimates the selectivity of a single conjunct over input's schema.
// The result is always in [selFloor, 1].
func (est *estimator) selOne(input Node, e Expr) float64 {
	return clampSel(est.selRaw(input, e))
}

func (est *estimator) selRaw(input Node, e Expr) float64 {
	switch x := e.(type) {
	case *Const:
		if x.Val.Typ.Kind == mtypes.KBool && !x.Val.Null {
			if x.Val.I != 0 {
				return 1
			}
			return 0
		}
	case *NotExpr:
		return 1 - est.selOne(input, x.E)
	case *BinOp:
		switch x.Kind {
		case BinAnd:
			var sels []float64
			for _, c := range splitBoundConjuncts(x) {
				sels = append(sels, est.selOne(input, c))
			}
			return dampedProduct(sels)
		case BinOr:
			s1 := est.selOne(input, x.L)
			s2 := est.selOne(input, x.R)
			return s1 + s2 - s1*s2
		case BinCmp:
			return est.selCmp(input, x)
		}
	case *BetweenExpr:
		s := est.selRange(input, x.E, constOf(x.Lo), constOf(x.Hi))
		if x.Not {
			return 1 - s
		}
		return s
	case *InListExpr:
		s := selFallbackEq * float64(len(x.Vals))
		if st, ok := est.colStatsOf(input, x.E); ok && st.NDV > 0 {
			s = float64(len(x.Vals)) / float64(st.NDV)
		}
		if s > 1 {
			s = 1
		}
		if x.Not {
			return 1 - s
		}
		return s
	case *IsNullExpr:
		s := 0.02
		if st, ok := est.colStatsOf(input, x.E); ok && st.Rows > 0 {
			s = float64(st.NullCount) / float64(st.Rows)
		}
		if x.Not {
			return 1 - s
		}
		return s
	case *LikeExpr:
		s := selFallbackLike
		if prefix := likePrefix(x.Pattern); prefix != "" {
			s = selFallbackLikePre
		}
		if x.Not {
			return 1 - s
		}
		return s
	}
	return selFallbackGeneric
}

// selCmp estimates `lhs <op> rhs` where one side traces to a stored column
// and the other is a constant.
func (est *estimator) selCmp(input Node, x *BinOp) float64 {
	col, c, op, ok := cmpColConst(x)
	if !ok {
		return selFallbackGeneric
	}
	st, haveStats := est.colStatsOf(input, col)
	switch op {
	case vec.CmpEq:
		if haveStats {
			if outsideRange(st, c) {
				return selFloor
			}
			if st.NDV > 0 {
				return 1 / float64(st.NDV)
			}
		}
		return selFallbackEq
	case vec.CmpNe:
		if haveStats && st.NDV > 0 {
			return 1 - 1/float64(st.NDV)
		}
		return 1 - selFallbackEq
	case vec.CmpLt, vec.CmpLe:
		return est.rangeFraction(st, haveStats, nil, &c)
	case vec.CmpGt, vec.CmpGe:
		return est.rangeFraction(st, haveStats, &c, nil)
	}
	return selFallbackGeneric
}

// selRange estimates `e BETWEEN lo AND hi`.
func (est *estimator) selRange(input Node, e Expr, lo, hi *mtypes.Value) float64 {
	st, haveStats := est.colStatsOf(input, e)
	return est.rangeFraction(st, haveStats, lo, hi)
}

// rangeFraction interpolates the fraction of a column's [min, max] domain
// covered by [lo, hi] (either bound may be nil = unbounded on that side).
func (est *estimator) rangeFraction(st storage.ColStats, haveStats bool, lo, hi *mtypes.Value) float64 {
	if !haveStats || !st.HasRange || st.Min.Typ.Kind == mtypes.KVarchar {
		return selFallbackRange
	}
	mn := st.Min.AsFloat()
	mx := st.Max.AsFloat()
	if math.IsNaN(mn) || math.IsNaN(mx) {
		return selFallbackRange
	}
	width := mx - mn
	if width <= 0 {
		// Single-valued domain: either the bound covers it or it doesn't.
		v := mn
		if lo != nil && !(*lo).Null && (*lo).AsFloat() > v {
			return selFloor
		}
		if hi != nil && !(*hi).Null && (*hi).AsFloat() < v {
			return selFloor
		}
		return 1
	}
	loV, hiV := mn, mx
	if lo != nil && !(*lo).Null {
		loV = math.Max(loV, (*lo).AsFloat())
	}
	if hi != nil && !(*hi).Null {
		hiV = math.Min(hiV, (*hi).AsFloat())
	}
	if hiV < loV {
		return selFloor
	}
	frac := (hiV - loV) / width
	// A non-empty range touches at least one value group: pure interpolation
	// would estimate `c <= min(c)` as zero even though a full group matches.
	if st.NDV > 0 {
		frac = math.Max(frac, 1/float64(st.NDV))
	}
	return frac
}

// colStatsOf traces a (possibly cast-wrapped) column-reference expression to
// its stored column's statistics.
func (est *estimator) colStatsOf(input Node, e Expr) (storage.ColStats, bool) {
	for {
		if c, ok := e.(*CastExpr); ok {
			e = c.E
			continue
		}
		break
	}
	cr, ok := e.(*ColRef)
	if !ok {
		return storage.ColStats{}, false
	}
	return est.statsForSlot(input, cr.Slot)
}

// cmpColConst matches `col <op> const` (either orientation, the op flipped
// for the reversed form).
func cmpColConst(x *BinOp) (col Expr, c mtypes.Value, op vec.CmpOp, ok bool) {
	if cv := constOf(x.R); cv != nil && isColExpr(x.L) {
		return x.L, *cv, x.Cmp, true
	}
	if cv := constOf(x.L); cv != nil && isColExpr(x.R) {
		return x.R, *cv, x.Cmp.Flip(), true
	}
	return nil, mtypes.Value{}, 0, false
}

func isColExpr(e Expr) bool {
	for {
		if c, ok := e.(*CastExpr); ok {
			e = c.E
			continue
		}
		break
	}
	_, ok := e.(*ColRef)
	return ok
}

func constOf(e Expr) *mtypes.Value {
	if e == nil {
		return nil
	}
	if c, ok := e.(*Const); ok {
		return &c.Val
	}
	if IsConst(e) {
		if v, err := EvalRow(e, &EvalCtx{}); err == nil {
			return &v
		}
	}
	return nil
}

// outsideRange reports whether an equality constant falls outside the
// column's [min, max] domain (comparable kinds only).
func outsideRange(st storage.ColStats, c mtypes.Value) bool {
	if !st.HasRange || c.Null {
		return false
	}
	if st.Min.Typ.Kind == mtypes.KVarchar {
		if c.Typ.Kind != mtypes.KVarchar {
			return false
		}
		return c.S < st.Min.S || c.S > st.Max.S
	}
	v := c.AsFloat()
	if math.IsNaN(v) {
		return false
	}
	return v < st.Min.AsFloat() || v > st.Max.AsFloat()
}

// likePrefix returns the literal prefix of a LIKE pattern (up to the first
// wildcard); "" when the pattern starts with a wildcard.
func likePrefix(pat string) string {
	for i := 0; i < len(pat); i++ {
		if pat[i] == '%' || pat[i] == '_' {
			return pat[:i]
		}
	}
	return pat
}

// dampedProduct combines conjunct selectivities with exponential backoff
// (s0 · s1^1/2 · s2^1/4 · …, most selective first) — the standard correction
// for the independence assumption overestimating how much correlated
// predicates filter. Adding a conjunct never increases the result.
func dampedProduct(sels []float64) float64 {
	if len(sels) == 0 {
		return 1
	}
	sorted := make([]float64, len(sels))
	copy(sorted, sels)
	sort.Float64s(sorted)
	out := 1.0
	exp := 1.0
	for _, s := range sorted {
		out *= math.Pow(s, exp)
		exp /= 2
	}
	return out
}

func clampSel(s float64) float64 {
	if math.IsNaN(s) || s < selFloor {
		return selFloor
	}
	if s > 1 {
		return 1
	}
	return s
}

func clampCard(card, upper float64) float64 {
	if math.IsNaN(card) || card < 0 {
		return 0
	}
	if card > upper {
		return upper
	}
	return card
}
