package exec

import (
	"fmt"
	"slices"
	"sync/atomic"

	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
	"monetlite/internal/vec"
)

// Sideways information passing (semi-join reduction, the one-hop form of
// predicate transfer): a join runs the input estimated smaller first, turns
// its keys into a vec.KeyFilter, and hands that filter to the scan that
// produces the other input's key, as one more conjunct of that scan. The
// scan then drops the rows no build key matches before its costlier
// conjuncts run and before the join probes them.
//
// Where it may go: down the other input through Filters and Projects (which
// remap the key's slot) to the scan, on one integer key column (a composite
// key's match needs a match on each column). Every join kind may filter its
// right input: right rows without a key among the left's never pair, match
// or spoil an anti join. Only inner and semi joins may filter their left
// input; a left outer or anti join outputs left rows that match nothing.
//
// When it is declined, by counts alone: the build is not small against the
// scanned table; the probe side would save nothing, its scan repeating the
// probe's own key test row for row; the key range is too wide for a key
// filter; or a strided sample of the scanned key column shows that the keys
// keep most of its rows.

// sidewaysMode overrides the runtime guard in every engine, for tests in
// other packages (ForceSideways); an engine's testSideways overrides it.
var sidewaysMode atomic.Int32

// ForceSideways sets how every engine decides sideways filtering until the
// returned function restores the previous setting. It is a test hook: mode
// < 0 never filters, > 0 filters wherever a join kind and a scan allow it
// (guards off), 0 leaves the decision to the runtime guard.
func ForceSideways(mode int) (restore func()) {
	old := sidewaysMode.Swap(int32(mode))
	return func() { sidewaysMode.Store(old) }
}

// sidewaysSample is how many rows of the scanned key column the coverage
// guard tests.
const sidewaysSample = 1024

// sidewaysFilter is a join's build keys as a scan conjunct: TRUE where the
// scan's column at slot holds one of the keys. Chunk workers count the rows
// it tests and keeps, which the join traces.
type sidewaysFilter struct {
	scan         *plan.Scan
	slot         int
	keys         *vec.KeyFilter
	filters      []plan.Expr // the scan's conjuncts with this one, in the order they run
	tested, kept atomic.Int64
}

// Type makes the filter a plan.Expr: a BOOLEAN conjunct.
func (*sidewaysFilter) Type() mtypes.Type { return mtypes.Bool }

// sidewaysPlan is what a join decides about sideways filtering before it
// runs its inputs: the input to run first and, unless reason is set, the
// key column (key) and the other input's scan and slot the filter goes to.
type sidewaysPlan struct {
	first  int // 0: the left input runs first, 1: the right
	key    int
	scan   *plan.Scan
	slot   int
	work   bool // the other input does more per row than test the key: see keyScan
	reason string
}

// mode returns the engine's sideways override (see ForceSideways): its own
// testSideways, else the package-wide one.
func (e *Engine) mode() int {
	if e.testSideways != 0 {
		return e.testSideways
	}
	return int(sidewaysMode.Load())
}

// planSideways picks the input to run first: the right one when it is
// estimated smaller and the left may be filtered, else the left. A forced
// mode of 2 prefers the right.
func (e *Engine) planSideways(x *plan.Join) sidewaysPlan {
	if e.mode() < 0 {
		return sidewaysPlan{reason: "off"}
	}
	ins := [2]plan.Node{x.Left, x.Right}
	keys := [2][]plan.Expr{x.EquiL, x.EquiR}
	try := func(first int) sidewaysPlan {
		p := sidewaysPlan{first: first, reason: "no integer key reaches a scan"}
		for i, k := range keys[1-first] {
			cr, ok := k.(*plan.ColRef)
			if !ok || !intKeys(cr.Typ, keys[first][i].Type()) {
				continue
			}
			if sc, slot, work, ok := keyScan(ins[1-first], cr.Slot); ok {
				// A probe on more than one key hashes each row: the filter
				// saves that on the rows it drops.
				work = work || len(keys[0]) > 1
				return sidewaysPlan{first: first, key: i, scan: sc, slot: slot, work: work}
			}
		}
		return p
	}
	if x.Kind == plan.JoinInner || x.Kind == plan.JoinSemi {
		estL, estR := estRows(x.Left), estRows(x.Right)
		if e.mode() == 2 || estR > 0 && estR < estL {
			if p := try(1); p.reason == "" {
				return p
			}
		}
	}
	return try(0)
}

// intKeys reports whether a filter built over keys of type b selects
// exactly the equal keys of type a: both integer-backed, of one scale, so
// their values compare as int64 as the join compares them (alignJoinKeys).
func intKeys(a, b mtypes.Type) bool {
	intBacked := func(t mtypes.Type) bool { return t.IsInteger() || t.Kind == mtypes.KDate || t.Kind == mtypes.KDecimal }
	return intBacked(a) && intBacked(b) && scaleOfT(a) == scaleOfT(b)
}

// keyScan follows output slot of n down through Filters and Projects that
// pass it on as a bare column, to the scan producing it. work reports a
// Filter or a computed projection on the way, which rows cost before the
// join sees them.
func keyScan(n plan.Node, slot int) (sc *plan.Scan, scanSlot int, work, ok bool) {
	for {
		switch x := n.(type) {
		case *plan.Scan:
			return x, slot, work, true
		case *plan.Filter:
			n, work = x.Input, true
		case *plan.Project:
			cr, isCol := x.Exprs[slot].(*plan.ColRef)
			if !isCol || x.Input == nil {
				return nil, 0, false, false
			}
			for _, ex := range x.Exprs {
				if _, isCol := ex.(*plan.ColRef); !isCol {
					work = true
				}
			}
			n, slot = x.Input, cr.Slot
		default:
			return nil, 0, false, false
		}
	}
}

// estRows is the optimizer's row estimate of n's output, read from the
// nearest estimated node through one-input operators (0: not estimated).
func estRows(n plan.Node) int64 {
	switch x := n.(type) {
	case nil:
		return 0
	case *plan.Scan:
		return x.Est
	case *plan.Filter:
		return x.Est
	case *plan.Join:
		return x.Est
	case *plan.Aggregate:
		return x.Est
	}
	if ch := n.Children(); len(ch) == 1 {
		return estRows(ch[0])
	}
	return 0
}

// sidewaysFilterFor builds the filter p plans from the first input's key
// vector, or returns why the runtime guard declines it.
func (e *Engine) sidewaysFilterFor(p sidewaysPlan, buildN int, key *vec.Vector) (*sidewaysFilter, string) {
	src, ok := e.Cat.Source(p.scan.Table)
	if !ok {
		return nil, "no table " + p.scan.Table
	}
	forced, nrows := e.mode() > 0, src.NumRows()
	if !forced && 4*buildN > nrows {
		return nil, fmt.Sprintf("build %d rows not small against %s's %d", buildN, p.scan.Table, nrows)
	}
	// Unless the other input does more per row than test the key, or the
	// key column's runs decide it a run at a time, the filter saves only
	// conjuncts that would run after it.
	const nothing = "nothing to save: the probe tests the same keys"
	saves := forced || p.work || keyRank(src, p.scan.Cols[p.slot]) == rankRuns
	if !saves && len(p.scan.Filters) == 0 {
		return nil, nothing
	}
	kf := vec.NewKeyFilter(key)
	if kf == nil {
		return nil, "key range too wide for a filter"
	}
	col, err := src.Col(p.scan.Cols[p.slot])
	if err != nil {
		return nil, err.Error()
	}
	step := max(1, nrows/sidewaysSample)
	sample := make([]int32, 0, nrows/step+1)
	for r := 0; r < nrows; r += step {
		sample = append(sample, int32(r))
	}
	kept := len(kf.Select(col, sample))
	if !forced && 2*kept > len(sample) {
		return nil, fmt.Sprintf("%d keys keep %d of %d sampled rows", kf.Keys(), kept, len(sample))
	}
	sf := &sidewaysFilter{scan: p.scan, slot: p.slot, keys: kf}
	// The filter goes ahead of the domain and imprint conjuncts when it
	// keeps a smaller share of the sample than the optimizer expects all of
	// the scan's conjuncts together to keep; else after them.
	first := p.scan.Est > 0 && int64(kept)*int64(nrows) < p.scan.Est*int64(len(sample))
	sf.filters = sidewaysConjuncts(p.scan, src, sf, first, e.NoIndexes)
	if !saves && sf.filters[len(sf.filters)-1] == plan.Expr(sf) {
		return nil, nothing
	}
	return sf, ""
}

// sidewaysConjuncts returns the conjuncts of scan x with sf among them,
// ordered by the work each does (conjunctRank): the filter after those an
// index or an encoded domain serves as cheaply, which cut rows first — or
// ahead of all but index lookups when first — and before those that do
// more, which then see only the rows it keeps.
func sidewaysConjuncts(x *plan.Scan, src TableSource, sf *sidewaysFilter, first, noIndexes bool) []plan.Expr {
	ranked := make([][]plan.Expr, rankRows+1)
	for _, f := range x.Filters {
		r := conjunctRank(x, src, f, noIndexes)
		ranked[r] = append(ranked[r], f)
	}
	r := keyRank(src, x.Cols[sf.slot])
	if first {
		ranked[rankIndex] = append(ranked[rankIndex], sf)
	} else {
		ranked[r] = append(ranked[r], sf)
	}
	return slices.Concat(ranked...)
}

// The ranks of scan conjuncts by the work they do, least first.
const (
	rankIndex = iota // a hash or order index lookup: no pass over the rows
	rankRuns         // a pass over an RLE column's runs
	rankCodes        // a pass over packed codes or imprint blocks
	rankRows         // a test per row
)

// conjunctRank ranks a scan conjunct as applyScanFilter routes it: over an
// encoded column's value domain (selectDomain), through a hash index
// (equality with a constant), an order index or imprints (a range), or a
// test per row.
func conjunctRank(x *plan.Scan, src TableSource, f plan.Expr, noIndexes bool) int {
	slot, ok := conjunctSlot(f)
	if !ok {
		return rankRows
	}
	ci := x.Cols[slot]
	if en := src.EncodedCol(ci); en != nil && en.Domain(0, en.N, en.N) != nil {
		if en.Enc == vec.EncRLE {
			return rankRuns
		}
		return rankCodes
	}
	var eq, ranged bool
	switch p := f.(type) {
	case *plan.BinOp:
		cmpConst := p.Kind == plan.BinCmp && colConst(p)
		eq, ranged = cmpConst && p.Cmp == vec.CmpEq, cmpConst && p.Cmp != vec.CmpEq && p.Cmp != vec.CmpNe
	case *plan.BetweenExpr:
		ranged = !p.Not
	}
	switch {
	case noIndexes:
	case eq && src.HashIdx(ci) != nil, ranged && src.OrderIdx(ci) != nil:
		return rankIndex
	case ranged && src.Imprints(ci) != nil:
		return rankCodes
	}
	return rankRows
}

// keyRank ranks a key filter on table column ci: a pass over its runs when
// it is run-length encoded, else one over its codes or rows, which tests
// each row as cheaply as the domain conjuncts do.
func keyRank(src TableSource, ci int) int {
	if en := src.EncodedCol(ci); en != nil && en.Enc == vec.EncRLE {
		return rankRuns
	}
	return rankCodes
}

// colConst reports whether a comparison sets a column against a constant.
func colConst(p *plan.BinOp) bool {
	_, lc := p.L.(*plan.ColRef)
	_, rc := p.R.(*plan.ColRef)
	_, lk := p.L.(*plan.Const)
	_, rk := p.R.(*plan.Const)
	return lc && rk || rc && lk
}

// conjunctSlot returns the one column a conjunct reads; ok is false when it
// reads none or several.
func conjunctSlot(f plan.Expr) (int, bool) {
	if sf, ok := f.(*sidewaysFilter); ok {
		return sf.slot, true
	}
	used := map[int]bool{}
	plan.SlotsUsed(f, used)
	if len(used) != 1 {
		return 0, false
	}
	for s := range used {
		return s, true
	}
	return 0, false
}

// traceSideways emits a join's one sideways line: the filter it applied
// (the keys, the filter's form, the scanned column, and the rows it kept of
// those it tested, summed over the scan's chunks), or the guard that
// declined it.
func (e *Engine) traceSideways(sf *sidewaysFilter, reason string) {
	if e.Trace == nil {
		return
	}
	if sf == nil {
		e.Trace.EmitVoid("optimizer.sideways", "declined: "+reason)
		return
	}
	col := fmt.Sprintf("%s slot %d", sf.scan.Table, sf.slot)
	if src, ok := e.Cat.Source(sf.scan.Table); ok {
		col = sf.scan.Table + "." + src.Meta().Cols[sf.scan.Cols[sf.slot]].Name
	}
	e.Trace.EmitVoid("optimizer.sideways", fmt.Sprintf("%d keys", sf.keys.Keys()), sf.keys.Describe(),
		"scan "+col, fmt.Sprintf("kept %d of %d rows", sf.kept.Load(), sf.tested.Load()))
}
