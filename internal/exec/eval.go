package exec

import (
	"fmt"
	"math"

	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
	"monetlite/internal/vec"
)

// memo is the vectorized expression evaluator for one batch, with common
// sub-expression elimination: identical subtrees (by display form) are
// computed once per batch — the MAL-level CSE optimization of the paper.
//
// When the batch is a selection view (batch.sel != nil) the memo evaluates
// *under the candidate list*: column leaves are gathered at the surviving
// rows (once each, via the CSE cache) and every kernel above runs densely
// over those survivors, so an expression over a filtered batch costs
// O(len(sel)) per column touched — never O(full column). Results are
// positionally aligned with sel; a memo must not outlive its batch's sel.
type memo struct {
	e     *Engine
	cache map[string]*vec.Vector
}

func newMemo(e *Engine) *memo {
	return &memo{e: e, cache: map[string]*vec.Vector{}}
}

// evalVec evaluates expr against the batch, returning a vector of b.n values.
func (m *memo) evalVec(ex plan.Expr, b *batch) (*vec.Vector, error) {
	return m.evalVecN(ex, b, b.n)
}

// evalVecN is evalVec with an explicit output length (for zero-column rows).
func (m *memo) evalVecN(ex plan.Expr, b *batch, n int) (*vec.Vector, error) {
	key := plan.ExprString(ex)
	if v, ok := m.cache[key]; ok && v.Len() == n {
		m.e.Trace.Emit("cse.reuse", key)
		return v, nil
	}
	v, err := m.compute(ex, b, n)
	if err != nil {
		return nil, err
	}
	m.cache[key] = v
	return v, nil
}

func (m *memo) compute(ex plan.Expr, b *batch, n int) (*vec.Vector, error) {
	switch x := ex.(type) {
	case *plan.ColRef:
		if x.Slot >= len(b.cols) {
			return nil, fmt.Errorf("exec: slot %d out of range (%d cols)", x.Slot, len(b.cols))
		}
		// Gather is the identity when b.sel is nil; under a candidate list it
		// densifies the leaf to the survivors (cached, so once per column).
		return vec.Gather(b.cols[x.Slot], b.sel), nil
	case *plan.AggRef:
		if x.Slot >= len(b.cols) {
			return nil, fmt.Errorf("exec: agg slot %d out of range", x.Slot)
		}
		return vec.Gather(b.cols[x.Slot], b.sel), nil
	case *plan.Const:
		return vec.Const(x.Val, n), nil
	case *plan.SubplanExpr:
		v, err := m.e.evalSubplan(x)
		if err != nil {
			return nil, err
		}
		return vec.Const(v, n), nil
	case *plan.BinOp:
		return m.computeBinOp(x, b, n)
	case *plan.NotExpr:
		in, err := m.evalVecN(x.E, b, n)
		if err != nil {
			return nil, err
		}
		m.e.Trace.Emit("calc.not")
		return vec.BoolNot(in), nil
	case *plan.IsNullExpr:
		in, err := m.evalVecN(x.E, b, n)
		if err != nil {
			return nil, err
		}
		out := vec.New(mtypes.Bool, n)
		for i := 0; i < n; i++ {
			if in.IsNull(i) != x.Not {
				out.I8[i] = 1
			}
		}
		return out, nil
	case *plan.LikeExpr:
		in, err := m.evalVecN(x.E, b, n)
		if err != nil {
			return nil, err
		}
		m.e.Trace.Emit("pcre.like_replaced", x.Pattern)
		out := vec.New(mtypes.Bool, n)
		for i, s := range in.Str {
			switch {
			case s == vec.StrNull:
				out.I8[i] = mtypes.NullInt8
			case plan.MatchLike(s, x.Pattern) != x.Not:
				out.I8[i] = 1
			}
		}
		return out, nil
	case *plan.InListExpr:
		in, err := m.evalVecN(x.E, b, n)
		if err != nil {
			return nil, err
		}
		// A miss is FALSE, or NULL when the list holds a NULL; NOT swaps
		// TRUE and FALSE only. A NULL operand is NULL either way.
		hit, miss := int8(1), int8(0)
		if x.Not {
			hit, miss = 0, 1
		}
		if plan.InListHasNull(x.Vals) {
			miss = mtypes.NullInt8
		}
		out := vec.New(mtypes.Bool, n)
		if miss != 0 {
			for i := range out.I8 {
				out.I8[i] = miss
			}
		}
		for _, c := range vec.SelIn(in, x.Vals, nil) {
			out.I8[c] = hit
		}
		for i := 0; i < n; i++ {
			if in.IsNull(i) {
				out.I8[i] = mtypes.NullInt8
			}
		}
		return out, nil
	case *plan.BetweenExpr:
		in, err := m.evalVecN(x.E, b, n)
		if err != nil {
			return nil, err
		}
		lo, hi, ok := constBounds(x)
		if ok {
			hits := vec.SelRange(in, lo, hi, !x.LoExcl, !x.HiExcl, nil)
			out := vec.New(mtypes.Bool, n)
			for _, c := range hits {
				out.I8[c] = 1
			}
			if x.Not {
				out = vec.BoolNot(out)
			}
			for i := 0; i < n; i++ {
				if in.IsNull(i) {
					out.I8[i] = mtypes.NullInt8
				}
			}
			return out, nil
		}
		loV, err := m.evalVecN(x.Lo, b, n)
		if err != nil {
			return nil, err
		}
		hiV, err := m.evalVecN(x.Hi, b, n)
		if err != nil {
			return nil, err
		}
		loOp, hiOp := vec.CmpGe, vec.CmpLe
		if x.LoExcl {
			loOp = vec.CmpGt
		}
		if x.HiExcl {
			hiOp = vec.CmpLt
		}
		ge, err := vec.CmpVec(loOp, in, loV)
		if err != nil {
			return nil, err
		}
		le, err := vec.CmpVec(hiOp, in, hiV)
		if err != nil {
			return nil, err
		}
		out := vec.BoolAnd(ge, le)
		if x.Not {
			out = vec.BoolNot(out)
		}
		return out, nil
	case *plan.CaseExpr:
		return m.computeCase(x, b, n)
	case *plan.FuncExpr:
		return m.computeFunc(x, b, n)
	case *plan.CastExpr:
		in, err := m.evalVecN(x.E, b, n)
		if err != nil {
			return nil, err
		}
		m.e.Trace.Emit("calc.cast", x.To.String())
		return vec.Cast(in, x.To)
	default:
		return nil, fmt.Errorf("exec: cannot evaluate %T", ex)
	}
}

func constBounds(x *plan.BetweenExpr) (mtypes.Value, mtypes.Value, bool) {
	lo, okL := x.Lo.(*plan.Const)
	hi, okH := x.Hi.(*plan.Const)
	if okL && okH {
		return lo.Val, hi.Val, true
	}
	return mtypes.Value{}, mtypes.Value{}, false
}

func (m *memo) computeBinOp(x *plan.BinOp, b *batch, n int) (*vec.Vector, error) {
	l, err := m.evalVecN(x.L, b, n)
	if err != nil {
		return nil, err
	}
	r, err := m.evalVecN(x.R, b, n)
	if err != nil {
		return nil, err
	}
	switch x.Kind {
	case plan.BinArith:
		m.e.Trace.Emit("batcalc."+x.Arith.String(), plan.ExprString(x.L), plan.ExprString(x.R))
		out, err := vec.Arith(x.Arith, l, r)
		if err != nil {
			return nil, err
		}
		// Align with the planner's declared result type (e.g. capped decimal
		// scales).
		if out.Typ != x.Typ && out.Typ.Kind == x.Typ.Kind {
			return vec.Cast(out, x.Typ)
		}
		return out, nil
	case plan.BinCmp:
		m.e.Trace.Emit("batcalc.cmp"+x.Cmp.String(), plan.ExprString(x.L), plan.ExprString(x.R))
		return vec.CmpVec(x.Cmp, l, r)
	case plan.BinAnd:
		return vec.BoolAnd(l, r), nil
	case plan.BinOr:
		return vec.BoolOr(l, r), nil
	case plan.BinConcat:
		out := vec.New(mtypes.Varchar, n)
		ls, err1 := vec.Cast(l, mtypes.Varchar)
		rs, err2 := vec.Cast(r, mtypes.Varchar)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("exec: concat cast failed")
		}
		for i := 0; i < n; i++ {
			if ls.Str[i] == vec.StrNull || rs.Str[i] == vec.StrNull {
				out.Str[i] = vec.StrNull
			} else {
				out.Str[i] = ls.Str[i] + rs.Str[i]
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("exec: unknown binop kind %d", x.Kind)
}

func (m *memo) computeCase(x *plan.CaseExpr, b *batch, n int) (*vec.Vector, error) {
	out := vec.New(x.Typ, n)
	decided := make([]bool, n)
	for _, w := range x.Whens {
		cond, err := m.evalVecN(w.Cond, b, n)
		if err != nil {
			return nil, err
		}
		res, err := m.evalVecN(w.Result, b, n)
		if err != nil {
			return nil, err
		}
		res, err = vec.Cast(res, x.Typ)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if !decided[i] && cond.I8[i] == 1 {
				out.Set(i, res.Value(i))
				decided[i] = true
			}
		}
	}
	if x.Else != nil {
		els, err := m.evalVecN(x.Else, b, n)
		if err != nil {
			return nil, err
		}
		els, err = vec.Cast(els, x.Typ)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if !decided[i] {
				out.Set(i, els.Value(i))
			}
		}
	} else {
		for i := 0; i < n; i++ {
			if !decided[i] {
				out.SetNull(i)
			}
		}
	}
	m.e.Trace.Emit("batcalc.ifthenelse")
	return out, nil
}

func (m *memo) computeFunc(x *plan.FuncExpr, b *batch, n int) (*vec.Vector, error) {
	args := make([]*vec.Vector, len(x.Args))
	for i, a := range x.Args {
		v, err := m.evalVecN(a, b, n)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	out := vec.New(x.Typ, n)
	switch x.Kind {
	case plan.FuncExtractYear, plan.FuncExtractMonth, plan.FuncExtractDay:
		m.e.Trace.Emit("mtime.extract")
		for i := 0; i < n; i++ {
			d := args[0].I32[i]
			if d == mtypes.NullInt32 {
				out.I32[i] = mtypes.NullInt32
				continue
			}
			switch x.Kind {
			case plan.FuncExtractYear:
				out.I32[i] = mtypes.DateYear(d)
			case plan.FuncExtractMonth:
				out.I32[i] = mtypes.DateMonth(d)
			default:
				out.I32[i] = mtypes.DateDay(d)
			}
		}
		return out, nil
	case plan.FuncSqrt:
		m.e.Trace.Emit("batcalc.sqrt")
		fs := vec.AsFloats(args[0])
		for i := 0; i < n; i++ {
			out.F64[i] = math.Sqrt(fs[i])
		}
		return out, nil
	case plan.FuncAddMonths:
		m.e.Trace.Emit("mtime.addmonths")
		for i := 0; i < n; i++ {
			d := args[0].I32[i]
			mo := args[1].I32[i]
			if d == mtypes.NullInt32 || mo == mtypes.NullInt32 {
				out.I32[i] = mtypes.NullInt32
				continue
			}
			out.I32[i] = mtypes.AddMonths(d, int(mo))
		}
		return out, nil
	default:
		// Fall back to the scalar evaluator per row for the rare functions.
		for i := 0; i < n; i++ {
			row := make([]mtypes.Value, 0, len(args))
			rowArgs := make([]plan.Expr, len(args))
			for k, a := range args {
				row = append(row, a.Value(i))
				rowArgs[k] = &plan.Const{Val: row[k]}
			}
			v, err := plan.EvalRow(&plan.FuncExpr{Kind: x.Kind, Args: rowArgs, Typ: x.Typ}, &plan.EvalCtx{})
			if err != nil {
				return nil, err
			}
			out.Set(i, v)
		}
		return out, nil
	}
}
