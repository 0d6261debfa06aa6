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

// operand evaluates an operand of a map kernel: a constant stays a scalar
// (vec.Scalar), anything else is a vector of n values.
func (m *memo) operand(ex plan.Expr, b *batch, n int) (*vec.Vector, error) {
	if c, ok := ex.(*plan.Const); ok {
		return vec.Scalar(c.Val), nil
	}
	return m.evalVecN(ex, b, n)
}

// operands evaluates a kernel's operands, of which the first is always a
// vector: a kernel over scalars alone would yield one row, not n.
func (m *memo) operands(exs []plan.Expr, b *batch, n int) ([]*vec.Vector, error) {
	out := make([]*vec.Vector, len(exs))
	for i, ex := range exs {
		var err error
		if i == 0 {
			out[i], err = m.evalVecN(ex, b, n)
		} else {
			out[i], err = m.operand(ex, b, n)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (m *memo) computeBinOp(x *plan.BinOp, b *batch, n int) (*vec.Vector, error) {
	switch x.Kind {
	case plan.BinCmp:
		return m.computeCmp(x, b, n)
	case plan.BinAnd, plan.BinOr:
		l, err := m.evalVecN(x.L, b, n)
		if err != nil {
			return nil, err
		}
		r, err := m.evalVecN(x.R, b, n)
		if err != nil {
			return nil, err
		}
		if x.Kind == plan.BinAnd {
			return vec.BoolAnd(l, r), nil
		}
		return vec.BoolOr(l, r), nil
	}
	// Arithmetic and concatenation: a constant operand stays a scalar, and
	// the other one is evaluated as a vector (operands).
	_, constL := x.L.(*plan.Const)
	exs := []plan.Expr{x.L, x.R}
	if constL {
		exs = []plan.Expr{x.R, x.L}
	}
	ops, err := m.operands(exs, b, n)
	if err != nil {
		return nil, err
	}
	l, r := ops[0], ops[1]
	if constL {
		l, r = r, l
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
	case plan.BinConcat:
		return vec.ConcatStrings(l, r)
	}
	return nil, fmt.Errorf("exec: unknown binop kind %d", x.Kind)
}

// computeCmp evaluates a comparison. Against a constant it runs the
// selection kernel (vec.SelCmp, the scan filter's) and marks its hits, so
// the constant is never expanded; NULL operands compare to NULL.
func (m *memo) computeCmp(x *plan.BinOp, b *batch, n int) (*vec.Vector, error) {
	m.e.Trace.Emit("batcalc.cmp"+x.Cmp.String(), plan.ExprString(x.L), plan.ExprString(x.R))
	col, c, op := x.L, x.R, x.Cmp
	if _, ok := col.(*plan.Const); ok {
		col, c, op = x.R, x.L, op.Flip()
	}
	k, ok := c.(*plan.Const)
	if !ok {
		l, err := m.evalVecN(x.L, b, n)
		if err != nil {
			return nil, err
		}
		r, err := m.evalVecN(x.R, b, n)
		if err != nil {
			return nil, err
		}
		return vec.CmpVec(x.Cmp, l, r)
	}
	in, err := m.evalVecN(col, b, n)
	if err != nil {
		return nil, err
	}
	out := vec.New(mtypes.Bool, n)
	if k.Val.Null {
		for i := range out.I8 {
			out.I8[i] = mtypes.NullInt8
		}
		return out, nil
	}
	for _, h := range vec.SelCmp(in, op, k.Val, nil) {
		out.I8[h] = 1
	}
	for _, h := range vec.SelNull(in, nil) {
		out.I8[h] = mtypes.NullInt8
	}
	return out, nil
}

// computeCase evaluates CASE lazily, as SQL does: each WHEN condition over
// the rows no earlier WHEN decided, each result over the rows its
// condition holds on, and ELSE over the rest; results (a constant stays a
// scalar) are cast to the CASE type and copied into place (vec.CopyAt). A
// branch never sees a row it does not decide, so an overflow there is no
// error.
func (m *memo) computeCase(x *plan.CaseExpr, b *batch, n int) (*vec.Vector, error) {
	out := vec.New(x.Typ, n)
	var rest []int32 // undecided rows; nil while that is every row
	for _, w := range x.Whens {
		if rest != nil && len(rest) == 0 {
			break
		}
		cond, err := m.evalRows(w.Cond, b, n, rest)
		if err != nil {
			return nil, err
		}
		var hits, left []int32
		for k, t := range cond.I8 {
			r := int32(k)
			if rest != nil {
				r = rest[k]
			}
			if t == 1 {
				hits = append(hits, r)
			} else {
				left = append(left, r)
			}
		}
		if err := m.caseResult(out, w.Result, b, n, hits); err != nil {
			return nil, err
		}
		rest = left
		if rest == nil {
			rest = []int32{}
		}
	}
	if rest == nil {
		rest = vec.Range(n)
	}
	els := x.Else
	if els == nil {
		els = &plan.Const{Val: mtypes.NullValue(x.Typ)}
	}
	if err := m.caseResult(out, els, b, n, rest); err != nil {
		return nil, err
	}
	m.e.Trace.Emit("batcalc.ifthenelse")
	return out, nil
}

// caseResult evaluates one CASE result over rows and copies it there.
func (m *memo) caseResult(out *vec.Vector, ex plan.Expr, b *batch, n int, rows []int32) error {
	if len(rows) == 0 {
		return nil
	}
	var res *vec.Vector
	var err error
	if c, ok := ex.(*plan.Const); ok {
		res = vec.Scalar(c.Val)
	} else if res, err = m.evalRows(ex, b, n, rows); err != nil {
		return err
	}
	if res, err = vec.Cast(res, out.Typ); err != nil {
		return err
	}
	vec.CopyAt(out, res, rows)
	return nil
}

// evalRows evaluates ex densely over the batch rows at positions rows (nil:
// all n rows). A value the memo already holds for all rows is gathered;
// otherwise a memo of its own evaluates ex over just those rows.
func (m *memo) evalRows(ex plan.Expr, b *batch, n int, rows []int32) (*vec.Vector, error) {
	if rows == nil {
		return m.evalVecN(ex, b, n)
	}
	if v, ok := m.cache[plan.ExprString(ex)]; ok && v.Len() == n {
		return vec.Gather(v, rows), nil
	}
	sel := rows
	if b.sel != nil {
		sel = make([]int32, len(rows))
		for k, r := range rows {
			sel[k] = b.sel[r]
		}
	}
	return newMemo(m.e).evalVecN(ex, &batch{cols: b.cols, sel: sel, n: len(rows)}, len(rows))
}

func (m *memo) computeFunc(x *plan.FuncExpr, b *batch, n int) (*vec.Vector, error) {
	switch x.Kind {
	case plan.FuncSubstring:
		m.e.Trace.Emit("str.substring")
		args, err := m.operands(x.Args, b, n)
		if err != nil {
			return nil, err
		}
		var length *vec.Vector
		if len(args) > 2 {
			length = args[2]
		}
		return vec.Substring(args[0], args[1], length)
	case plan.FuncConcat:
		m.e.Trace.Emit("str.concat")
		args, err := m.operands(x.Args, b, n)
		if err != nil {
			return nil, err
		}
		return vec.ConcatStrings(args...)
	}
	arg, err := m.evalVecN(x.Args[0], b, n)
	if err != nil {
		return nil, err
	}
	switch x.Kind {
	case plan.FuncNeg:
		m.e.Trace.Emit("batcalc.neg")
		return vec.Neg(arg)
	case plan.FuncAbs:
		m.e.Trace.Emit("batcalc.abs")
		return vec.Abs(arg)
	case plan.FuncUpper:
		m.e.Trace.Emit("str.toUpper")
		return vec.Upper(arg)
	case plan.FuncLower:
		m.e.Trace.Emit("str.toLower")
		return vec.Lower(arg)
	}
	out := vec.New(x.Typ, n)
	switch x.Kind {
	case plan.FuncExtractYear, plan.FuncExtractMonth, plan.FuncExtractDay:
		m.e.Trace.Emit("mtime.extract")
		for i, d := range arg.I32 {
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
		for i, f := range vec.AsFloats(arg) {
			out.F64[i] = math.Sqrt(f)
		}
		return out, nil
	case plan.FuncAddMonths:
		m.e.Trace.Emit("mtime.addmonths")
		months, err := m.evalVecN(x.Args[1], b, n)
		if err != nil {
			return nil, err
		}
		for i, d := range arg.I32 {
			mo := months.I32[i]
			if d == mtypes.NullInt32 || mo == mtypes.NullInt32 {
				out.I32[i] = mtypes.NullInt32
				continue
			}
			out.I32[i] = mtypes.AddMonths(d, int(mo))
		}
		return out, nil
	}
	return nil, fmt.Errorf("exec: unknown function kind %d", x.Kind)
}
