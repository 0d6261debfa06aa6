package plan

import (
	"fmt"
	"math"
	"strings"

	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

// EvalCtx carries the state needed to evaluate a bound expression against a
// single row. It is used by the volcano row engine, by INSERT/UPDATE value
// computation, and by constant folding (with a nil row).
type EvalCtx struct {
	Row []mtypes.Value
	// Subquery evaluates an uncorrelated scalar subplan (supplied by the
	// executing engine; nil when subplans cannot occur).
	Subquery func(Node) (mtypes.Value, error)
}

// EvalRow evaluates a bound expression row-at-a-time. This is the volcano
// engine's expression interpreter (the columnar engine uses vectorized
// kernels instead — both must agree, which differential tests enforce).
func EvalRow(e Expr, ctx *EvalCtx) (mtypes.Value, error) {
	switch x := e.(type) {
	case *Const:
		return x.Val, nil
	case *ColRef:
		if ctx == nil || x.Slot >= len(ctx.Row) {
			return mtypes.Value{}, fmt.Errorf("plan: no row value for slot %d", x.Slot)
		}
		return ctx.Row[x.Slot], nil
	case *AggRef:
		if ctx == nil || x.Slot >= len(ctx.Row) {
			return mtypes.Value{}, fmt.Errorf("plan: no row value for agg slot %d", x.Slot)
		}
		return ctx.Row[x.Slot], nil
	case *BinOp:
		return evalBinOp(x, ctx)
	case *NotExpr:
		v, err := EvalRow(x.E, ctx)
		if err != nil {
			return mtypes.Value{}, err
		}
		if v.Null {
			return mtypes.NullValue(mtypes.Bool), nil
		}
		return mtypes.NewBool(v.I == 0), nil
	case *IsNullExpr:
		v, err := EvalRow(x.E, ctx)
		if err != nil {
			return mtypes.Value{}, err
		}
		return mtypes.NewBool(v.Null != x.Not), nil
	case *LikeExpr:
		v, err := EvalRow(x.E, ctx)
		if err != nil {
			return mtypes.Value{}, err
		}
		if v.Null {
			return mtypes.NullValue(mtypes.Bool), nil
		}
		return mtypes.NewBool(MatchLike(v.S, x.Pattern) != x.Not), nil
	case *InListExpr:
		v, err := EvalRow(x.E, ctx)
		if err != nil {
			return mtypes.Value{}, err
		}
		if v.Null {
			return mtypes.NullValue(mtypes.Bool), nil
		}
		for _, c := range x.Vals {
			if !c.Null && mtypes.Equal(v, c) {
				return mtypes.NewBool(!x.Not), nil
			}
		}
		if InListHasNull(x.Vals) {
			// v = NULL is unknown, so a miss is unknown too (for NOT IN as well).
			return mtypes.NullValue(mtypes.Bool), nil
		}
		return mtypes.NewBool(x.Not), nil
	case *BetweenExpr:
		v, err := EvalRow(x.E, ctx)
		if err != nil {
			return mtypes.Value{}, err
		}
		lo, err := EvalRow(x.Lo, ctx)
		if err != nil {
			return mtypes.Value{}, err
		}
		hi, err := EvalRow(x.Hi, ctx)
		if err != nil {
			return mtypes.Value{}, err
		}
		if v.Null || lo.Null || hi.Null {
			return mtypes.NullValue(mtypes.Bool), nil
		}
		okLo := mtypes.Compare(v, lo) >= 0
		if x.LoExcl {
			okLo = mtypes.Compare(v, lo) > 0
		}
		okHi := mtypes.Compare(v, hi) <= 0
		if x.HiExcl {
			okHi = mtypes.Compare(v, hi) < 0
		}
		return mtypes.NewBool((okLo && okHi) != x.Not), nil
	case *CaseExpr:
		for _, w := range x.Whens {
			c, err := EvalRow(w.Cond, ctx)
			if err != nil {
				return mtypes.Value{}, err
			}
			if !c.Null && c.I != 0 {
				r, err := EvalRow(w.Result, ctx)
				if err != nil {
					return mtypes.Value{}, err
				}
				return coerceValue(r, x.Typ), nil
			}
		}
		if x.Else != nil {
			r, err := EvalRow(x.Else, ctx)
			if err != nil {
				return mtypes.Value{}, err
			}
			return coerceValue(r, x.Typ), nil
		}
		return mtypes.NullValue(x.Typ), nil
	case *FuncExpr:
		return evalFunc(x, ctx)
	case *CastExpr:
		v, err := EvalRow(x.E, ctx)
		if err != nil {
			return mtypes.Value{}, err
		}
		return CastValue(v, x.To)
	case *SubplanExpr:
		if ctx == nil || ctx.Subquery == nil {
			return mtypes.Value{}, fmt.Errorf("plan: scalar subquery cannot be evaluated here")
		}
		return ctx.Subquery(x.Plan)
	default:
		return mtypes.Value{}, fmt.Errorf("plan: cannot row-evaluate %T", e)
	}
}

func evalBinOp(x *BinOp, ctx *EvalCtx) (mtypes.Value, error) {
	l, err := EvalRow(x.L, ctx)
	if err != nil {
		return mtypes.Value{}, err
	}
	// Short-circuit three-valued AND/OR.
	if x.Kind == BinAnd || x.Kind == BinOr {
		if !l.Null {
			if x.Kind == BinAnd && l.I == 0 {
				return mtypes.NewBool(false), nil
			}
			if x.Kind == BinOr && l.I != 0 {
				return mtypes.NewBool(true), nil
			}
		}
		r, err := EvalRow(x.R, ctx)
		if err != nil {
			return mtypes.Value{}, err
		}
		switch {
		case !r.Null && x.Kind == BinAnd && r.I == 0:
			return mtypes.NewBool(false), nil
		case !r.Null && x.Kind == BinOr && r.I != 0:
			return mtypes.NewBool(true), nil
		case l.Null || r.Null:
			return mtypes.NullValue(mtypes.Bool), nil
		case x.Kind == BinAnd:
			return mtypes.NewBool(l.I != 0 && r.I != 0), nil
		default:
			return mtypes.NewBool(l.I != 0 || r.I != 0), nil
		}
	}
	r, err := EvalRow(x.R, ctx)
	if err != nil {
		return mtypes.Value{}, err
	}
	switch x.Kind {
	case BinCmp:
		if l.Null || r.Null {
			return mtypes.NullValue(mtypes.Bool), nil
		}
		c := mtypes.Compare(l, r)
		ok := false
		switch x.Cmp {
		case vec.CmpEq:
			ok = c == 0
		case vec.CmpNe:
			ok = c != 0
		case vec.CmpLt:
			ok = c < 0
		case vec.CmpLe:
			ok = c <= 0
		case vec.CmpGt:
			ok = c > 0
		default:
			ok = c >= 0
		}
		return mtypes.NewBool(ok), nil
	case BinConcat:
		if l.Null || r.Null {
			return mtypes.NullValue(mtypes.Varchar), nil
		}
		return mtypes.NewString(l.String() + r.String()), nil
	case BinArith:
		return evalArithValue(x, l, r)
	}
	return mtypes.Value{}, fmt.Errorf("plan: unknown binop kind %d", x.Kind)
}

func evalArithValue(x *BinOp, l, r mtypes.Value) (mtypes.Value, error) {
	rt := x.Typ
	if l.Null || r.Null {
		return mtypes.NullValue(rt), nil
	}
	op := x.Arith
	if rt.Kind == mtypes.KDouble {
		a, b := l.AsFloat(), r.AsFloat()
		var f float64
		switch op {
		case vec.OpAdd:
			f = a + b
		case vec.OpSub:
			f = a - b
		case vec.OpMul:
			f = a * b
		case vec.OpDiv:
			if b == 0 {
				return mtypes.NullValue(rt), nil
			}
			f = a / b
		default:
			if int64(b) == 0 {
				return mtypes.NullValue(rt), nil
			}
			f = float64(int64(a) % int64(b))
		}
		return mtypes.NewDouble(f), nil
	}
	// Integers, decimals and dates (days): exact int64 arithmetic, at the
	// result's scale except for MUL, which multiplies decimals at their own
	// scales and rescales the product. A step leaving int64, or a result
	// outside rt's range or equal to its NULL sentinel, is an overflow.
	if (op == vec.OpDiv || op == vec.OpMod) && r.I == 0 {
		return mtypes.NullValue(rt), nil
	}
	overflow := fmt.Errorf("plan: %s %s %s: %w", l.Typ, op, r.Typ, mtypes.ErrOverflow)
	a, b := l.I, r.I
	if rt.Kind == mtypes.KDecimal && op != vec.OpMul {
		var okA, okB bool
		a, okA = scaleUpExact(a, rt.Scale-scaleOf(l.Typ))
		b, okB = scaleUpExact(b, rt.Scale-scaleOf(r.Typ))
		if !okA || !okB {
			return mtypes.Value{}, overflow
		}
	}
	var v int64
	switch op {
	case vec.OpAdd:
		if b > 0 && a > math.MaxInt64-b || b < 0 && a < math.MinInt64-b {
			return mtypes.Value{}, overflow
		}
		v = a + b
	case vec.OpSub:
		if b < 0 && a > math.MaxInt64+b || b > 0 && a < math.MinInt64+b {
			return mtypes.Value{}, overflow
		}
		v = a - b
	case vec.OpMul:
		v = a * b
		if a != 0 && (v/a != b || a == -1 && b == math.MinInt64) {
			return mtypes.Value{}, overflow
		}
		if rt.Kind == mtypes.KDecimal {
			v = mtypes.RescaleDecimal(v, scaleOf(l.Typ)+scaleOf(r.Typ), rt.Scale)
		}
	case vec.OpDiv, vec.OpMod:
		if op == vec.OpDiv {
			v = a / b
		} else {
			v = a % b
		}
	}
	if lo, hi := mtypes.IntRange(rt.Kind); v < lo || v > hi {
		return mtypes.Value{}, overflow
	}
	return mtypes.Value{Typ: rt, I: v}, nil
}

// scaleUpExact multiplies x by 10^k, reporting whether the product fits
// int64.
func scaleUpExact(x int64, k int) (int64, bool) {
	if k == 0 {
		return x, true
	}
	p := mtypes.Pow10[k]
	return x * p, x <= math.MaxInt64/p && x >= -(math.MaxInt64/p)
}

func evalFunc(x *FuncExpr, ctx *EvalCtx) (mtypes.Value, error) {
	args := make([]mtypes.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := EvalRow(a, ctx)
		if err != nil {
			return mtypes.Value{}, err
		}
		args[i] = v
	}
	switch x.Kind {
	case FuncExtractYear, FuncExtractMonth, FuncExtractDay:
		if args[0].Null {
			return mtypes.NullValue(mtypes.Int), nil
		}
		d := int32(args[0].I)
		var n int32
		switch x.Kind {
		case FuncExtractYear:
			n = mtypes.DateYear(d)
		case FuncExtractMonth:
			n = mtypes.DateMonth(d)
		default:
			n = mtypes.DateDay(d)
		}
		return mtypes.NewInt(mtypes.Int, int64(n)), nil
	case FuncSubstring:
		for _, a := range args {
			if a.Null {
				return mtypes.NullValue(mtypes.Varchar), nil
			}
		}
		s := args[0].S
		start := 0 // SQL positions are 1-based; clamp to [0, len(s)]
		if b := args[1].I; b > int64(len(s)) {
			start = len(s)
		} else if b > 1 {
			start = int(b) - 1
		}
		end := len(s)
		if len(args) > 2 {
			l := args[2].I
			if b := args[1].I; b < 1 && l > 0 {
				l += b - 1 // positions before the string count toward the length
			}
			if l <= 0 {
				end = start
			} else if l < int64(len(s)-start) {
				end = start + int(l)
			}
		}
		return mtypes.NewString(s[start:end]), nil
	case FuncNeg:
		if args[0].Null {
			return mtypes.NullValue(x.Typ), nil
		}
		v := args[0]
		if v.Typ.Kind == mtypes.KDouble {
			return mtypes.NewDouble(-v.F), nil
		}
		return mtypes.Value{Typ: v.Typ, I: -v.I}, nil
	case FuncAbs:
		if args[0].Null {
			return mtypes.NullValue(x.Typ), nil
		}
		v := args[0]
		if v.Typ.Kind == mtypes.KDouble {
			return mtypes.NewDouble(math.Abs(v.F)), nil
		}
		if v.I < 0 {
			return mtypes.Value{Typ: v.Typ, I: -v.I}, nil
		}
		return v, nil
	case FuncSqrt:
		if args[0].Null {
			return mtypes.NullValue(mtypes.Double), nil
		}
		return mtypes.NewDouble(math.Sqrt(args[0].AsFloat())), nil
	case FuncUpper:
		if args[0].Null {
			return mtypes.NullValue(mtypes.Varchar), nil
		}
		return mtypes.NewString(strings.ToUpper(args[0].S)), nil
	case FuncLower:
		if args[0].Null {
			return mtypes.NullValue(mtypes.Varchar), nil
		}
		return mtypes.NewString(strings.ToLower(args[0].S)), nil
	case FuncConcat:
		var sb strings.Builder
		for _, a := range args {
			if a.Null {
				return mtypes.NullValue(mtypes.Varchar), nil
			}
			sb.WriteString(a.String())
		}
		return mtypes.NewString(sb.String()), nil
	case FuncAddMonths:
		if args[0].Null || args[1].Null {
			return mtypes.NullValue(mtypes.Date), nil
		}
		return mtypes.NewDate(mtypes.AddMonths(int32(args[0].I), int(args[1].AsInt()))), nil
	}
	return mtypes.Value{}, fmt.Errorf("plan: unknown function kind %d", x.Kind)
}

// CastValue converts a scalar to the target type following SQL CAST rules.
func CastValue(v mtypes.Value, to mtypes.Type) (mtypes.Value, error) {
	if v.Null {
		return mtypes.NullValue(to), nil
	}
	if v.Typ == to {
		return v, nil
	}
	switch to.Kind {
	case mtypes.KDouble:
		return mtypes.NewDouble(v.AsFloat()), nil
	case mtypes.KTinyInt, mtypes.KSmallInt, mtypes.KInt, mtypes.KBigInt:
		var n int64
		switch v.Typ.Kind {
		case mtypes.KDouble:
			if v.F != v.F {
				return mtypes.NullValue(to), nil
			}
			if v.F <= -1<<63 || v.F >= 1<<63 {
				return mtypes.Value{}, castOverflow(v, to)
			}
			n = int64(v.F)
		case mtypes.KDecimal:
			n = mtypes.RescaleDecimal(v.I, v.Typ.Scale, 0)
		case mtypes.KVarchar:
			d, err := mtypes.ParseDecimal(v.S, 0)
			if err != nil {
				return mtypes.Value{}, err
			}
			n = d
		default:
			n = v.I
		}
		if lo, hi := mtypes.IntRange(to.Kind); n < lo || n > hi {
			return mtypes.Value{}, castOverflow(v, to)
		}
		return mtypes.Value{Typ: to, I: n}, nil
	case mtypes.KDecimal:
		switch v.Typ.Kind {
		case mtypes.KDouble:
			if v.F != v.F {
				return mtypes.NullValue(to), nil
			}
			f := v.F * float64(mtypes.Pow10[to.Scale])
			if f < 0 {
				f -= 0.5
			} else {
				f += 0.5
			}
			if f <= -1<<63 || f >= 1<<63 {
				return mtypes.Value{}, castOverflow(v, to)
			}
			return mtypes.Value{Typ: to, I: int64(f)}, nil
		case mtypes.KDecimal:
			if to.Scale < v.Typ.Scale {
				return mtypes.Value{Typ: to, I: mtypes.RescaleDecimal(v.I, v.Typ.Scale, to.Scale)}, nil
			}
			n, ok := scaleUpExact(v.I, to.Scale-v.Typ.Scale)
			if !ok {
				return mtypes.Value{}, castOverflow(v, to)
			}
			return mtypes.Value{Typ: to, I: n}, nil
		case mtypes.KVarchar:
			d, err := mtypes.ParseDecimal(v.S, to.Scale)
			if err != nil {
				return mtypes.Value{}, err
			}
			return mtypes.Value{Typ: to, I: d}, nil
		default:
			n, ok := scaleUpExact(v.I, to.Scale)
			if !ok {
				return mtypes.Value{}, castOverflow(v, to)
			}
			return mtypes.Value{Typ: to, I: n}, nil
		}
	case mtypes.KVarchar:
		return mtypes.NewString(v.String()), nil
	case mtypes.KDate:
		switch v.Typ.Kind {
		case mtypes.KVarchar:
			d, err := mtypes.ParseDate(v.S)
			if err != nil {
				return mtypes.Value{}, err
			}
			return mtypes.NewDate(d), nil
		default:
			return mtypes.NewDate(int32(v.I)), nil
		}
	case mtypes.KBool:
		return mtypes.NewBool(v.I != 0 || (v.Typ.Kind == mtypes.KDouble && v.F != 0)), nil
	}
	return mtypes.Value{}, fmt.Errorf("plan: unsupported cast %s -> %s", v.Typ, to)
}

func castOverflow(v mtypes.Value, to mtypes.Type) error {
	return fmt.Errorf("plan: cast %s -> %s: %w", v.Typ, to, mtypes.ErrOverflow)
}

// coerceValue aligns a value with a target type without error reporting
// (used by CASE result alignment where the binder already validated types).
func coerceValue(v mtypes.Value, to mtypes.Type) mtypes.Value {
	out, err := CastValue(v, to)
	if err != nil {
		return mtypes.NullValue(to)
	}
	return out
}

func scaleOf(t mtypes.Type) int {
	if t.Kind == mtypes.KDecimal {
		return t.Scale
	}
	return 0
}

// FoldConst evaluates a constant expression at plan time; returns e unchanged
// if it is not constant or evaluation fails.
func FoldConst(e Expr) Expr {
	if _, isConst := e.(*Const); isConst || !IsConst(e) {
		return e
	}
	v, err := EvalRow(e, &EvalCtx{})
	if err != nil {
		return e
	}
	return &Const{Val: v}
}
