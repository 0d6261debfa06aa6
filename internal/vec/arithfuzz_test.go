package vec_test

import (
	"errors"
	"math"
	"math/big"
	"testing"

	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
	"monetlite/internal/vec"
)

// arithFuzzTypes are the operand types FuzzArith draws from.
var arithFuzzTypes = []mtypes.Type{
	mtypes.TinyInt, mtypes.SmallInt, mtypes.Int, mtypes.BigInt,
	mtypes.Decimal(18, 0), mtypes.Decimal(18, 2), mtypes.Decimal(18, 4), mtypes.Decimal(9, 3),
	mtypes.Double, mtypes.Date,
}

// fuzzValue maps a fuzzed int64 into t's domain: the NULL sentinel (and,
// for DOUBLE, every NaN) is NULL, anything else is clamped into t's range.
func fuzzValue(t mtypes.Type, x int64) mtypes.Value {
	if t.Kind == mtypes.KDouble {
		f := math.Float64frombits(uint64(x))
		if f != f || math.IsInf(f, 0) {
			return mtypes.NullValue(t)
		}
		return mtypes.NewDouble(f)
	}
	lo, hi := mtypes.IntRange(t.Kind)
	if x == math.MinInt64 {
		return mtypes.NullValue(t)
	}
	return mtypes.Value{Typ: t, I: min(max(x, lo), hi)}
}

// FuzzArith checks vec.Arith, with vector and with scalar operands, the row
// evaluator's arithmetic (plan.EvalRow, the rowstore's) and an exact
// math/big reference against each other: each must give the same value or
// the same mtypes.ErrOverflow.
func FuzzArith(f *testing.F) {
	f.Add(uint8(vec.OpAdd), uint8(3), uint8(3), int64(9223372036854775000), int64(9223372036854775000))
	f.Add(uint8(vec.OpMul), uint8(5), uint8(5), int64(999999999999), int64(999999999999))
	f.Add(uint8(vec.OpMul), uint8(2), uint8(2), int64(2147483647), int64(2147483647))
	f.Fuzz(func(t *testing.T, op, lk, rk uint8, x, y int64) {
		o := vec.ArithOp(op % 5)
		lt, rt := arithFuzzTypes[int(lk)%len(arithFuzzTypes)], arithFuzzTypes[int(rk)%len(arithFuzzTypes)]
		if vec.ArithCheck(o, lt, rt) != nil {
			return
		}
		l, r := fuzzValue(lt, x), fuzzValue(rt, y)
		res := vec.ArithResultType(o, lt, rt)
		want, wantErr := arithReference(o, l, r, res)
		row, rowErr := plan.EvalRow(&plan.BinOp{Kind: plan.BinArith, Arith: o, L: &plan.Const{Val: l}, R: &plan.Const{Val: r}, Typ: res}, nil)
		checkArith(t, "EvalRow", l, o, r, row, rowErr, want, wantErr)
		for _, form := range []struct {
			name string
			a, b *vec.Vector
		}{
			{"vectors", vec.Const(l, 3), vec.Const(r, 3)},
			{"scalar left", vec.Scalar(l), vec.Const(r, 3)},
			{"scalar right", vec.Const(l, 3), vec.Scalar(r)},
		} {
			out, err := vec.Arith(o, form.a, form.b)
			if err != nil {
				checkArith(t, form.name, l, o, r, mtypes.Value{}, err, want, wantErr)
				continue
			}
			if out.Len() != 3 {
				t.Fatalf("%s: %d rows, want 3", form.name, out.Len())
			}
			for i := 0; i < 3; i++ {
				checkArith(t, form.name, l, o, r, out.Value(i), nil, want, wantErr)
			}
		}
	})
}

func checkArith(t *testing.T, who string, l mtypes.Value, op vec.ArithOp, r mtypes.Value, got mtypes.Value, err error, want mtypes.Value, wantErr bool) {
	t.Helper()
	switch {
	case wantErr || err != nil:
		if !wantErr || !errors.Is(err, mtypes.ErrOverflow) {
			t.Fatalf("%s: %v %s %v = %v, %v; want overflow %v, value %v", who, l, op, r, got, err, wantErr, want)
		}
	case got.Null != want.Null || got.Typ != want.Typ:
		t.Fatalf("%s: %v %s %v = %v (%s), want %v (%s)", who, l, op, r, got, got.Typ, want, want.Typ)
	case want.Typ.Kind == mtypes.KDouble:
		if !got.Null && got.F != want.F && !(got.F != got.F && want.F != want.F) {
			t.Fatalf("%s: %v %s %v = %v, want %v", who, l, op, r, got.F, want.F)
		}
	case !got.Null && got.I != want.I:
		t.Fatalf("%s: %v %s %v = %d, want %d", who, l, op, r, got.I, want.I)
	}
}

// arithReference computes l op r of result type rt exactly: the overflow
// rule of both engines, written with math/big. Integers, decimals and dates
// compute at the result's scale, except MUL, which multiplies at the
// operands' scales (the product must fit int64) and rescales. An operand
// rescaled outside int64, or a result outside rt's range, overflows; a
// zero divisor yields NULL. A DOUBLE result is IEEE arithmetic.
func arithReference(op vec.ArithOp, l, r mtypes.Value, rt mtypes.Type) (mtypes.Value, bool) {
	if l.Null || r.Null {
		return mtypes.NullValue(rt), false
	}
	if rt.Kind == mtypes.KDouble {
		a, b := l.AsFloat(), r.AsFloat()
		switch op {
		case vec.OpAdd:
			return mtypes.NewDouble(a + b), false
		case vec.OpSub:
			return mtypes.NewDouble(a - b), false
		case vec.OpMul:
			return mtypes.NewDouble(a * b), false
		case vec.OpDiv:
			if b == 0 {
				return mtypes.NullValue(rt), false
			}
			return mtypes.NewDouble(a / b), false
		}
		if int64(b) == 0 {
			return mtypes.NullValue(rt), false
		}
		return mtypes.NewDouble(float64(int64(a) % int64(b))), false
	}
	scale := func(v mtypes.Value) int {
		if v.Typ.Kind == mtypes.KDecimal {
			return v.Typ.Scale
		}
		return 0
	}
	fits := func(z *big.Int, lo, hi int64) bool {
		return z.Cmp(big.NewInt(lo)) >= 0 && z.Cmp(big.NewInt(hi)) <= 0
	}
	a, b := big.NewInt(l.I), big.NewInt(r.I)
	if (op == vec.OpDiv || op == vec.OpMod) && r.I == 0 {
		return mtypes.NullValue(rt), false
	}
	if rt.Kind == mtypes.KDecimal && op != vec.OpMul {
		a.Mul(a, big.NewInt(mtypes.Pow10[rt.Scale-scale(l)]))
		b.Mul(b, big.NewInt(mtypes.Pow10[rt.Scale-scale(r)]))
		if !fits(a, math.MinInt64, math.MaxInt64) || !fits(b, math.MinInt64, math.MaxInt64) {
			return mtypes.Value{}, true
		}
	}
	z := new(big.Int)
	switch op {
	case vec.OpAdd:
		z.Add(a, b)
	case vec.OpSub:
		z.Sub(a, b)
	case vec.OpMul:
		z.Mul(a, b)
		if rt.Kind == mtypes.KDecimal {
			if !fits(z, math.MinInt64+1, math.MaxInt64) {
				return mtypes.Value{}, true
			}
			z.SetInt64(mtypes.RescaleDecimal(z.Int64(), scale(l)+scale(r), rt.Scale))
		}
	case vec.OpDiv:
		z.Quo(a, b)
	case vec.OpMod:
		z.Rem(a, b)
	}
	lo, hi := mtypes.IntRange(rt.Kind)
	if !fits(z, lo, hi) {
		return mtypes.Value{}, true
	}
	return mtypes.Value{Typ: rt, I: z.Int64()}, false
}
