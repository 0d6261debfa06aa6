package vec

import (
	"cmp"
	"fmt"
	"strings"

	"monetlite/internal/mtypes"
)

// ArithOp enumerates the arithmetic map operators.
type ArithOp uint8

const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

// String renders the operator in SQL syntax.
func (op ArithOp) String() string { return [...]string{"+", "-", "*", "/", "%"}[op] }

// maxDecScale caps the scale of decimal multiplication results so that
// intermediate sums stay within int64 (MonetDB similarly bounds decimal
// precision at 18 digits).
const maxDecScale = 6

// ArithResultType computes the SQL result type of a op b with monetlite's
// promotion rules: DOUBLE dominates; DECIMAL beats integers (add/sub keep
// max scale, mul adds scales, div goes to DOUBLE); otherwise the widest
// integer kind wins, with at least INTEGER for arithmetic.
func ArithResultType(op ArithOp, a, b mtypes.Type) mtypes.Type {
	if a.Kind == mtypes.KDouble || b.Kind == mtypes.KDouble {
		return mtypes.Double
	}
	if a.Kind == mtypes.KDate || b.Kind == mtypes.KDate {
		// date +/- integer days -> date; date - date -> integer days.
		if a.Kind == mtypes.KDate && b.Kind == mtypes.KDate && op == OpSub {
			return mtypes.Int
		}
		return mtypes.Date
	}
	aDec, bDec := a.Kind == mtypes.KDecimal, b.Kind == mtypes.KDecimal
	if aDec || bDec {
		as, bs := 0, 0
		if aDec {
			as = a.Scale
		}
		if bDec {
			bs = b.Scale
		}
		switch op {
		case OpDiv:
			return mtypes.Double
		case OpMul:
			return mtypes.Decimal(18, min(as+bs, maxDecScale))
		default:
			return mtypes.Decimal(18, max(as, bs))
		}
	}
	// Pure integer arithmetic.
	rank := func(k mtypes.Kind) int {
		switch k {
		case mtypes.KBigInt:
			return 4
		case mtypes.KInt:
			return 3
		case mtypes.KSmallInt:
			return 2
		default:
			return 1
		}
	}
	widest := a
	if rank(b.Kind) > rank(a.Kind) {
		widest = b
	}
	if rank(widest.Kind) < 3 {
		widest = mtypes.Int
	}
	return widest
}

// asScaledInts converts an integer-backed vector to int64s at the given
// decimal scale (nulls preserved).
func asScaledInts(v *Vector, scale int) []int64 {
	xs := AsInts64(v)
	from := 0
	if v.Typ.Kind == mtypes.KDecimal {
		from = v.Typ.Scale
	}
	if from == scale {
		return xs
	}
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = mtypes.RescaleDecimal(x, from, scale)
	}
	return out
}

// Arith computes a op b element-wise. Operands must have equal length; NULL
// in either operand yields NULL.
func Arith(op ArithOp, a, b *Vector) (*Vector, error) {
	if a.Len() != b.Len() {
		return nil, fmt.Errorf("vec: arith length mismatch %d vs %d", a.Len(), b.Len())
	}
	if !a.Typ.IsNumeric() && a.Typ.Kind != mtypes.KDate || !b.Typ.IsNumeric() && b.Typ.Kind != mtypes.KDate {
		return nil, fmt.Errorf("vec: arithmetic on non-numeric types %s, %s", a.Typ, b.Typ)
	}
	rt := ArithResultType(op, a.Typ, b.Typ)
	n := a.Len()
	out := New(rt, n)

	if rt.Kind == mtypes.KDouble {
		af, bf := AsFloats(a), AsFloats(b)
		for i := 0; i < n; i++ {
			x, y := af[i], bf[i]
			switch op {
			case OpAdd:
				out.F64[i] = x + y
			case OpSub:
				out.F64[i] = x - y
			case OpMul:
				out.F64[i] = x * y
			case OpDiv:
				if y == 0 {
					out.F64[i] = mtypes.NullFloat64()
				} else {
					out.F64[i] = x / y
				}
			case OpMod:
				if y == 0 {
					out.F64[i] = mtypes.NullFloat64()
				} else {
					out.F64[i] = float64(int64(x) % int64(y))
				}
			}
		}
		return out, nil
	}

	if rt.Kind == mtypes.KDate {
		// date +/- days.
		dv, iv := a, b
		if b.Typ.Kind == mtypes.KDate {
			dv, iv = b, a
		}
		days := AsInts64(iv)
		for i := 0; i < n; i++ {
			d := dv.I32[i]
			k := days[i]
			if d == mtypes.NullInt32 || k == mtypes.NullInt64 {
				out.I32[i] = mtypes.NullInt32
				continue
			}
			if op == OpSub && a.Typ.Kind == mtypes.KDate && b.Typ.Kind != mtypes.KDate {
				out.I32[i] = d - int32(k)
			} else {
				out.I32[i] = d + int32(k)
			}
		}
		return out, nil
	}

	if rt.Kind == mtypes.KInt && a.Typ.Kind == mtypes.KDate && b.Typ.Kind == mtypes.KDate {
		for i := 0; i < n; i++ {
			x, y := a.I32[i], b.I32[i]
			if x == mtypes.NullInt32 || y == mtypes.NullInt32 {
				out.I32[i] = mtypes.NullInt32
			} else {
				out.I32[i] = x - y
			}
		}
		return out, nil
	}

	// Integer / decimal path: compute in int64.
	var ai, bi []int64
	if rt.Kind == mtypes.KDecimal {
		switch op {
		case OpMul:
			ai, bi = asScaledInts(a, scaleOf(a.Typ)), asScaledInts(b, scaleOf(b.Typ))
		default:
			ai, bi = asScaledInts(a, rt.Scale), asScaledInts(b, rt.Scale)
		}
	} else {
		ai, bi = AsInts64(a), AsInts64(b)
	}
	res := out.I64
	narrow := false
	if rt.Kind != mtypes.KBigInt && rt.Kind != mtypes.KDecimal {
		res = make([]int64, n)
		narrow = true
	}
	for i := 0; i < n; i++ {
		x, y := ai[i], bi[i]
		if x == mtypes.NullInt64 || y == mtypes.NullInt64 {
			res[i] = mtypes.NullInt64
			continue
		}
		switch op {
		case OpAdd:
			res[i] = x + y
		case OpSub:
			res[i] = x - y
		case OpMul:
			res[i] = x * y
		case OpDiv:
			if y == 0 {
				res[i] = mtypes.NullInt64
			} else {
				res[i] = x / y
			}
		case OpMod:
			if y == 0 {
				res[i] = mtypes.NullInt64
			} else {
				res[i] = x % y
			}
		}
	}
	if rt.Kind == mtypes.KDecimal && op == OpMul {
		// Result currently at scale sa+sb; rescale to rt.Scale.
		from := scaleOf(a.Typ) + scaleOf(b.Typ)
		if from != rt.Scale {
			for i, x := range res {
				res[i] = mtypes.RescaleDecimal(x, from, rt.Scale)
			}
		}
	}
	if narrow {
		for i, x := range res {
			if x == mtypes.NullInt64 {
				out.SetNull(i)
			} else {
				out.Set(i, mtypes.Value{Typ: rt, I: x})
			}
		}
	}
	return out, nil
}

func scaleOf(t mtypes.Type) int {
	if t.Kind == mtypes.KDecimal {
		return t.Scale
	}
	return 0
}

// CmpVec compares two equal-length vectors element-wise, producing a BOOLEAN
// vector (1/0/null).
func CmpVec(op CmpOp, a, b *Vector) (*Vector, error) {
	if a.Len() != b.Len() {
		return nil, fmt.Errorf("vec: compare length mismatch %d vs %d", a.Len(), b.Len())
	}
	n := a.Len()
	out := New(mtypes.Bool, n)
	set := func(i int, null bool, r int) {
		if null {
			out.I8[i] = mtypes.NullInt8
		} else if cmpHolds(op, r) {
			out.I8[i] = 1
		}
	}
	switch {
	case a.Typ.Kind == mtypes.KVarchar && b.Typ.Kind == mtypes.KVarchar:
		for i := 0; i < n; i++ {
			x, y := a.Str[i], b.Str[i]
			set(i, x == StrNull || y == StrNull, strings.Compare(x, y))
		}
	case a.Typ.Kind == mtypes.KDouble || b.Typ.Kind == mtypes.KDouble ||
		(a.Typ.Kind == mtypes.KDecimal && b.Typ.Kind == mtypes.KDecimal && a.Typ.Scale != b.Typ.Scale) ||
		(a.Typ.Kind == mtypes.KDecimal) != (b.Typ.Kind == mtypes.KDecimal):
		af, bf := AsFloats(a), AsFloats(b)
		for i := 0; i < n; i++ {
			x, y := af[i], bf[i]
			r := 0
			switch {
			case x < y:
				r = -1
			case x > y:
				r = 1
			}
			set(i, mtypes.IsNullF64(x) || mtypes.IsNullF64(y), r)
		}
	default:
		// One payload width (two DATEs, two INTs, ...) compares in place;
		// mixed widths widen to int64.
		if ia, ib := intsOf(a), intsOf(b); ia != nil && ib != nil && ia.cmp(op, ib, out.I8) {
			break
		}
		ai, bi := AsInts64(a), AsInts64(b)
		for i := 0; i < n; i++ {
			x, y := ai[i], bi[i]
			set(i, x == mtypes.NullInt64 || y == mtypes.NullInt64, cmp.Compare(x, y))
		}
	}
	return out, nil
}

// cmpHolds reports whether op holds for a three-way comparison result r.
func cmpHolds(op CmpOp, r int) bool {
	switch op {
	case CmpEq:
		return r == 0
	case CmpNe:
		return r != 0
	case CmpLt:
		return r < 0
	case CmpLe:
		return r <= 0
	case CmpGt:
		return r > 0
	default:
		return r >= 0
	}
}

// BoolAnd / BoolOr implement SQL three-valued logic on BOOLEAN vectors.
func BoolAnd(a, b *Vector) *Vector {
	n := a.Len()
	out := New(mtypes.Bool, n)
	for i := 0; i < n; i++ {
		x, y := a.I8[i], b.I8[i]
		switch {
		case x == 0 || y == 0:
			out.I8[i] = 0
		case x == mtypes.NullInt8 || y == mtypes.NullInt8:
			out.I8[i] = mtypes.NullInt8
		default:
			out.I8[i] = 1
		}
	}
	return out
}

// BoolOr computes SQL OR with three-valued logic.
func BoolOr(a, b *Vector) *Vector {
	n := a.Len()
	out := New(mtypes.Bool, n)
	for i := 0; i < n; i++ {
		x, y := a.I8[i], b.I8[i]
		switch {
		case x == 1 || y == 1:
			out.I8[i] = 1
		case x == mtypes.NullInt8 || y == mtypes.NullInt8:
			out.I8[i] = mtypes.NullInt8
		default:
			out.I8[i] = 0
		}
	}
	return out
}

// BoolNot computes SQL NOT with three-valued logic.
func BoolNot(a *Vector) *Vector {
	n := a.Len()
	out := New(mtypes.Bool, n)
	for i := 0; i < n; i++ {
		switch a.I8[i] {
		case mtypes.NullInt8:
			out.I8[i] = mtypes.NullInt8
		case 0:
			out.I8[i] = 1
		default:
			out.I8[i] = 0
		}
	}
	return out
}

// Neg negates a numeric vector.
func Neg(a *Vector) (*Vector, error) {
	return Arith(OpSub, Const(mtypes.Value{Typ: a.Typ}, a.Len()).fillZero(), a)
}

func (v *Vector) fillZero() *Vector {
	for i := 0; i < v.Len(); i++ {
		v.Set(i, mtypes.Value{Typ: v.Typ})
	}
	return v
}

// Cast converts a vector to a target type, following SQL CAST semantics.
func Cast(v *Vector, to mtypes.Type) (*Vector, error) {
	if v.Typ == to {
		return v, nil
	}
	if v.Typ.Kind == mtypes.KVarchar && to.Kind != mtypes.KVarchar && to.Kind != mtypes.KDate {
		return nil, fmt.Errorf("vec: unsupported cast %s -> %s", v.Typ, to)
	}
	n := v.Len()
	out := New(to, n)
	switch to.Kind {
	case mtypes.KDouble:
		fs := AsFloats(v)
		copy(out.F64, fs)
	case mtypes.KBigInt, mtypes.KInt, mtypes.KSmallInt, mtypes.KTinyInt:
		var xs []int64
		switch v.Typ.Kind {
		case mtypes.KDouble:
			xs = make([]int64, n)
			for i, f := range v.F64 {
				if mtypes.IsNullF64(f) {
					xs[i] = mtypes.NullInt64
				} else {
					xs[i] = int64(f)
				}
			}
		case mtypes.KDecimal:
			xs = make([]int64, n)
			for i, x := range v.I64 {
				xs[i] = mtypes.RescaleDecimal(x, v.Typ.Scale, 0)
			}
		default:
			xs = AsInts64(v)
		}
		for i, x := range xs {
			if x == mtypes.NullInt64 {
				out.SetNull(i)
			} else {
				out.Set(i, mtypes.Value{Typ: to, I: x})
			}
		}
	case mtypes.KDecimal:
		switch v.Typ.Kind {
		case mtypes.KDouble:
			mult := float64(mtypes.Pow10[to.Scale])
			for i, f := range v.F64 {
				if mtypes.IsNullF64(f) {
					out.I64[i] = mtypes.NullInt64
				} else if f < 0 {
					out.I64[i] = int64(f*mult - 0.5)
				} else {
					out.I64[i] = int64(f*mult + 0.5)
				}
			}
		case mtypes.KDecimal:
			for i, x := range v.I64 {
				out.I64[i] = mtypes.RescaleDecimal(x, v.Typ.Scale, to.Scale)
			}
		default:
			xs := AsInts64(v)
			for i, x := range xs {
				if x == mtypes.NullInt64 {
					out.I64[i] = mtypes.NullInt64
				} else {
					out.I64[i] = x * mtypes.Pow10[to.Scale]
				}
			}
		}
	case mtypes.KVarchar:
		for i := 0; i < n; i++ {
			if v.IsNull(i) {
				out.Str[i] = StrNull
			} else {
				out.Str[i] = v.Value(i).String()
			}
		}
	case mtypes.KDate:
		switch v.Typ.Kind {
		case mtypes.KVarchar:
			for i, s := range v.Str {
				if s == StrNull {
					out.I32[i] = mtypes.NullInt32
					continue
				}
				d, err := mtypes.ParseDate(s)
				if err != nil {
					return nil, err
				}
				out.I32[i] = d
			}
		case mtypes.KInt:
			copy(out.I32, v.I32)
		default:
			return nil, fmt.Errorf("vec: unsupported cast %s -> %s", v.Typ, to)
		}
	case mtypes.KBool:
		xs := AsInts64(v)
		for i, x := range xs {
			switch {
			case x == mtypes.NullInt64:
				out.I8[i] = mtypes.NullInt8
			case x != 0:
				out.I8[i] = 1
			}
		}
	default:
		return nil, fmt.Errorf("vec: unsupported cast %s -> %s", v.Typ, to)
	}
	return out, nil
}
