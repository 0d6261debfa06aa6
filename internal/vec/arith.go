package vec

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"unsafe"

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

// ArithCheck reports whether op applies to operands of types a and b:
// two numbers, a DATE plus or minus an integer count of days, an integer
// plus a DATE, or DATE minus DATE.
func ArithCheck(op ArithOp, a, b mtypes.Type) error {
	aDate, bDate := a.Kind == mtypes.KDate, b.Kind == mtypes.KDate
	switch {
	case a.IsNumeric() && b.IsNumeric() && !aDate && !bDate:
		return nil
	case aDate && bDate && op == OpSub,
		aDate && b.IsInteger() && (op == OpAdd || op == OpSub),
		bDate && a.IsInteger() && op == OpAdd:
		return nil
	}
	return fmt.Errorf("vec: cannot apply %s to %s and %s", op, a, b)
}

// Scalar returns a one-value operand that stands for every row of the
// kernel it is passed to (Arith, Substring, ConcatStrings, CopyAt, Cast
// keeps it one): a constant is never expanded to the kernel's length.
func Scalar(val mtypes.Value) *Vector {
	v := Const(val, 1)
	v.scalar = true
	return v
}

// rows returns the row count of a kernel over its operands: the length every
// vector among them shares, or 1 when all are scalars (nil operands are
// absent ones).
func rows(args ...*Vector) (int, error) {
	n := -1
	for _, a := range args {
		if a == nil || a.scalar {
			continue
		}
		if n >= 0 && a.Len() != n {
			return 0, fmt.Errorf("vec: operand length mismatch %d vs %d", n, a.Len())
		}
		n = a.Len()
	}
	if n < 0 {
		n = 1
	}
	return n, nil
}

// stride is an operand's index mask: row i reads position i&stride, so a
// scalar (mask 0) reads its one value at every row.
func stride(v *Vector) int {
	if v.scalar {
		return 0
	}
	return -1
}

// Arith computes a op b element-wise; NULL in either operand yields NULL. The
// operands are vectors of one length or scalars (Scalar). Integer, decimal
// and date operands are read in their own width, a decimal one rescaled to
// the result's scale by a multiplier in the loop, and the result is written
// in its own width. A result outside its type's range, or equal to its NULL
// sentinel, is an error wrapping mtypes.ErrOverflow.
func Arith(op ArithOp, a, b *Vector) (*Vector, error) {
	n, err := rows(a, b)
	if err != nil {
		return nil, err
	}
	if err := ArithCheck(op, a.Typ, b.Typ); err != nil {
		return nil, err
	}
	rt := ArithResultType(op, a.Typ, b.Typ)
	out := New(rt, n)
	if rt.Kind == mtypes.KDouble {
		floatArith(op, AsFloats(a), stride(a), AsFloats(b), stride(b), out.F64)
		return out, nil
	}
	// MUL multiplies decimals at their own scales and rescales the product;
	// the other operators bring both operands to the result's scale.
	ma, mb := int64(1), int64(1)
	if rt.Kind == mtypes.KDecimal && op != OpMul {
		ma, mb = mtypes.Pow10[rt.Scale-scaleOf(a.Typ)], mtypes.Pow10[rt.Scale-scaleOf(b.Typ)]
	}
	var ok bool
	if out.I32 != nil {
		ok = intArith(op, a, b, out.I32, ma, mb)
	} else {
		ok = intArith(op, a, b, out.I64, ma, mb)
	}
	if !ok {
		return nil, fmt.Errorf("vec: %s %s %s: %w", a.Typ, op, b.Typ, mtypes.ErrOverflow)
	}
	if rt.Kind == mtypes.KDecimal && op == OpMul {
		if from := scaleOf(a.Typ) + scaleOf(b.Typ); from != rt.Scale {
			for i, x := range out.I64 {
				out.I64[i] = mtypes.RescaleDecimal(x, from, rt.Scale)
			}
		}
	}
	return out, nil
}

// floatArith is Arith over doubles. NaN (NULL) propagates through +, -, *
// and /; a zero divisor yields NULL.
func floatArith(op ArithOp, xa []float64, am int, xb []float64, bm int, out []float64) {
	switch op {
	case OpAdd:
		for i := range out {
			out[i] = xa[i&am] + xb[i&bm]
		}
	case OpSub:
		for i := range out {
			out[i] = xa[i&am] - xb[i&bm]
		}
	case OpMul:
		for i := range out {
			out[i] = xa[i&am] * xb[i&bm]
		}
	case OpDiv:
		for i := range out {
			if y := xb[i&bm]; y == 0 {
				out[i] = mtypes.NullFloat64()
			} else {
				out[i] = xa[i&am] / y
			}
		}
	case OpMod:
		for i := range out {
			x, y := xa[i&am], xb[i&bm]
			if x != x || y != y || int64(y) == 0 {
				out[i] = mtypes.NullFloat64()
			} else {
				out[i] = float64(int64(x) % int64(y))
			}
		}
	}
}

// intArith dispatches Arith over integer-backed operands to the typed loop
// of their widths.
func intArith[R int32 | int64](op ArithOp, a, b *Vector, out []R, ma, mb int64) bool {
	switch a.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		return intArithB(op, a.I8, stride(a), b, out, ma, mb)
	case mtypes.KSmallInt:
		return intArithB(op, a.I16, stride(a), b, out, ma, mb)
	case mtypes.KInt, mtypes.KDate:
		return intArithB(op, a.I32, stride(a), b, out, ma, mb)
	}
	return intArithB(op, a.I64, stride(a), b, out, ma, mb)
}

func intArithB[A intKey, R int32 | int64](op ArithOp, xa []A, am int, b *Vector, out []R, ma, mb int64) bool {
	switch b.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		return intLoop(op, xa, am, b.I8, stride(b), out, ma, mb)
	case mtypes.KSmallInt:
		return intLoop(op, xa, am, b.I16, stride(b), out, ma, mb)
	case mtypes.KInt, mtypes.KDate:
		return intLoop(op, xa, am, b.I32, stride(b), out, ma, mb)
	}
	return intLoop(op, xa, am, b.I64, stride(b), out, ma, mb)
}

// nullOf returns the NULL sentinel of an integer width: its minimum.
func nullOf[T intKey]() T {
	var t T
	return T(-1) << (8*unsafe.Sizeof(t) - 1)
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// intLoop computes out[i] = a*ma op b*mb over int64, reading operand row i
// at i&am and i&bm, and writes the result in R's width. Overflow is detected
// per vector: a flag OR-ed in the loop and tested once at the end. It is set
// by a signed add/sub overflow, by a rescale u*ma outside int64 (u outside
// ±MaxInt64/ma), and by a result outside R or equal to R's NULL sentinel. A
// product of operands within ±2^31 always fits int64, so MUL only tests
// that; a vector that fails it is checked exactly (mulFits). It reports
// whether no row overflowed.
func intLoop[A, B intKey, R int32 | int64](op ArithOp, xa []A, am int, xb []B, bm int, out []R, ma, mb int64) bool {
	na, nb, nr := nullOf[A](), nullOf[B](), nullOf[R]()
	la, lb := uint64(math.MaxInt64/ma), uint64(math.MaxInt64/mb)
	var bad uint64
	switch op {
	case OpAdd:
		for i := range out {
			x, y := xa[i&am], xb[i&bm]
			if x == na || y == nb {
				out[i] = nr
				continue
			}
			u, v := int64(x)*ma, int64(y)*mb
			r := u + v
			bad |= uint64((u^r)&(v^r))>>63 | b2u(uint64(int64(x))+la > 2*la) | b2u(uint64(int64(y))+lb > 2*lb) |
				b2u(int64(R(r)) != r) | b2u(R(r) == nr)
			out[i] = R(r)
		}
	case OpSub:
		for i := range out {
			x, y := xa[i&am], xb[i&bm]
			if x == na || y == nb {
				out[i] = nr
				continue
			}
			u, v := int64(x)*ma, int64(y)*mb
			r := u - v
			bad |= uint64((u^v)&(u^r))>>63 | b2u(uint64(int64(x))+la > 2*la) | b2u(uint64(int64(y))+lb > 2*lb) |
				b2u(int64(R(r)) != r) | b2u(R(r) == nr)
			out[i] = R(r)
		}
	case OpMul:
		var wide uint64
		for i := range out {
			x, y := xa[i&am], xb[i&bm]
			if x == na || y == nb {
				out[i] = nr
				continue
			}
			u, v := int64(x), int64(y)
			r := u * v
			wide |= (uint64(u) + 1<<31) | (uint64(v) + 1<<31)
			bad |= b2u(int64(R(r)) != r) | b2u(R(r) == nr)
			out[i] = R(r)
		}
		if wide>>32 != 0 && !mulFits(xa, am, xb, bm, len(out)) {
			return false
		}
	case OpDiv, OpMod:
		mod := op == OpMod
		for i := range out {
			x, y := xa[i&am], xb[i&bm]
			if x == na || y == nb || y == 0 {
				out[i] = nr
				continue
			}
			u, v := int64(x)*ma, int64(y)*mb
			var r int64
			if mod {
				r = u % v
			} else {
				r = u / v
			}
			bad |= b2u(uint64(int64(x))+la > 2*la) | b2u(uint64(int64(y))+lb > 2*lb) |
				b2u(int64(R(r)) != r) | b2u(R(r) == nr)
			out[i] = R(r)
		}
	}
	return bad == 0
}

// mulFits reports whether every non-NULL product of the n rows fits int64
// and is not its NULL sentinel: the exact check behind intLoop's cheap one.
func mulFits[A, B intKey](xa []A, am int, xb []B, bm int, n int) bool {
	na, nb := nullOf[A](), nullOf[B]()
	for i := 0; i < n; i++ {
		x, y := xa[i&am], xb[i&bm]
		if x == na || y == nb {
			continue
		}
		hi, lo := bits.Mul64(absU(int64(x)), absU(int64(y)))
		if hi != 0 || lo > math.MaxInt64 {
			return false
		}
	}
	return true
}

func absU(x int64) uint64 {
	if x < 0 {
		return uint64(-x)
	}
	return uint64(x)
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
	case !intComparable(a.Typ, b.Typ):
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

// Neg negates a numeric vector. An integer kind's NULL sentinel is its
// minimum, whose negation wraps to itself, so NULL stays NULL and every
// other value negates in range.
func Neg(a *Vector) (*Vector, error) {
	out := New(a.Typ, a.Len())
	switch a.Typ.Kind {
	case mtypes.KTinyInt:
		negInts(a.I8, out.I8)
	case mtypes.KSmallInt:
		negInts(a.I16, out.I16)
	case mtypes.KInt:
		negInts(a.I32, out.I32)
	case mtypes.KBigInt, mtypes.KDecimal:
		negInts(a.I64, out.I64)
	case mtypes.KDouble:
		for i, f := range a.F64 {
			out.F64[i] = -f
		}
	default:
		return nil, fmt.Errorf("vec: cannot negate %s", a.Typ)
	}
	return out, nil
}

func negInts[T intKey](xs, out []T) {
	for i, x := range xs {
		out[i] = -x
	}
}

// Abs is ABS over a numeric vector; NULL stays NULL as in Neg.
func Abs(a *Vector) (*Vector, error) {
	out := New(a.Typ, a.Len())
	switch a.Typ.Kind {
	case mtypes.KTinyInt:
		absInts(a.I8, out.I8)
	case mtypes.KSmallInt:
		absInts(a.I16, out.I16)
	case mtypes.KInt:
		absInts(a.I32, out.I32)
	case mtypes.KBigInt, mtypes.KDecimal:
		absInts(a.I64, out.I64)
	case mtypes.KDouble:
		for i, f := range a.F64 {
			out.F64[i] = math.Abs(f)
		}
	default:
		return nil, fmt.Errorf("vec: cannot take ABS of %s", a.Typ)
	}
	return out, nil
}

func absInts[T intKey](xs, out []T) {
	for i, x := range xs {
		if x < 0 {
			x = -x
		}
		out[i] = x
	}
}

// Cast converts a vector to a target type, following SQL CAST semantics. A
// value outside an integer or decimal target's range is an error wrapping
// mtypes.ErrOverflow. A scalar stays a scalar.
func Cast(v *Vector, to mtypes.Type) (*Vector, error) {
	if v.Typ == to {
		return v, nil
	}
	if v.Typ.Kind == mtypes.KVarchar && to.Kind != mtypes.KVarchar && to.Kind != mtypes.KDate {
		return nil, fmt.Errorf("vec: unsupported cast %s -> %s", v.Typ, to)
	}
	out, err := cast(v, to)
	if err != nil {
		return nil, err
	}
	out.scalar = v.scalar
	return out, nil
}

func cast(v *Vector, to mtypes.Type) (*Vector, error) {
	n := v.Len()
	if v.Typ.Kind == mtypes.KVarchar && to.Kind == mtypes.KVarchar {
		return &Vector{Typ: to, Str: v.Str}, nil
	}
	out := New(to, n)
	overflow := fmt.Errorf("vec: cast %s -> %s: %w", v.Typ, to, mtypes.ErrOverflow)
	switch to.Kind {
	case mtypes.KDouble:
		copy(out.F64, AsFloats(v))
	case mtypes.KBigInt, mtypes.KInt, mtypes.KSmallInt, mtypes.KTinyInt:
		src := v
		switch v.Typ.Kind {
		case mtypes.KDouble:
			src = New(mtypes.BigInt, n)
			for i, f := range v.F64 {
				switch {
				case f != f:
					src.I64[i] = mtypes.NullInt64
				case f <= -1<<63 || f >= 1<<63:
					return nil, overflow
				default:
					src.I64[i] = int64(f)
				}
			}
		case mtypes.KDecimal:
			src = New(mtypes.BigInt, n)
			for i, x := range v.I64 {
				src.I64[i] = mtypes.RescaleDecimal(x, v.Typ.Scale, 0)
			}
		}
		if !castInts(src, out) {
			return nil, overflow
		}
	case mtypes.KDecimal:
		switch v.Typ.Kind {
		case mtypes.KDouble:
			mult := float64(mtypes.Pow10[to.Scale])
			for i, f := range v.F64 {
				f *= mult
				switch {
				case f != f:
					out.I64[i] = mtypes.NullInt64
					continue
				case f < 0:
					f -= 0.5
				default:
					f += 0.5
				}
				if f <= -1<<63 || f >= 1<<63 {
					return nil, overflow
				}
				out.I64[i] = int64(f)
			}
		case mtypes.KDecimal:
			if to.Scale < v.Typ.Scale {
				for i, x := range v.I64 {
					out.I64[i] = mtypes.RescaleDecimal(x, v.Typ.Scale, to.Scale)
				}
			} else if !castInts(v, out) || !scaleUp(out.I64, mtypes.Pow10[to.Scale-v.Typ.Scale]) {
				return nil, overflow
			}
		default:
			if !castInts(v, out) || !scaleUp(out.I64, mtypes.Pow10[to.Scale]) {
				return nil, overflow
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
		if v.Typ.Kind == mtypes.KDouble {
			for i, f := range v.F64 {
				switch {
				case f != f:
					out.I8[i] = mtypes.NullInt8
				case f != 0:
					out.I8[i] = 1
				}
			}
			break
		}
		for i, x := range AsInts64(v) {
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

// castInts copies the integer-backed src into the integer-backed out,
// value for value, reporting false when a value lies outside out's width.
func castInts(src, out *Vector) bool {
	switch out.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		return castIntsTo(src, out.I8)
	case mtypes.KSmallInt:
		return castIntsTo(src, out.I16)
	case mtypes.KInt, mtypes.KDate:
		return castIntsTo(src, out.I32)
	}
	return castIntsTo(src, out.I64)
}

func castIntsTo[D intKey](src *Vector, dst []D) bool {
	switch src.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		return narrow(src.I8, dst)
	case mtypes.KSmallInt:
		return narrow(src.I16, dst)
	case mtypes.KInt, mtypes.KDate:
		return narrow(src.I32, dst)
	}
	return narrow(src.I64, dst)
}

// narrow converts each value of src to D, NULL to NULL, and reports false
// when a value does not survive the conversion or lands on D's sentinel.
func narrow[S, D intKey](src []S, dst []D) bool {
	ns, nd := nullOf[S](), nullOf[D]()
	var bad uint64
	for i, x := range src {
		if x == ns {
			dst[i] = nd
			continue
		}
		y := D(x)
		bad |= b2u(int64(y) != int64(x)) | b2u(y == nd)
		dst[i] = y
	}
	return bad == 0
}

// scaleUp multiplies every non-NULL value by m, reporting false when a
// product leaves int64 or lands on its sentinel.
func scaleUp(xs []int64, m int64) bool {
	lim := uint64(math.MaxInt64 / m)
	var bad uint64
	for i, x := range xs {
		if x != mtypes.NullInt64 {
			bad |= b2u(uint64(x)+lim > 2*lim)
			xs[i] = x * m
		}
	}
	return bad == 0
}
