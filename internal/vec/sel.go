package vec

import (
	"strings"

	"monetlite/internal/mtypes"
)

// CmpOp enumerates comparison operators used by selection and map kernels.
type CmpOp uint8

const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String renders the operator in SQL syntax.
func (op CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[op]
}

// Flip mirrors the operator for swapped operands (a op b == b op.Flip() a).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	}
	return op
}

type number interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~float64
}

// selCmp is the generic typed selection kernel: it appends to out the row ids
// (from cands, or [0,len(data)) if cands is nil) where data[i] op c holds and
// data[i] is not NULL: the null sentinel, or for doubles any NaN (x != x),
// which no sentinel comparison catches.
func selCmp[T number](data []T, op CmpOp, c T, null T, cands []int32, out []int32) []int32 {
	pred := func(x T) bool {
		if x == null || x != x {
			return false
		}
		switch op {
		case CmpEq:
			return x == c
		case CmpNe:
			return x != c
		case CmpLt:
			return x < c
		case CmpLe:
			return x <= c
		case CmpGt:
			return x > c
		default:
			return x >= c
		}
	}
	if cands == nil {
		for i, x := range data {
			if pred(x) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range cands {
		if pred(data[i]) {
			out = append(out, i)
		}
	}
	return out
}

func selRange[T number](data []T, lo, hi T, loIncl, hiIncl bool, null T, cands []int32, out []int32) []int32 {
	pred := func(x T) bool {
		if x == null {
			return false
		}
		if loIncl {
			if x < lo {
				return false
			}
		} else if x <= lo {
			return false
		}
		if hiIncl {
			return x <= hi
		}
		return x < hi
	}
	if cands == nil {
		for i, x := range data {
			if pred(x) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range cands {
		if pred(data[i]) {
			out = append(out, i)
		}
	}
	return out
}

// CoerceConst converts a constant to the physical domain of v when the
// domain holds it exactly: a DECIMAL is rescaled to a DECIMAL column's scale
// or, without a fraction, becomes an integer; an integer is scaled up for a
// DECIMAL column. A DECIMAL the domain cannot hold (1.5 on an INTEGER column,
// 1.234 on DECIMAL(9,2)) becomes a DOUBLE; a DOUBLE stays one. The kernels
// compare a DOUBLE as doubles, as the general evaluator (CmpVec) does.
func CoerceConst(v *Vector, val mtypes.Value) mtypes.Value {
	if val.Null || v.Typ.Kind == mtypes.KVarchar || v.Typ.Kind == mtypes.KDouble {
		return val
	}
	scale := 0
	if v.Typ.Kind == mtypes.KDecimal {
		scale = v.Typ.Scale
	}
	if val.Typ.Kind != mtypes.KDecimal {
		if scale > 0 && val.Typ.IsInteger() {
			return mtypes.Value{Typ: v.Typ, I: val.I * mtypes.Pow10[scale]}
		}
		return val
	}
	switch d := val.Typ.Scale - scale; {
	case d <= 0:
		return mtypes.Value{Typ: v.Typ, I: val.I * mtypes.Pow10[-d]}
	case val.I%mtypes.Pow10[d] == 0:
		return mtypes.Value{Typ: v.Typ, I: val.I / mtypes.Pow10[d]}
	}
	return mtypes.NewDouble(val.AsFloat())
}

// SelCmp returns the candidates where v op val holds (NULL never matches).
func SelCmp(v *Vector, op CmpOp, val mtypes.Value, cands []int32) []int32 {
	out := make([]int32, 0, NumCands(v.Len(), cands)/2+8)
	if val.Null {
		return out
	}
	val = CoerceConst(v, val)
	switch {
	case v.Typ.Kind == mtypes.KVarchar:
		return selStr(v.Str, op, val.S, cands, out)
	case v.Typ.Kind == mtypes.KDouble:
		return selCmp(v.F64, op, val.AsFloat(), mtypes.NullFloat64(), cands, out)
	case val.Typ.Kind == mtypes.KDouble:
		return selFloatOnInts(v, op, val.F, cands, out)
	}
	c := val.AsInt()
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		return selCmpNarrow(v.I8, op, c, mtypes.NullInt8, cands, out)
	case mtypes.KSmallInt:
		return selCmpNarrow(v.I16, op, c, mtypes.NullInt16, cands, out)
	case mtypes.KInt, mtypes.KDate:
		return selCmpNarrow(v.I32, op, c, mtypes.NullInt32, cands, out)
	}
	return selCmp(v.I64, op, c, mtypes.NullInt64, cands, out)
}

// narrowInt is an integer kind narrower than int64, whose null sentinel is
// its minimum: the values a column holds lie in [null+1, -(null+1)].
type narrowInt interface{ ~int8 | ~int16 | ~int32 }

// selCmpNarrow is selCmp for a constant that may lie outside T's range,
// where converting it to T would wrap. Such a constant is decided from the
// bounds: above the maximum, <, <= and <> keep every non-NULL row and =, >
// and >= keep none; below the minimum the mirror holds.
func selCmpNarrow[T narrowInt](data []T, op CmpOp, c int64, null T, cands []int32, out []int32) []int32 {
	minT, maxT := int64(null), -int64(null)-1
	if c >= minT && c <= maxT {
		return selCmp(data, op, T(c), null, cands, out)
	}
	below := op == CmpLt || op == CmpLe
	above := op == CmpGt || op == CmpGe
	if op == CmpNe || c > maxT && below || c < minT && above {
		return selCmp(data, CmpNe, null, null, cands, out) // every non-NULL row
	}
	return out
}

// selRangeNarrow is selRange for bounds that may lie outside T's range: they
// are clamped to it, and a range that misses it selects nothing.
func selRangeNarrow[T narrowInt](data []T, lo, hi int64, loIncl, hiIncl bool, null T, cands []int32, out []int32) []int32 {
	minT, maxT := int64(null), -int64(null)-1
	if lo > maxT || hi < minT {
		return out
	}
	if lo < minT {
		lo, loIncl = minT, true
	}
	if hi > maxT {
		hi, hiIncl = maxT, true
	}
	return selRange(data, T(lo), T(hi), loIncl, hiIncl, null, cands, out)
}

// selFloatOnInts compares an integer-backed column against a float constant.
func selFloatOnInts(v *Vector, op CmpOp, c float64, cands []int32, out []int32) []int32 {
	fs := AsFloats(v)
	return selCmp(fs, op, c, mtypes.NullFloat64(), cands, out)
}

func selStr(data []string, op CmpOp, c string, cands []int32, out []int32) []int32 {
	pred := func(x string) bool {
		if x == StrNull {
			return false
		}
		r := strings.Compare(x, c)
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
	if cands == nil {
		for i, x := range data {
			if pred(x) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range cands {
		if pred(data[i]) {
			out = append(out, i)
		}
	}
	return out
}

// SelRange returns the candidates with lo (op per loIncl) v (op per hiIncl) hi.
// Used for BETWEEN and merged range predicates; imprints accelerate this path
// at the storage layer.
func SelRange(v *Vector, lo, hi mtypes.Value, loIncl, hiIncl bool, cands []int32) []int32 {
	out := make([]int32, 0, NumCands(v.Len(), cands)/2+8)
	if lo.Null || hi.Null {
		return out
	}
	lo, hi = CoerceConst(v, lo), CoerceConst(v, hi)
	switch {
	case v.Typ.Kind == mtypes.KVarchar:
		for _, i := range candIter(v.Len(), cands) {
			x := v.Str[i]
			if x == StrNull {
				continue
			}
			okLo := x > lo.S || (loIncl && x == lo.S)
			okHi := x < hi.S || (hiIncl && x == hi.S)
			if okLo && okHi {
				out = append(out, i)
			}
		}
		return out
	case v.Typ.Kind == mtypes.KDouble:
		return selRange(v.F64, lo.AsFloat(), hi.AsFloat(), loIncl, hiIncl, mtypes.NullFloat64(), cands, out)
	case lo.Typ.Kind == mtypes.KDouble || hi.Typ.Kind == mtypes.KDouble:
		return selRange(AsFloats(v), lo.AsFloat(), hi.AsFloat(), loIncl, hiIncl, mtypes.NullFloat64(), cands, out)
	}
	l, h := lo.AsInt(), hi.AsInt()
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		return selRangeNarrow(v.I8, l, h, loIncl, hiIncl, mtypes.NullInt8, cands, out)
	case mtypes.KSmallInt:
		return selRangeNarrow(v.I16, l, h, loIncl, hiIncl, mtypes.NullInt16, cands, out)
	case mtypes.KInt, mtypes.KDate:
		return selRangeNarrow(v.I32, l, h, loIncl, hiIncl, mtypes.NullInt32, cands, out)
	}
	return selRange(v.I64, l, h, loIncl, hiIncl, mtypes.NullInt64, cands, out)
}

// candIter materializes the effective candidate list (small helper for
// non-hot paths; hot kernels use the two-branch form).
func candIter(n int, cands []int32) []int32 {
	if cands == nil {
		return Range(n)
	}
	return cands
}

// SelIn returns the candidates whose value equals one of vals.
func SelIn(v *Vector, vals []mtypes.Value, cands []int32) []int32 {
	out := make([]int32, 0, 16)
	if v.Typ.Kind == mtypes.KVarchar {
		set := make(map[string]struct{}, len(vals))
		for _, val := range vals {
			if !val.Null {
				set[val.S] = struct{}{}
			}
		}
		for _, i := range candIter(v.Len(), cands) {
			if x := v.Str[i]; x != StrNull {
				if _, ok := set[x]; ok {
					out = append(out, i)
				}
			}
		}
		return out
	}
	// Constants in the column's domain compare as its integers; if one is
	// not (CoerceConst made it a DOUBLE), the list compares as doubles.
	consts := make([]mtypes.Value, 0, len(vals))
	asFloats := v.Typ.Kind == mtypes.KDouble
	for _, val := range vals {
		if !val.Null {
			c := CoerceConst(v, val)
			consts = append(consts, c)
			asFloats = asFloats || c.Typ.Kind == mtypes.KDouble
		}
	}
	if asFloats {
		set := make(map[float64]struct{}, len(consts))
		for _, c := range consts {
			set[c.AsFloat()] = struct{}{}
		}
		fs := AsFloats(v)
		for _, i := range candIter(v.Len(), cands) {
			x := fs[i]
			if mtypes.IsNullF64(x) {
				continue
			}
			if _, ok := set[x]; ok {
				out = append(out, i)
			}
		}
		return out
	}
	set := make(map[int64]struct{}, len(consts))
	for _, c := range consts {
		set[c.AsInt()] = struct{}{}
	}
	xs := AsInts64(v)
	for _, i := range candIter(v.Len(), cands) {
		x := xs[i]
		if x == mtypes.NullInt64 {
			continue
		}
		if _, ok := set[x]; ok {
			out = append(out, i)
		}
	}
	return out
}

// SelNull / SelNotNull select by null-ness.
func SelNull(v *Vector, cands []int32) []int32 {
	out := make([]int32, 0, 8)
	for _, i := range candIter(v.Len(), cands) {
		if v.IsNull(int(i)) {
			out = append(out, i)
		}
	}
	return out
}

// SelNotNull returns the candidates holding non-NULL values.
func SelNotNull(v *Vector, cands []int32) []int32 {
	out := make([]int32, 0, NumCands(v.Len(), cands))
	for _, i := range candIter(v.Len(), cands) {
		if !v.IsNull(int(i)) {
			out = append(out, i)
		}
	}
	return out
}

// SelTrue selects the candidates where a BOOLEAN vector is true (NULL and
// false excluded). The bool vector is positionally aligned with cands when
// aligned is true (i.e. bv[k] corresponds to cands[k]); otherwise bv is
// indexed by row id.
func SelTrue(bv *Vector, cands []int32, aligned bool) []int32 {
	out := make([]int32, 0, NumCands(bv.Len(), cands)/2+8)
	if cands == nil {
		for i, x := range bv.I8 {
			if x == 1 {
				out = append(out, int32(i))
			}
		}
		return out
	}
	if aligned {
		for k, i := range cands {
			if bv.I8[k] == 1 {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range cands {
		if bv.I8[i] == 1 {
			out = append(out, i)
		}
	}
	return out
}

// SelString selects candidates whose string value satisfies pred (used by the
// engine's LIKE implementation). NULLs never match.
func SelString(v *Vector, pred func(string) bool, cands []int32) []int32 {
	out := make([]int32, 0, 16)
	if cands == nil {
		for i, x := range v.Str {
			if x != StrNull && pred(x) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range cands {
		if x := v.Str[i]; x != StrNull && pred(x) {
			out = append(out, i)
		}
	}
	return out
}

// Intersect computes the intersection of two sorted candidate lists.
func Intersect(a, b []int32) []int32 {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Union merges two sorted candidate lists (for OR predicates). A nil operand
// means "all rows", so the result is nil.
func Union(a, b []int32) []int32 {
	if a == nil || b == nil {
		return nil
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Difference returns the sorted candidates of a not present in b (for AND NOT
// rewrites). a must not be nil.
func Difference(a, b []int32) []int32 {
	if b == nil {
		return []int32{}
	}
	out := make([]int32, 0, len(a))
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}
