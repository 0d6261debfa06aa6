// Package vec implements the vectorized (column-at-a-time) kernel library of
// monetlite: typed vectors, candidate lists (selection vectors of row ids),
// and the bulk operators the MAL interpreter is built from — selections,
// arithmetic maps, hashing/grouping, joins, sorts and aggregates.
//
// A Vector is a tightly packed array of one physical type; NULLs are
// in-domain sentinel values (see package mtypes). A candidate list is a
// strictly increasing []int32 of qualifying row positions; nil means
// "all rows".
//
// Invariants every kernel upholds:
//
//   - NULL/NaN and -0.0 canonicalization: for DOUBLE columns, every NaN
//     payload is SQL NULL (mtypes.IsNullF64), and kernels canonicalize
//     before hashing, encoding or comparing — a non-stock NaN payload
//     groups, joins and sorts exactly like the stock sentinel. -0.0 is
//     +0.0, never NULL: it groups, joins and sorts as +0.0 (FloatKey is the
//     key payload of a double). NULL never matches a join key,
//     groups with itself in GROUP BY, and sorts smallest (first ascending,
//     last descending); the sort kernels check NULL explicitly per kind
//     rather than relying on the sentinel values being domain minima.
//   - Determinism: kernels produce identical output for identical input —
//     group ids are assigned in first-appearance order, join tables emit
//     match chains in build order, and sorts are stable (ties keep input
//     order). This is what lets a chunked run (which concatenates per-chunk
//     results in chunk order) promise output *identical* to the one-chunk
//     run, not merely equivalent.
//   - Kernel / oracle pairs: GroupBy, direct-addressed or hashed, vs
//     GroupByRefine (refine_test.go), the join table at every partition
//     count, with and without its key filter, vs a nested-loop oracle
//     (oahash_test.go), the coded sort kernels (sortkernels.go) vs SortOrder.
//     The oracle is the executable specification the randomized
//     differential tests compare against; SortOrder stays exported only so
//     the engine's sort fuzzer can call it, and no engine path does.
package vec

import (
	"fmt"

	"monetlite/internal/mtypes"
)

// Vector is a tightly packed, typed column of values. Exactly one of the
// payload slices is non-nil, chosen by Typ.Kind:
//
//	KBool, KTinyInt          -> I8
//	KSmallInt                -> I16
//	KInt, KDate              -> I32
//	KBigInt, KDecimal        -> I64
//	KDouble                  -> F64
//	KVarchar                 -> Str
type Vector struct {
	Typ mtypes.Type
	I8  []int8
	I16 []int16
	I32 []int32
	I64 []int64
	F64 []float64
	Str []string
}

// New allocates a zeroed vector of n values.
func New(typ mtypes.Type, n int) *Vector {
	v := &Vector{Typ: typ}
	switch typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		v.I8 = make([]int8, n)
	case mtypes.KSmallInt:
		v.I16 = make([]int16, n)
	case mtypes.KInt, mtypes.KDate:
		v.I32 = make([]int32, n)
	case mtypes.KBigInt, mtypes.KDecimal:
		v.I64 = make([]int64, n)
	case mtypes.KDouble:
		v.F64 = make([]float64, n)
	case mtypes.KVarchar:
		v.Str = make([]string, n)
	default:
		panic(fmt.Sprintf("vec: cannot allocate vector of kind %d", typ.Kind))
	}
	return v
}

// NewCap allocates an empty vector with the given capacity.
func NewCap(typ mtypes.Type, capacity int) *Vector {
	v := New(typ, capacity)
	v.truncate(0)
	return v
}

func (v *Vector) truncate(n int) {
	v.I8 = v.I8[:min(n, len(v.I8))]
	v.I16 = v.I16[:min(n, len(v.I16))]
	v.I32 = v.I32[:min(n, len(v.I32))]
	v.I64 = v.I64[:min(n, len(v.I64))]
	v.F64 = v.F64[:min(n, len(v.F64))]
	v.Str = v.Str[:min(n, len(v.Str))]
}

// Len returns the number of values in the vector.
func (v *Vector) Len() int {
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		return len(v.I8)
	case mtypes.KSmallInt:
		return len(v.I16)
	case mtypes.KInt, mtypes.KDate:
		return len(v.I32)
	case mtypes.KBigInt, mtypes.KDecimal:
		return len(v.I64)
	case mtypes.KDouble:
		return len(v.F64)
	case mtypes.KVarchar:
		return len(v.Str)
	}
	return 0
}

// IsNull reports whether position i holds the NULL sentinel.
func (v *Vector) IsNull(i int) bool {
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		return v.I8[i] == mtypes.NullInt8
	case mtypes.KSmallInt:
		return v.I16[i] == mtypes.NullInt16
	case mtypes.KInt, mtypes.KDate:
		return v.I32[i] == mtypes.NullInt32
	case mtypes.KBigInt, mtypes.KDecimal:
		return v.I64[i] == mtypes.NullInt64
	case mtypes.KDouble:
		return mtypes.IsNullF64(v.F64[i])
	case mtypes.KVarchar:
		return v.Str[i] == StrNull
	}
	return false
}

// StrNull is the in-domain NULL sentinel for VARCHAR columns, mirroring
// MonetDB's "\200" nil string (a byte sequence that cannot appear in valid
// UTF-8 input).
const StrNull = "\x80"

// SetNull stores the NULL sentinel at position i.
func (v *Vector) SetNull(i int) {
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		v.I8[i] = mtypes.NullInt8
	case mtypes.KSmallInt:
		v.I16[i] = mtypes.NullInt16
	case mtypes.KInt, mtypes.KDate:
		v.I32[i] = mtypes.NullInt32
	case mtypes.KBigInt, mtypes.KDecimal:
		v.I64[i] = mtypes.NullInt64
	case mtypes.KDouble:
		v.F64[i] = mtypes.NullFloat64()
	case mtypes.KVarchar:
		v.Str[i] = StrNull
	}
}

// Value boxes position i as an mtypes.Value (row-wise escape hatch).
func (v *Vector) Value(i int) mtypes.Value {
	if v.IsNull(i) {
		return mtypes.NullValue(v.Typ)
	}
	val := mtypes.Value{Typ: v.Typ}
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		val.I = int64(v.I8[i])
	case mtypes.KSmallInt:
		val.I = int64(v.I16[i])
	case mtypes.KInt, mtypes.KDate:
		val.I = int64(v.I32[i])
	case mtypes.KBigInt, mtypes.KDecimal:
		val.I = v.I64[i]
	case mtypes.KDouble:
		val.F = v.F64[i]
	case mtypes.KVarchar:
		val.S = v.Str[i]
	}
	return val
}

// Set stores a boxed value at position i; the value must match the vector's
// kind (integer-backed kinds are interchangeable within range).
func (v *Vector) Set(i int, val mtypes.Value) {
	if val.Null {
		v.SetNull(i)
		return
	}
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		v.I8[i] = int8(val.I)
	case mtypes.KSmallInt:
		v.I16[i] = int16(val.I)
	case mtypes.KInt, mtypes.KDate:
		v.I32[i] = int32(val.I)
	case mtypes.KBigInt, mtypes.KDecimal:
		if val.Typ.Kind == mtypes.KDecimal && v.Typ.Kind == mtypes.KDecimal && val.Typ.Scale != v.Typ.Scale {
			v.I64[i] = mtypes.RescaleDecimal(val.I, val.Typ.Scale, v.Typ.Scale)
		} else {
			v.I64[i] = val.I
		}
	case mtypes.KDouble:
		if val.Typ.Kind == mtypes.KDouble {
			v.F64[i] = val.F
		} else {
			v.F64[i] = val.AsFloat()
		}
	case mtypes.KVarchar:
		v.Str[i] = val.S
	}
}

// AppendValue grows the vector by one boxed value.
func (v *Vector) AppendValue(val mtypes.Value) {
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		v.I8 = append(v.I8, 0)
	case mtypes.KSmallInt:
		v.I16 = append(v.I16, 0)
	case mtypes.KInt, mtypes.KDate:
		v.I32 = append(v.I32, 0)
	case mtypes.KBigInt, mtypes.KDecimal:
		v.I64 = append(v.I64, 0)
	case mtypes.KDouble:
		v.F64 = append(v.F64, 0)
	case mtypes.KVarchar:
		v.Str = append(v.Str, "")
	}
	v.Set(v.Len()-1, val)
}

// Const materializes a constant vector of n copies of val.
func Const(val mtypes.Value, n int) *Vector {
	v := New(val.Typ, n)
	for i := 0; i < n; i++ {
		v.Set(i, val)
	}
	return v
}

// Slice returns a view of rows [lo, hi) sharing the underlying arrays.
func (v *Vector) Slice(lo, hi int) *Vector {
	out := &Vector{Typ: v.Typ}
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		out.I8 = v.I8[lo:hi]
	case mtypes.KSmallInt:
		out.I16 = v.I16[lo:hi]
	case mtypes.KInt, mtypes.KDate:
		out.I32 = v.I32[lo:hi]
	case mtypes.KBigInt, mtypes.KDecimal:
		out.I64 = v.I64[lo:hi]
	case mtypes.KDouble:
		out.F64 = v.F64[lo:hi]
	case mtypes.KVarchar:
		out.Str = v.Str[lo:hi]
	}
	return out
}

// Clone deep-copies the vector.
func (v *Vector) Clone() *Vector {
	out := New(v.Typ, v.Len())
	copy(out.I8, v.I8)
	copy(out.I16, v.I16)
	copy(out.I32, v.I32)
	copy(out.I64, v.I64)
	copy(out.F64, v.F64)
	copy(out.Str, v.Str)
	return out
}

// Gather materializes v at the given candidate positions (nil = identity
// copy-free view is NOT taken; Gather always returns a fresh vector when
// cands != nil, and v itself when cands == nil).
func Gather(v *Vector, cands []int32) *Vector {
	if cands == nil {
		return v
	}
	out := New(v.Typ, len(cands))
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		gatherInto(v.I8, cands, out.I8)
	case mtypes.KSmallInt:
		gatherInto(v.I16, cands, out.I16)
	case mtypes.KInt, mtypes.KDate:
		gatherInto(v.I32, cands, out.I32)
	case mtypes.KBigInt, mtypes.KDecimal:
		gatherInto(v.I64, cands, out.I64)
	case mtypes.KDouble:
		gatherInto(v.F64, cands, out.F64)
	case mtypes.KVarchar:
		gatherInto(v.Str, cands, out.Str)
	}
	return out
}

func gatherInto[T any](data []T, cands []int32, out []T) {
	for i, c := range cands {
		out[i] = data[c]
	}
}

// GatherOuter is Gather for outer-join pair lists: a negative position (a row
// with no match on this side) yields NULL.
func GatherOuter(v *Vector, cands []int32) *Vector {
	out := New(v.Typ, len(cands))
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		gatherOuterInto(v.I8, cands, out.I8, mtypes.NullInt8)
	case mtypes.KSmallInt:
		gatherOuterInto(v.I16, cands, out.I16, mtypes.NullInt16)
	case mtypes.KInt, mtypes.KDate:
		gatherOuterInto(v.I32, cands, out.I32, mtypes.NullInt32)
	case mtypes.KBigInt, mtypes.KDecimal:
		gatherOuterInto(v.I64, cands, out.I64, mtypes.NullInt64)
	case mtypes.KDouble:
		gatherOuterInto(v.F64, cands, out.F64, mtypes.NullFloat64())
	case mtypes.KVarchar:
		gatherOuterInto(v.Str, cands, out.Str, StrNull)
	}
	return out
}

func gatherOuterInto[T any](data []T, cands []int32, out []T, null T) {
	for i, c := range cands {
		if c < 0 {
			out[i] = null
		} else {
			out[i] = data[c]
		}
	}
}

// Bitmap is a fixed-size bitset over row ids.
type Bitmap []uint64

// NewBitmap returns an all-clear bitmap able to hold n bits.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Set marks bit i.
func (b Bitmap) Set(i int32) { b[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether bit i is marked.
func (b Bitmap) Get(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Or marks in b every bit marked in o (same size).
func (b Bitmap) Or(o Bitmap) {
	for w, x := range o {
		b[w] |= x
	}
}

// AppendVec grows v in place by o's values (amortized via Go slice growth).
// Callers relying on snapshot sharing must ensure the extended region is
// never observed by older readers (see internal/storage's append contract).
func (v *Vector) AppendVec(o *Vector) {
	v.I8 = append(v.I8, o.I8...)
	v.I16 = append(v.I16, o.I16...)
	v.I32 = append(v.I32, o.I32...)
	v.I64 = append(v.I64, o.I64...)
	v.F64 = append(v.F64, o.F64...)
	v.Str = append(v.Str, o.Str...)
}

// Concat concatenates vectors of identical type into one (chunk merge).
func Concat(vs ...*Vector) *Vector {
	if len(vs) == 1 {
		return vs[0]
	}
	total := 0
	for _, v := range vs {
		total += v.Len()
	}
	out := NewCap(vs[0].Typ, total)
	for _, v := range vs {
		out.I8 = append(out.I8, v.I8...)
		out.I16 = append(out.I16, v.I16...)
		out.I32 = append(out.I32, v.I32...)
		out.I64 = append(out.I64, v.I64...)
		out.F64 = append(out.F64, v.F64...)
		out.Str = append(out.Str, v.Str...)
	}
	return out
}

// Range returns the candidate list [0,n) materialized. Most kernels accept
// nil to mean "all rows"; Range is for callers that need it explicit.
func Range(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// NumCands returns the effective number of candidates for a vector of length
// n and candidate list cands (nil = all).
func NumCands(n int, cands []int32) int {
	if cands == nil {
		return n
	}
	return len(cands)
}

// AsFloats converts any numeric vector to []float64 (nulls -> NaN). The
// returned slice aliases v.F64 when v is already a DOUBLE vector.
func AsFloats(v *Vector) []float64 {
	switch v.Typ.Kind {
	case mtypes.KDouble:
		return v.F64
	case mtypes.KDecimal:
		out := make([]float64, len(v.I64))
		div := float64(mtypes.Pow10[v.Typ.Scale])
		for i, x := range v.I64 {
			if x == mtypes.NullInt64 {
				out[i] = mtypes.NullFloat64()
			} else {
				out[i] = float64(x) / div
			}
		}
		return out
	case mtypes.KBigInt:
		out := make([]float64, len(v.I64))
		for i, x := range v.I64 {
			if x == mtypes.NullInt64 {
				out[i] = mtypes.NullFloat64()
			} else {
				out[i] = float64(x)
			}
		}
		return out
	case mtypes.KInt, mtypes.KDate:
		out := make([]float64, len(v.I32))
		for i, x := range v.I32 {
			if x == mtypes.NullInt32 {
				out[i] = mtypes.NullFloat64()
			} else {
				out[i] = float64(x)
			}
		}
		return out
	case mtypes.KSmallInt:
		out := make([]float64, len(v.I16))
		for i, x := range v.I16 {
			if x == mtypes.NullInt16 {
				out[i] = mtypes.NullFloat64()
			} else {
				out[i] = float64(x)
			}
		}
		return out
	case mtypes.KBool, mtypes.KTinyInt:
		out := make([]float64, len(v.I8))
		for i, x := range v.I8 {
			if x == mtypes.NullInt8 {
				out[i] = mtypes.NullFloat64()
			} else {
				out[i] = float64(x)
			}
		}
		return out
	}
	panic("vec: AsFloats on non-numeric vector")
}

// AsInts64 converts any integer-backed vector to []int64 preserving null
// sentinels. The returned slice aliases v.I64 for BIGINT/DECIMAL vectors.
func AsInts64(v *Vector) []int64 {
	switch v.Typ.Kind {
	case mtypes.KBigInt, mtypes.KDecimal:
		return v.I64
	case mtypes.KInt, mtypes.KDate:
		out := make([]int64, len(v.I32))
		for i, x := range v.I32 {
			if x == mtypes.NullInt32 {
				out[i] = mtypes.NullInt64
			} else {
				out[i] = int64(x)
			}
		}
		return out
	case mtypes.KSmallInt:
		out := make([]int64, len(v.I16))
		for i, x := range v.I16 {
			if x == mtypes.NullInt16 {
				out[i] = mtypes.NullInt64
			} else {
				out[i] = int64(x)
			}
		}
		return out
	case mtypes.KBool, mtypes.KTinyInt:
		out := make([]int64, len(v.I8))
		for i, x := range v.I8 {
			if x == mtypes.NullInt8 {
				out[i] = mtypes.NullInt64
			} else {
				out[i] = int64(x)
			}
		}
		return out
	}
	panic("vec: AsInts64 on non-integer vector")
}
