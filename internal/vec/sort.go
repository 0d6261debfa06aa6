package vec

import (
	"sort"
	"strings"

	"monetlite/internal/mtypes"
)

// SortKey describes one ORDER BY key over a materialized vector.
type SortKey struct {
	Vec  *Vector
	Desc bool
}

// SortOrder computes the stable permutation of [0,n) that orders the rows by
// the given keys. NULL sorts smallest (first ascending, last descending),
// matching MonetDB. It compares through one closure per key and is the
// executable specification the coded sort kernels (sortkernels.go) are
// tested against; no engine path calls it.
func SortOrder(keys []SortKey, n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	cmps := make([]func(a, b int32) int, len(keys))
	for k, key := range keys {
		cmps[k] = comparator(key.Vec)
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, b := order[x], order[y]
		for k, key := range keys {
			r := cmps[k](a, b)
			if r == 0 {
				continue
			}
			if key.Desc {
				return r > 0
			}
			return r < 0
		}
		return false
	})
	return order
}

// comparator builds a typed three-way row comparator with NULL-smallest
// semantics. Every kind checks NULL explicitly rather than leaning on the
// in-domain sentinel happening to be the domain minimum: the sentinels of the
// integer family are MinIntN today, but the ordering contract (NULL first
// ascending, last descending) must not silently depend on that choice.
func comparator(v *Vector) func(a, b int32) int {
	switch v.Typ.Kind {
	case mtypes.KVarchar:
		return func(a, b int32) int {
			x, y := v.Str[a], v.Str[b]
			xn, yn := x == StrNull, y == StrNull
			if xn || yn {
				return nullCmp(xn, yn)
			}
			return strings.Compare(x, y)
		}
	case mtypes.KDouble:
		return func(a, b int32) int {
			x, y := v.F64[a], v.F64[b]
			xn, yn := mtypes.IsNullF64(x), mtypes.IsNullF64(y)
			if xn || yn {
				return nullCmp(xn, yn)
			}
			return cmpOrdered(x, y)
		}
	case mtypes.KBigInt, mtypes.KDecimal:
		return func(a, b int32) int {
			x, y := v.I64[a], v.I64[b]
			xn, yn := x == mtypes.NullInt64, y == mtypes.NullInt64
			if xn || yn {
				return nullCmp(xn, yn)
			}
			return cmpOrdered(x, y)
		}
	case mtypes.KInt, mtypes.KDate:
		return func(a, b int32) int {
			x, y := v.I32[a], v.I32[b]
			xn, yn := x == mtypes.NullInt32, y == mtypes.NullInt32
			if xn || yn {
				return nullCmp(xn, yn)
			}
			return cmpOrdered(x, y)
		}
	case mtypes.KSmallInt:
		return func(a, b int32) int {
			x, y := v.I16[a], v.I16[b]
			xn, yn := x == mtypes.NullInt16, y == mtypes.NullInt16
			if xn || yn {
				return nullCmp(xn, yn)
			}
			return cmpOrdered(x, y)
		}
	default:
		return func(a, b int32) int {
			x, y := v.I8[a], v.I8[b]
			xn, yn := x == mtypes.NullInt8, y == mtypes.NullInt8
			if xn || yn {
				return nullCmp(xn, yn)
			}
			return cmpOrdered(x, y)
		}
	}
}

func cmpOrdered[T number](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	default:
		return 0
	}
}

func nullCmp(xn, yn bool) int {
	switch {
	case xn && yn:
		return 0
	case xn:
		return -1
	default:
		return 1
	}
}

// SortedOrderOf returns the stable ascending order permutation of a single
// column — this is exactly the payload of a CREATE ORDER INDEX.
func SortedOrderOf(v *Vector) []int32 {
	order := Range(v.Len())
	NewCodedSort([]SortKey{{Vec: v}}, v.Len()).Sort(order)
	return order
}

// MedianFloats computes the exact median of the non-NaN values (sort-based,
// blocking). Returns NaN for an empty input.
func MedianFloats(vals []float64) float64 {
	clean := make([]float64, 0, len(vals))
	for _, f := range vals {
		if !mtypes.IsNullF64(f) {
			clean = append(clean, f)
		}
	}
	if len(clean) == 0 {
		return mtypes.NullFloat64()
	}
	sort.Float64s(clean)
	mid := len(clean) / 2
	if len(clean)%2 == 1 {
		return clean[mid]
	}
	return (clean[mid-1] + clean[mid]) / 2
}

// SearchOrder returns the first position of order, a permutation sorting v
// (NULLs first), whose value is past val: above it, or at or above it when
// atOrAbove. This is the ORDER INDEX lookup.
func SearchOrder(v *Vector, order []int32, val mtypes.Value, atOrAbove bool) int {
	val = CoerceConst(v, val)
	return sort.Search(len(order), func(i int) bool {
		c := mtypes.Compare(v.Value(int(order[i])), val)
		return c > 0 || atOrAbove && c == 0
	})
}

// BinarySearchRange finds, on a column sorted via the order permutation, the
// half-open window [lo, hi) of order positions whose values v satisfy
// lo <= v <= hi (inclusive flags as given); hi < lo when the range is empty
// because loV > hiV.
func BinarySearchRange(v *Vector, order []int32, loV, hiV mtypes.Value, loIncl, hiIncl bool) (int, int) {
	return SearchOrder(v, order, loV, loIncl), SearchOrder(v, order, hiV, !hiIncl)
}
