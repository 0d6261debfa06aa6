package vec

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"monetlite/internal/mtypes"
)

// AggKind enumerates the aggregate functions.
type AggKind uint8

const (
	AggSum AggKind = iota
	AggCount
	AggCountStar
	AggMin
	AggMax
	AggAvg
	AggMedian
)

// String renders the aggregate in SQL syntax.
func (k AggKind) String() string {
	return [...]string{"SUM", "COUNT", "COUNT(*)", "MIN", "MAX", "AVG", "MEDIAN"}[k]
}

// AggResultType computes the SQL result type of an aggregate over input type t.
func AggResultType(kind AggKind, t mtypes.Type) mtypes.Type {
	switch kind {
	case AggCount, AggCountStar:
		return mtypes.BigInt
	case AggAvg, AggMedian:
		return mtypes.Double
	case AggSum:
		switch t.Kind {
		case mtypes.KDouble:
			return mtypes.Double
		case mtypes.KDecimal:
			return mtypes.Decimal(18, t.Scale)
		default:
			return mtypes.BigInt
		}
	default: // min/max keep the input type
		return t
	}
}

// Aggregate computes one aggregate over vals, partitioned by gids (which are
// positionally aligned with vals; ngroups is the number of partitions).
// For AggCountStar vals may be nil. NULL inputs are skipped; empty groups
// yield NULL (COUNT yields 0). AVG is not computed here: it is SUM divided by
// COUNT, once, by the caller.
func Aggregate(kind AggKind, vals *Vector, gids []int32, ngroups int) (*Vector, error) {
	switch kind {
	case AggCountStar:
		out := New(mtypes.BigInt, ngroups)
		for _, g := range gids {
			out.I64[g]++
		}
		return out, nil
	case AggCount:
		out := New(mtypes.BigInt, ngroups)
		switch vals.Typ.Kind {
		case mtypes.KBool, mtypes.KTinyInt:
			countNonNull(vals.I8, mtypes.NullInt8, gids, out.I64)
		case mtypes.KSmallInt:
			countNonNull(vals.I16, mtypes.NullInt16, gids, out.I64)
		case mtypes.KInt, mtypes.KDate:
			countNonNull(vals.I32, mtypes.NullInt32, gids, out.I64)
		case mtypes.KBigInt, mtypes.KDecimal:
			countNonNull(vals.I64, mtypes.NullInt64, gids, out.I64)
		case mtypes.KDouble:
			countNonNull(vals.F64, mtypes.NullFloat64(), gids, out.I64)
		case mtypes.KVarchar:
			countNonNull(vals.Str, StrNull, gids, out.I64)
		}
		return out, nil
	case AggSum:
		return aggSum(vals, gids, ngroups)
	case AggMin, AggMax:
		return aggMinMax(kind, vals, gids, ngroups)
	case AggMedian:
		fs := AsFloats(vals)
		buckets := make([][]float64, ngroups)
		for k, g := range gids {
			if !mtypes.IsNullF64(fs[k]) {
				buckets[g] = append(buckets[g], fs[k])
			}
		}
		out := New(mtypes.Double, ngroups)
		for g := range buckets {
			out.F64[g] = MedianFloats(buckets[g])
		}
		return out, nil
	}
	return nil, fmt.Errorf("vec: unknown aggregate %d", kind)
}

func aggSum(vals *Vector, gids []int32, ngroups int) (*Vector, error) {
	sums, hi, err := SumGroups(vals, gids, ngroups)
	if err != nil || hi == nil {
		return sums, err
	}
	return MergeSums([]*Vector{sums}, [][]int64{hi}, nil, ngroups)
}

// SumGroups computes per-group partial SUMs over vals (positionally aligned
// with gids). Integer and decimal inputs sum on an int64 fast path with an
// OR-ed overflow flag; only when the flag is set is the input summed again
// with a carry word per group. hi is then those carry words: a group's exact
// sum is hi[g]*2^64 + uint64(sums.I64[g]), and hi[g] is math.MinInt64 for a
// group without a non-NULL value. hi is nil when the fast path held, where
// every non-NULL group's sum is exact and not the NULL sentinel. MergeSums
// turns partials into a result.
func SumGroups(vals *Vector, gids []int32, ngroups int) (*Vector, []int64, error) {
	if !vals.Typ.IsNumeric() {
		return nil, nil, fmt.Errorf("vec: SUM/AVG over non-numeric type %s", vals.Typ)
	}
	out := New(AggResultType(AggSum, vals.Typ), ngroups)
	seen := make([]bool, ngroups)
	var hi []int64
	switch vals.Typ.Kind {
	case mtypes.KDouble:
		for k, g := range gids {
			if f := vals.F64[k]; !mtypes.IsNullF64(f) {
				out.F64[g] += f
				seen[g] = true
			}
		}
	case mtypes.KTinyInt:
		hi = sumInts(vals.I8, gids, out.I64, seen)
	case mtypes.KSmallInt:
		hi = sumInts(vals.I16, gids, out.I64, seen)
	case mtypes.KInt:
		hi = sumInts(vals.I32, gids, out.I64, seen)
	default:
		hi = sumInts(vals.I64, gids, out.I64, seen)
	}
	for g, ok := range seen {
		if !ok {
			out.SetNull(g)
			if hi != nil {
				hi[g] = math.MinInt64
			}
		}
	}
	return out, hi, nil
}

// sumInts adds xs into sums per group; see SumGroups. A final sum equal to
// the NULL sentinel also counts as overflowed.
func sumInts[T intKey](xs []T, gids []int32, sums []int64, seen []bool) []int64 {
	null := nullOf[T]()
	var of int64 // sign bit set by a signed overflow
	for k, x := range xs {
		if x == null {
			continue
		}
		g := gids[k]
		s, v := sums[g], int64(x)
		r := s + v
		of |= (s ^ r) & (v ^ r)
		sums[g] = r
		seen[g] = true
	}
	if of >= 0 && !slices.Contains(sums, mtypes.NullInt64) {
		return nil
	}
	hi := make([]int64, len(sums))
	clear(sums)
	for k, x := range xs {
		if x != null {
			g, v := gids[k], int64(x)
			lo, c := bits.Add64(uint64(sums[g]), uint64(v), 0)
			sums[g] = int64(lo)
			hi[g] += int64(c) + v>>63
		}
	}
	return hi
}

// countNonNull counts per group the values that are not NULL: not the
// sentinel, and for doubles not any NaN (x != x).
func countNonNull[T comparable](xs []T, null T, gids []int32, counts []int64) {
	for k, x := range xs {
		if x != null && x == x {
			counts[gids[k]]++
		}
	}
}

// MergeSums folds partial SUMs (SumGroups) into ngroups results: group g of
// partial p adds into gidMaps[p][g] (nil gidMaps: the numbering is aligned).
// his[p] holds partial p's carry words or is nil (his itself may be nil).
// The fold runs on int64 with an OR-ed flag, and only a flagged fold or a
// partial with carry words is redone with a carry word per group, so the
// result is exact whenever it fits and does not depend on how the input was
// chunked. A sum outside the result type, or equal to its NULL sentinel, is
// an error wrapping mtypes.ErrOverflow.
func MergeSums(parts []*Vector, his [][]int64, gidMaps [][]int32, ngroups int) (*Vector, error) {
	rt := parts[0].Typ
	out := New(rt, ngroups)
	seen := make([]bool, ngroups)
	mapped := func(pi, g int) int32 {
		if gidMaps == nil {
			return int32(g)
		}
		return gidMaps[pi][g]
	}
	if rt.Kind == mtypes.KDouble {
		for pi, p := range parts {
			for g, f := range p.F64 {
				if !mtypes.IsNullF64(f) {
					gg := mapped(pi, g)
					out.F64[gg] += f
					seen[gg] = true
				}
			}
		}
		nullUnseen(out, seen)
		return out, nil
	}
	wide := false
	for _, h := range his {
		wide = wide || h != nil
	}
	if !wide {
		var of uint64
		for pi, p := range parts {
			for g, x := range p.I64 {
				if x != mtypes.NullInt64 {
					gg := mapped(pi, g)
					s := out.I64[gg]
					r := s + x
					of |= uint64((s^r)&(x^r))>>63 | b2u(r == mtypes.NullInt64)
					out.I64[gg] = r
					seen[gg] = true
				}
			}
		}
		if of == 0 {
			nullUnseen(out, seen)
			return out, nil
		}
		clear(out.I64)
	}
	hi := make([]int64, ngroups)
	for pi, p := range parts {
		for g, x := range p.I64 {
			h := x >> 63
			if pi < len(his) && his[pi] != nil {
				h = his[pi][g]
				if h == math.MinInt64 {
					continue
				}
			} else if x == mtypes.NullInt64 {
				continue
			}
			gg := mapped(pi, g)
			lo, c := bits.Add64(uint64(out.I64[gg]), uint64(x), 0)
			out.I64[gg] = int64(lo)
			hi[gg] += h + int64(c)
			seen[gg] = true
		}
	}
	for g, x := range out.I64 {
		if seen[g] && (hi[g] != x>>63 || x == mtypes.NullInt64) {
			return nil, fmt.Errorf("vec: SUM: %w", mtypes.ErrOverflow)
		}
	}
	nullUnseen(out, seen)
	return out, nil
}

func nullUnseen(out *Vector, seen []bool) {
	for g, ok := range seen {
		if !ok {
			out.SetNull(g)
		}
	}
}

// aggMinMax is MIN/MAX: one typed loop per payload. NULL (the sentinel, or
// any NaN) is skipped, and ties keep the first value seen.
func aggMinMax(kind AggKind, vals *Vector, gids []int32, ngroups int) (*Vector, error) {
	out := New(vals.Typ, ngroups)
	isMin := kind == AggMin
	switch vals.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		minMax(vals.I8, gids, out.I8, mtypes.NullInt8, isMin)
	case mtypes.KSmallInt:
		minMax(vals.I16, gids, out.I16, mtypes.NullInt16, isMin)
	case mtypes.KInt, mtypes.KDate:
		minMax(vals.I32, gids, out.I32, mtypes.NullInt32, isMin)
	case mtypes.KBigInt, mtypes.KDecimal:
		minMax(vals.I64, gids, out.I64, mtypes.NullInt64, isMin)
	case mtypes.KDouble:
		minMax(vals.F64, gids, out.F64, mtypes.NullFloat64(), isMin)
	case mtypes.KVarchar:
		minMax(vals.Str, gids, out.Str, StrNull, isMin)
	default:
		return nil, fmt.Errorf("vec: MIN/MAX over %s", vals.Typ)
	}
	return out, nil
}

// minMax keeps per group the smallest (isMin) or largest non-NULL value.
// x != x holds only for NaN, so every NaN payload counts as NULL.
func minMax[T cmp.Ordered](xs []T, gids []int32, out []T, null T, isMin bool) {
	set := make([]bool, len(out))
	for g := range out {
		out[g] = null
	}
	for k, x := range xs {
		if x == null || x != x {
			continue
		}
		g := gids[k]
		if !set[g] || isMin && x < out[g] || !isMin && x > out[g] {
			out[g], set[g] = x, true
		}
	}
}

// MergeKeyedAggPartials merges grouped per-chunk partials whose local group
// numbering differs chunk to chunk: local group g of partial p corresponds
// to global group gidMaps[p][g] (the mapping the parallel grouped-aggregation
// merge phase derives by re-grouping the chunks' key representatives).
// gidMaps == nil means aligned numbering (local g == global g). AVG and
// MEDIAN cannot be merged from partials.
func MergeKeyedAggPartials(kind AggKind, partials []*Vector, gidMaps [][]int32, ngroups int) (*Vector, error) {
	switch kind {
	case AggAvg, AggMedian:
		return nil, fmt.Errorf("vec: %s partials cannot be merged", kind)
	}
	if len(partials) == 0 {
		return nil, fmt.Errorf("vec: no partials to merge")
	}
	if gidMaps != nil && len(gidMaps) != len(partials) {
		return nil, fmt.Errorf("vec: %d gid maps for %d partials", len(gidMaps), len(partials))
	}
	rt := partials[0].Typ
	out := New(rt, ngroups)
	// mapped returns the global group of local group g in partial pi.
	mapped := func(pi, g int) int32 {
		if gidMaps == nil {
			return int32(g)
		}
		return gidMaps[pi][g]
	}
	switch kind {
	case AggCount, AggCountStar:
		for pi, p := range partials {
			for g := 0; g < p.Len(); g++ {
				out.I64[mapped(pi, g)] += p.I64[g]
			}
		}
		return out, nil
	case AggSum:
		return MergeSums(partials, nil, gidMaps, ngroups)
	default: // min/max
		var gids []int32
		for pi, p := range partials {
			for g := 0; g < p.Len(); g++ {
				gids = append(gids, mapped(pi, g))
			}
		}
		return aggMinMax(kind, Concat(partials...), gids, ngroups)
	}
}
