package vec

import (
	"fmt"

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
		for k, g := range gids {
			if !vals.IsNull(k) {
				out.I64[g]++
			}
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
	if !vals.Typ.IsNumeric() {
		return nil, fmt.Errorf("vec: SUM/AVG over non-numeric type %s", vals.Typ)
	}
	out := New(AggResultType(AggSum, vals.Typ), ngroups)
	nonNull := make([]bool, ngroups)
	if vals.Typ.Kind == mtypes.KDouble {
		for k, g := range gids {
			if f := vals.F64[k]; !mtypes.IsNullF64(f) {
				out.F64[g] += f
				nonNull[g] = true
			}
		}
	} else {
		for k, x := range AsInts64(vals) {
			if x != mtypes.NullInt64 {
				out.I64[gids[k]] += x
				nonNull[gids[k]] = true
			}
		}
	}
	for g, ok := range nonNull {
		if !ok {
			out.SetNull(g)
		}
	}
	return out, nil
}

func aggMinMax(kind AggKind, vals *Vector, gids []int32, ngroups int) (*Vector, error) {
	out := New(vals.Typ, ngroups)
	for g := 0; g < ngroups; g++ {
		out.SetNull(g)
	}
	better := func(cur, cand mtypes.Value) bool {
		if cur.Null {
			return true
		}
		c := mtypes.Compare(cand, cur)
		if kind == AggMin {
			return c < 0
		}
		return c > 0
	}
	for k, g := range gids {
		if vals.IsNull(k) {
			continue
		}
		cand := vals.Value(k)
		if better(out.Value(int(g)), cand) {
			out.Set(int(g), cand)
		}
	}
	return out, nil
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
		init := make([]bool, ngroups)
		for pi, p := range partials {
			for g := 0; g < p.Len(); g++ {
				if p.IsNull(g) {
					continue
				}
				gg := mapped(pi, g)
				if rt.Kind == mtypes.KDouble {
					if !init[gg] {
						out.F64[gg] = 0
					}
					out.F64[gg] += p.F64[g]
				} else {
					if !init[gg] {
						out.I64[gg] = 0
					}
					out.I64[gg] += p.I64[g]
				}
				init[gg] = true
			}
		}
		for g, ok := range init {
			if !ok {
				out.SetNull(g)
			}
		}
		return out, nil
	default: // min/max
		for g := 0; g < ngroups; g++ {
			out.SetNull(g)
		}
		for pi, p := range partials {
			for g := 0; g < p.Len(); g++ {
				if p.IsNull(g) {
					continue
				}
				gg := int(mapped(pi, g))
				cand := p.Value(g)
				cur := out.Value(gg)
				take := cur.Null
				if !take {
					c := mtypes.Compare(cand, cur)
					take = (kind == AggMin && c < 0) || (kind == AggMax && c > 0)
				}
				if take {
					out.Set(gg, cand)
				}
			}
		}
		return out, nil
	}
}
