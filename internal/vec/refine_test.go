package vec

import (
	"math"

	"monetlite/internal/mtypes"
)

// This file holds the MonetDB-style iterative group refinement path. It was
// the engine's grouping implementation before the open-addressing table in
// oahash.go replaced it; it is kept as the test oracle — the cross-check
// tests assert that GroupBy and GroupByRefine produce identical groupings
// (including group-id numbering, which both assign in first-appearance order
// of the composite key).

// GroupByRefine assigns group ids to the rows of a multi-column key using
// iterative group refinement: start with one group and refine it
// per key column, allocating a fresh map per column. Semantics and output
// numbering match GroupBy exactly; GroupBy is a single-pass replacement.
//
// SQL semantics: NULL keys form their own group (NULLs group together).
func GroupByRefine(keys []*Vector) (gids []int32, ngroups int, reprs []int32) {
	gids = make([]int32, keys[0].Len())
	ngroups = 1
	for _, key := range keys {
		gids, ngroups = refineGroups(key, gids, ngroups)
	}
	reprs = make([]int32, ngroups)
	seen := make([]bool, ngroups)
	found := 0
	for k, g := range gids {
		if !seen[g] {
			seen[g] = true
			reprs[g] = int32(k)
			found++
			if found == ngroups {
				break
			}
		}
	}
	return gids, ngroups, reprs
}

type numGroupKey struct {
	g int32
	v int64
}

type strGroupKey struct {
	g int32
	v string
}

// refineGroups splits the current grouping by one more key column.
func refineGroups(key *Vector, gids []int32, ngroups int) ([]int32, int) {
	n := len(gids)
	out := make([]int32, n)
	next := int32(0)
	if key.Typ.Kind == mtypes.KVarchar {
		m := make(map[strGroupKey]int32, ngroups*2)
		for k := 0; k < n; k++ {
			gk := strGroupKey{gids[k], key.Str[k]}
			id, ok := m[gk]
			if !ok {
				id = next
				next++
				m[gk] = id
			}
			out[k] = id
		}
		return out, int(next)
	}
	m := make(map[numGroupKey]int32, ngroups*2)
	var payload func(i int) int64
	switch key.Typ.Kind {
	case mtypes.KDouble:
		payload = func(i int) int64 {
			f := key.F64[i]
			if mtypes.IsNullF64(f) {
				return mtypes.NullInt64 // canonical NULL payload: -0.0's bits, which no key keeps
			}
			if f == 0 {
				f = 0 // -0.0 equals +0.0
			}
			return int64(math.Float64bits(f))
		}
	case mtypes.KBigInt, mtypes.KDecimal:
		payload = func(i int) int64 { return key.I64[i] }
	case mtypes.KInt, mtypes.KDate:
		payload = func(i int) int64 { return int64(key.I32[i]) }
	case mtypes.KSmallInt:
		payload = func(i int) int64 { return int64(key.I16[i]) }
	default:
		payload = func(i int) int64 { return int64(key.I8[i]) }
	}
	for k := 0; k < n; k++ {
		gk := numGroupKey{gids[k], payload(k)}
		id, ok := m[gk]
		if !ok {
			id = next
			next++
			m[gk] = id
		}
		out[k] = id
	}
	return out, int(next)
}

// numKeyAt extracts the canonical int64 payload of a numeric join key.
// Doubles use their bit pattern; decimals their scaled integer (callers must
// align scales before joining — the planner does). It is the brute-force
// join oracle's reference definition of the canonical payload encoding.
func numKeyAt(v *Vector, i int) (int64, bool) {
	switch v.Typ.Kind {
	case mtypes.KDouble:
		f := v.F64[i]
		if mtypes.IsNullF64(f) {
			return 0, true
		}
		if f == 0 {
			f = 0 // -0.0 equals +0.0
		}
		return int64(math.Float64bits(f)), false
	case mtypes.KBigInt, mtypes.KDecimal:
		x := v.I64[i]
		return x, x == mtypes.NullInt64
	case mtypes.KInt, mtypes.KDate:
		x := v.I32[i]
		return int64(x), x == mtypes.NullInt32
	case mtypes.KSmallInt:
		x := v.I16[i]
		return int64(x), x == mtypes.NullInt16
	default:
		x := v.I8[i]
		return int64(x), x == mtypes.NullInt8
	}
}
