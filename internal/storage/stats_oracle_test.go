package storage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

// boxedComputeColStats is ComputeColStats as it was written before the typed
// min/max loop: every row boxed through Value and ordered with
// mtypes.Compare. It stays here as the oracle the typed pass is compared
// against.
func boxedComputeColStats(v *vec.Vector) *ColStats {
	n := v.Len()
	st := &ColStats{Rows: int64(n)}
	if n == 0 {
		return st
	}
	first := true
	for i := 0; i < n; i++ {
		if v.IsNull(i) {
			st.NullCount++
			continue
		}
		val := v.Value(i)
		if first {
			st.Min, st.Max = val, val
			st.HasRange = true
			first = false
			continue
		}
		if mtypes.Compare(val, st.Min) < 0 {
			st.Min = val
		}
		if mtypes.Compare(val, st.Max) > 0 {
			st.Max = val
		}
	}
	nonNull := st.Rows - st.NullCount
	if nonNull == 0 {
		return st
	}
	stride := 1
	if n > statsSampleCap {
		stride = (n + statsSampleCap - 1) / statsSampleCap
	}
	counts := make(map[mtypes.Value]int, min(n/stride+1, statsSampleCap))
	sampled := 0
	for i := 0; i < n; i += stride {
		if v.IsNull(i) {
			continue
		}
		counts[sampleKey(v, i)]++
		sampled++
	}
	if sampled == 0 {
		st.NDV = 1
		return st
	}
	d := int64(len(counts))
	if stride == 1 {
		st.NDV = d
		return st
	}
	f1 := int64(0)
	for _, c := range counts {
		if c == 1 {
			f1++
		}
	}
	est := float64(d) + float64(f1)*(float64(nonNull)-float64(sampled))/float64(sampled)
	st.NDV = int64(math.Ceil(est))
	if st.NDV < d {
		st.NDV = d
	}
	if st.NDV > nonNull {
		st.NDV = nonNull
	}
	return st
}

var statsTestTypes = []mtypes.Type{
	mtypes.Bool, mtypes.TinyInt, mtypes.SmallInt, mtypes.Int, mtypes.Date,
	mtypes.BigInt, mtypes.Decimal(12, 2), mtypes.Double, mtypes.VarcharN(20),
}

// statsTestVec builds a vector of n rows of one shape, drawing values from a
// domain of the given size with the given NULL fraction.
func statsTestVec(rng *rand.Rand, typ mtypes.Type, shape string, n int) *vec.Vector {
	domain, nullFrac := 1+rng.Intn(2*n+1), rng.Float64()*0.3
	switch shape {
	case "empty":
		n = 0
	case "one":
		n = 1
	case "allnull":
		nullFrac = 1
	case "alternating":
		domain, nullFrac = 2, 0
	}
	v := vec.New(typ, n)
	run, x := 0, 0
	for i := 0; i < n; i++ {
		switch {
		case shape == "alternating":
			x = i % 2
		case shape == "longruns" && run > 0:
			run--
		default:
			x = rng.Intn(domain) - domain/2
			if shape == "longruns" {
				run = rng.Intn(500)
			}
			if rng.Float64() < nullFrac {
				x = math.MinInt32 // marks a NULL
			}
		}
		if x == math.MinInt32 {
			v.SetNull(i)
			continue
		}
		switch typ.Kind {
		case mtypes.KBool:
			v.I8[i] = int8(x & 1)
		case mtypes.KTinyInt:
			v.I8[i] = int8(x % 100)
		case mtypes.KSmallInt:
			v.I16[i] = int16(x)
		case mtypes.KInt, mtypes.KDate:
			v.I32[i] = int32(x * 3)
		case mtypes.KBigInt, mtypes.KDecimal:
			v.I64[i] = int64(x) * 1_000_003
		case mtypes.KDouble:
			v.F64[i] = float64(x) / 4
		case mtypes.KVarchar:
			v.Str[i] = fmt.Sprintf("s%06d", x+domain)
		}
	}
	if typ.Kind == mtypes.KDouble && n > 1 {
		// A NaN payload that is not the stock sentinel, and -0.0 before +0.0
		// where the range would otherwise hold only zeros.
		v.F64[rng.Intn(n)] = math.Float64frombits(0x7ff0_0000_0000_0abc)
		j := rng.Intn(n - 1)
		v.F64[j], v.F64[j+1] = math.Copysign(0, -1), 0
	}
	return v
}

// sameValue compares two boxed values field by field, doubles by bit
// pattern, so the sign of a zero counts.
func sameValue(a, b mtypes.Value) bool {
	return a.Typ == b.Typ && a.Null == b.Null && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestTypedStatsMatchBoxedOracle is the differential test for the typed
// min/max/null pass: over seeded random vectors of every kind and shape,
// some longer than the NDV sample, ComputeColStats returns exactly what the
// boxed oracle returns.
func TestTypedStatsMatchBoxedOracle(t *testing.T) {
	shapes := []string{"random", "longruns", "alternating", "allnull", "one", "empty"}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, typ := range statsTestTypes {
			for _, shape := range shapes {
				n := 1 + rng.Intn(4000)
				if seed%5 == 0 {
					n += 2 * statsSampleCap // sampled NDV path
				}
				v := statsTestVec(rng, typ, shape, n)
				got, want := ComputeColStats(v), boxedComputeColStats(v)
				if got.Rows != want.Rows || got.NullCount != want.NullCount || got.NDV != want.NDV ||
					got.HasRange != want.HasRange || !sameValue(got.Min, want.Min) || !sameValue(got.Max, want.Max) {
					t.Fatalf("seed %d %s %s n=%d: typed %+v, boxed %+v", seed, typ, shape, v.Len(), *got, *want)
				}
			}
		}
	}
	negZero, nan := math.Copysign(0, -1), math.Float64frombits(0x7ff0_0000_0000_0abc)
	for _, xs := range [][]float64{{negZero, 0, 1}, {0, negZero, -1}, {nan, 2, negZero, 0}, {nan, nan}} {
		v := &vec.Vector{Typ: mtypes.Double, F64: xs}
		got, want := ComputeColStats(v), boxedComputeColStats(v)
		if got.NullCount != want.NullCount || got.HasRange != want.HasRange ||
			!sameValue(got.Min, want.Min) || !sameValue(got.Max, want.Max) {
			t.Fatalf("%v: typed %+v, boxed %+v", xs, *got, *want)
		}
	}
}
