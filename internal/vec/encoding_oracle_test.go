package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"monetlite/internal/mtypes"
)

// rleAnySize disables encodeRLE's early exit, so tests that exercise the RLE
// kernels get a run list whatever the data looks like.
const rleAnySize = 1 << 60

// boxedEncodeRLE is the run-length encoder as it was written before the
// typed kernel: one boxed Value/AppendValue per run. It stays here as the
// oracle the typed encodeRLE is compared against.
func boxedEncodeRLE(v *Vector) *Encoded {
	n := v.Len()
	if n == 0 {
		return nil
	}
	runVals := NewCap(v.Typ, 16)
	var runEnds []int32
	start := 0
	for i := 1; i <= n; i++ {
		if i < n && boxedRLEEqual(v, i-1, i) {
			continue
		}
		runVals.AppendValue(v.Value(start))
		runEnds = append(runEnds, int32(i))
		start = i
	}
	return &Encoded{Typ: v.Typ, Enc: EncRLE, N: n, RunVals: runVals, RunEnds: runEnds}
}

func boxedRLEEqual(v *Vector, i, j int) bool {
	if v.Typ.Kind == mtypes.KDouble {
		a, b := v.F64[i], v.F64[j]
		return a == b || (mtypes.IsNullF64(a) && mtypes.IsNullF64(b))
	}
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		return v.I8[i] == v.I8[j]
	case mtypes.KSmallInt:
		return v.I16[i] == v.I16[j]
	case mtypes.KInt, mtypes.KDate:
		return v.I32[i] == v.I32[j]
	case mtypes.KBigInt, mtypes.KDecimal:
		return v.I64[i] == v.I64[j]
	}
	return v.Str[i] == v.Str[j]
}

// oracleEncodeColumn is EncodeColumn with the boxed RLE encoder and no early
// exit: every candidate is built in full, then the same smallest-wins rule
// and hysteresis pick the result.
func oracleEncodeColumn(v *Vector, ndvHint int) *Encoded {
	n := v.Len()
	if n == 0 {
		return nil
	}
	var raw int64
	var candidates []*Encoded
	switch v.Typ.Kind {
	case mtypes.KVarchar:
		dict, heapBytes := encodeDict(v, ndvHint)
		raw = 4*int64(n) + heapBytes
		if dict != nil {
			candidates = append(candidates, dict)
		}
	case mtypes.KDouble:
		raw = int64(n) * 8
	default:
		raw = int64(n) * int64(kindPayloadWidth(v.Typ.Kind))
		if f := encodeFOR(v); f != nil {
			candidates = append(candidates, f)
		}
	}
	candidates = append(candidates, boxedEncodeRLE(v))
	var best *Encoded
	for _, c := range candidates {
		if best == nil || c.SizeBytes() < best.SizeBytes() {
			best = c
		}
	}
	if best == nil || best.SizeBytes()*3 > raw*2 {
		return nil
	}
	return best
}

// vecIdentical compares two vectors payload for payload, doubles by bit
// pattern, so a NaN payload or the sign of a zero counts as a difference.
func vecIdentical(a, b *Vector) error {
	if a.Typ != b.Typ || a.Len() != b.Len() {
		return fmt.Errorf("type/length %s/%d vs %s/%d", a.Typ, a.Len(), b.Typ, b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		var same bool
		switch a.Typ.Kind {
		case mtypes.KBool, mtypes.KTinyInt:
			same = a.I8[i] == b.I8[i]
		case mtypes.KSmallInt:
			same = a.I16[i] == b.I16[i]
		case mtypes.KInt, mtypes.KDate:
			same = a.I32[i] == b.I32[i]
		case mtypes.KBigInt, mtypes.KDecimal:
			same = a.I64[i] == b.I64[i]
		case mtypes.KDouble:
			same = math.Float64bits(a.F64[i]) == math.Float64bits(b.F64[i])
		case mtypes.KVarchar:
			same = a.Str[i] == b.Str[i]
		}
		if !same {
			return fmt.Errorf("row %d: %v vs %v", i, a.Value(i), b.Value(i))
		}
	}
	return nil
}

// shapedTestVec builds a vector of one of the shapes the RLE early exit and
// run detection are sensitive to.
func shapedTestVec(rng *rand.Rand, typ mtypes.Type, shape string, n int) *Vector {
	switch shape {
	case "empty":
		return New(typ, 0)
	case "one":
		return randTestVec(rng, typ, 1, 10, 0.3)
	case "allnull":
		return randTestVec(rng, typ, n, 10, 1)
	case "longruns", "alternating":
		nvals, runMax := 1+n/200, 400
		if shape == "alternating" {
			nvals, runMax = 2, 1
		}
		base := randTestVec(rng, typ, nvals, 1+rng.Intn(50), 0.2)
		idx := make([]int32, n)
		for i, r := 0, 0; i < n; r = (r + 1) % nvals {
			for k := 1 + rng.Intn(runMax); k > 0 && i < n; k-- {
				idx[i] = int32(r)
				i++
			}
		}
		return Gather(base, idx)
	}
	// "random": any density of distinct values, sorted half the time.
	v := randTestVec(rng, typ, n, 1+rng.Intn(n+1), rng.Float64()*0.3)
	if rng.Intn(2) == 0 {
		sortTestVec(v)
	}
	return v
}

// TestTypedRLEMatchesBoxedOracle is the differential test for the typed RLE
// encoder: over seeded random vectors of every kind and every shape,
// EncodeColumn picks the same encoding of the same size as the oracle built
// on the boxed encoder, both decode to the identical vector, and a forced
// RLE encoding has the identical run list.
func TestTypedRLEMatchesBoxedOracle(t *testing.T) {
	shapes := []string{"random", "longruns", "alternating", "allnull", "one", "empty"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, typ := range encTestTypes {
			for _, shape := range shapes {
				n := 1 + rng.Intn(3000)
				v := shapedTestVec(rng, typ, shape, n)
				if typ.Kind == mtypes.KDouble && v.Len() > 1 {
					// A NaN payload that is not the stock sentinel, and a
					// -0.0 directly before a +0.0.
					i := rng.Intn(v.Len() - 1)
					v.F64[i] = math.Float64frombits(0x7ff0_0000_0000_0abc)
					v.F64[rng.Intn(v.Len())] = math.Float64frombits(0xfff8_0000_0000_0000)
					j := rng.Intn(v.Len() - 1)
					v.F64[j], v.F64[j+1] = math.Copysign(0, -1), 0
				}
				name := fmt.Sprintf("seed %d %s %s n=%d", seed, typ, shape, v.Len())
				checkEncodeMatchesOracle(t, name, v)
			}
		}
	}
}

func checkEncodeMatchesOracle(t *testing.T, name string, v *Vector) {
	t.Helper()
	got, want := EncodeColumn(v, 0), oracleEncodeColumn(v, 0)
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: EncodeColumn = %s, oracle = %s", name, describe(got), describe(want))
	}
	if got != nil {
		if got.Enc != want.Enc || got.SizeBytes() != want.SizeBytes() {
			t.Fatalf("%s: EncodeColumn chose %s (%d B), oracle %s (%d B)",
				name, got.Describe(), got.SizeBytes(), want.Describe(), want.SizeBytes())
		}
		if err := vecIdentical(got.Decode(), want.Decode()); err != nil {
			t.Fatalf("%s: decoded %s differs: %v", name, got.Describe(), err)
		}
	}
	typed, boxed := encodeRLE(v, rleAnySize), boxedEncodeRLE(v)
	if (typed == nil) != (boxed == nil) {
		t.Fatalf("%s: forced RLE %s vs boxed %s", name, describe(typed), describe(boxed))
	}
	if typed == nil {
		return
	}
	if fmt.Sprint(typed.RunEnds) != fmt.Sprint(boxed.RunEnds) {
		t.Fatalf("%s: run ends differ", name)
	}
	if err := vecIdentical(typed.RunVals, boxed.RunVals); err != nil {
		t.Fatalf("%s: run values differ: %v", name, err)
	}
	if typed.SizeBytes() != boxed.SizeBytes() {
		t.Fatalf("%s: RLE size %d vs %d", name, typed.SizeBytes(), boxed.SizeBytes())
	}
}

func describe(e *Encoded) string {
	if e == nil {
		return "raw"
	}
	return e.Describe()
}
