package vec

import (
	"math"
	"math/rand"
	"testing"

	"monetlite/internal/mtypes"
)

// randSortVec draws a column of the given type with ~25% NULLs, duplicate
// values, and (for doubles) non-canonical NaN payloads plus signed zeros.
func randSortVec(rng *rand.Rand, typ mtypes.Type, n int) *Vector {
	v := New(typ, n)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			if typ.Kind == mtypes.KDouble && rng.Intn(2) == 0 {
				v.F64[i] = math.Float64frombits(0x7ff8_0000_0000_0001 + uint64(rng.Intn(5)))
			} else {
				v.SetNull(i)
			}
			continue
		}
		x := int64(rng.Intn(9)) - 4
		switch typ.Kind {
		case mtypes.KDouble:
			switch rng.Intn(6) {
			case 0:
				v.F64[i] = math.Copysign(0, -1) // -0.0 must tie with +0.0
			case 1:
				v.F64[i] = 0
			default:
				v.F64[i] = float64(x) + 0.25
			}
		case mtypes.KVarchar:
			// Mix short strings, shared 8-byte prefixes, and leading NULs
			// (prefix-code collisions with each other and with nullCode).
			switch rng.Intn(4) {
			case 0:
				v.Str[i] = "\x00\x00pad"
			case 1:
				v.Str[i] = "prefix--" + string(rune('a'+rng.Intn(3)))
			default:
				v.Str[i] = string(rune('a' + (x+4)%5))
			}
		case mtypes.KBigInt, mtypes.KDecimal:
			v.I64[i] = x
		case mtypes.KInt, mtypes.KDate:
			v.I32[i] = int32(x)
		case mtypes.KSmallInt:
			v.I16[i] = int16(x)
		default:
			v.I8[i] = int8((x + 4) % 2)
		}
	}
	return v
}

var sortKernelTypes = []mtypes.Type{
	mtypes.Bool, mtypes.TinyInt, mtypes.SmallInt, mtypes.Int, mtypes.BigInt,
	mtypes.Double, mtypes.Varchar, mtypes.Decimal(9, 2), mtypes.Date,
}

// The coded kernels must reproduce the serial stable sort permutation
// exactly, for every kind, asc and desc, single- and multi-key, and at every
// chunk count (1 = plain coded sort, >1 = sorted runs + k-way merge).
func TestCodedSortMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		nkeys := 1 + rng.Intn(3)
		keys := make([]SortKey, nkeys)
		for k := range keys {
			typ := sortKernelTypes[rng.Intn(len(sortKernelTypes))]
			keys[k] = SortKey{Vec: randSortVec(rng, typ, n), Desc: rng.Intn(2) == 0}
		}
		want := SortOrder(keys, n)
		for _, chunks := range []int{1, 2, 3, 7} {
			got := SortOrderParallel(keys, n, chunks)
			if len(got) != len(want) {
				t.Fatalf("trial %d chunks %d: %d rows, want %d", trial, chunks, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d chunks %d: permutation differs at %d: got %d want %d\nkey0 type %s",
						trial, chunks, i, got[i], want[i], keys[0].Vec.Typ)
				}
			}
		}
	}
}

// TopK over any [lo,hi) range must equal the first k entries of the stable
// sort of that range.
func TestTopKMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		n := rng.Intn(200)
		typ := sortKernelTypes[rng.Intn(len(sortKernelTypes))]
		keys := []SortKey{
			{Vec: randSortVec(rng, typ, n), Desc: rng.Intn(2) == 0},
			{Vec: randSortVec(rng, mtypes.Int, n), Desc: rng.Intn(2) == 0},
		}
		cs := NewCodedSort(keys, n)
		lo := 0
		hi := n
		if n > 0 {
			lo = rng.Intn(n)
			hi = lo + rng.Intn(n-lo)
		}
		k := rng.Intn(n + 2)
		got := cs.TopK(lo, hi, k)

		full := make([]int32, hi-lo)
		for i := range full {
			full[i] = int32(lo + i)
		}
		cs.Sort(full)
		wantK := min(k, hi-lo)
		if k <= 0 || hi <= lo {
			wantK = 0
		}
		if len(got) != wantK {
			t.Fatalf("trial %d: TopK(%d,%d,%d) returned %d rows, want %d", trial, lo, hi, k, len(got), wantK)
		}
		for i := range got {
			if got[i] != full[i] {
				t.Fatalf("trial %d: TopK row %d: got %d want %d", trial, i, got[i], full[i])
			}
		}
	}
}

// Regression: explicit NULL placement for the integer-family kinds (the
// comparator used to lean on the MinIntN sentinels comparing smallest). NULL
// must sort first ascending and last descending, for both the serial
// comparator and the coded kernels.
func TestIntegerFamilyNullOrdering(t *testing.T) {
	for _, typ := range []mtypes.Type{
		mtypes.SmallInt, mtypes.Int, mtypes.BigInt, mtypes.Decimal(9, 2),
		mtypes.Date, mtypes.TinyInt,
	} {
		v := New(typ, 4)
		v.Set(0, mtypes.NewInt(typ, 2))
		v.SetNull(1)
		v.Set(2, mtypes.NewInt(typ, -3))
		v.SetNull(3)
		check := func(label string, order []int32, wantFirst, wantLast bool) {
			t.Helper()
			firstNull := v.IsNull(int(order[0])) && v.IsNull(int(order[1]))
			lastNull := v.IsNull(int(order[2])) && v.IsNull(int(order[3]))
			if firstNull != wantFirst || lastNull != wantLast {
				t.Fatalf("%s %s: order %v (nulls first=%v last=%v, want first=%v last=%v)",
					typ, label, order, firstNull, lastNull, wantFirst, wantLast)
			}
		}
		asc := []SortKey{{Vec: v}}
		desc := []SortKey{{Vec: v, Desc: true}}
		check("asc/serial", SortOrder(asc, 4), true, false)
		check("desc/serial", SortOrder(desc, 4), false, true)
		check("asc/coded", SortOrderParallel(asc, 4, 2), true, false)
		check("desc/coded", SortOrderParallel(desc, 4, 2), false, true)
		// NULL ties keep input order (stability): rows 1 and 3.
		ascOrder := SortOrder(asc, 4)
		if ascOrder[0] != 1 || ascOrder[1] != 3 {
			t.Fatalf("%s asc: NULL tie not stable: %v", typ, ascOrder)
		}
	}
}

// Signed zeros must compare equal (stable input order), and every NaN
// payload is NULL: smallest ascending, largest descending.
func TestDoubleSortEdgeCases(t *testing.T) {
	v := New(mtypes.Double, 5)
	v.F64[0] = math.Copysign(0, -1)
	v.F64[1] = 0
	v.F64[2] = math.Float64frombits(0x7ff8_0000_0000_0003) // odd NaN payload
	v.F64[3] = math.Inf(-1)
	v.F64[4] = math.Copysign(0, -1)
	asc := []SortKey{{Vec: v}}
	want := []int32{2, 3, 0, 1, 4} // NULL, -Inf, then zeros in input order
	for _, chunks := range []int{1, 3} {
		got := SortOrderParallel(asc, 5, chunks)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunks %d: got %v want %v", chunks, got, want)
			}
		}
	}
	ser := SortOrder(asc, 5)
	for i := range want {
		if ser[i] != want[i] {
			t.Fatalf("serial oracle: got %v want %v", ser, want)
		}
	}
}

// VARCHAR prefix-code collisions: strings sharing an 8-byte prefix, strings
// of leading NUL bytes (which collide with the NULL code), and NULLs must
// all resolve through the tie-break comparison.
func TestVarcharPrefixTies(t *testing.T) {
	v := New(mtypes.Varchar, 6)
	v.Str[0] = "prefix--b"
	v.Str[1] = "\x00\x00"
	v.SetNull(2)
	v.Str[3] = "prefix--a"
	v.Str[4] = ""
	v.Str[5] = "prefix--"
	for _, desc := range []bool{false, true} {
		keys := []SortKey{{Vec: v, Desc: desc}}
		want := SortOrder(keys, 6)
		got := SortOrderParallel(keys, 6, 2)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("desc=%v: got %v want %v", desc, got, want)
			}
		}
	}
}

// SortOrderParallel computes the same permutation as SortOrder using the
// typed code kernels: the index range is cut into `chunks` contiguous runs,
// each run is sorted independently (callers may fan runs out over
// goroutines via SortRun) and the Less-ordered runs are k-way merged.
// The execution engine drives the same kernels with one goroutine per run.
func SortOrderParallel(keys []SortKey, n, chunks int) []int32 {
	cs := NewCodedSort(keys, n)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	if chunks <= 1 || n < 2 {
		cs.Sort(order)
		return order
	}
	per := (n + chunks - 1) / chunks
	runs := make([][]int32, 0, chunks)
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		run := order[lo:hi]
		cs.Sort(run)
		runs = append(runs, run)
	}
	return cs.MergeRuns(runs)
}
