package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

func randVec(rng *rand.Rand, n int) *vec.Vector {
	v := vec.New(mtypes.Int, n)
	for i := 0; i < n; i++ {
		if rng.Intn(20) == 0 {
			v.SetNull(i)
		} else {
			v.I32[i] = int32(rng.Intn(10000))
		}
	}
	return v
}

func eq(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Invariant: imprints never change results, only skip work.
func TestImprintsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	v := randVec(rng, 5000)
	im := BuildImprints(v)
	if im == nil {
		t.Fatal("imprints not built")
	}
	for trial := 0; trial < 50; trial++ {
		lo := int64(rng.Intn(10000))
		hi := lo + int64(rng.Intn(2000))
		loV, hiV := mtypes.NewInt(mtypes.Int, lo), mtypes.NewInt(mtypes.Int, hi)
		got := im.SelectRange(v, loV, hiV, true, true)
		want := vec.SelRange(v, loV, hiV, true, true, nil)
		if !eq(got, want) {
			t.Fatalf("imprints range [%d,%d]: got %d rows want %d", lo, hi, len(got), len(want))
		}
	}
}

func TestImprintsSkipsBlocks(t *testing.T) {
	// Clustered data: values ascend, so narrow ranges should skip most blocks.
	v := vec.New(mtypes.Int, 64*100)
	for i := range v.I32 {
		v.I32[i] = int32(i)
	}
	im := BuildImprints(v)
	if skipped := im.BlocksSkipped(0, 63); skipped == 0 {
		t.Fatal("narrow range on clustered data should skip blocks")
	}
	if im.Len() != 6400 {
		t.Fatal("length bookkeeping")
	}
}

func TestImprintsUnsupported(t *testing.T) {
	s := vec.New(mtypes.Varchar, 3)
	if BuildImprints(s) != nil {
		t.Fatal("varchar imprints should be nil")
	}
	if BuildImprints(vec.New(mtypes.Int, 0)) != nil {
		t.Fatal("empty imprints should be nil")
	}
}

func TestImprintsDoubles(t *testing.T) {
	v := vec.New(mtypes.Double, 1000)
	rng := rand.New(rand.NewSource(5))
	for i := range v.F64 {
		v.F64[i] = rng.Float64() * 100
	}
	v.SetNull(17)
	im := BuildImprints(v)
	got := im.SelectRange(v, mtypes.NewDouble(10), mtypes.NewDouble(20), true, false)
	want := vec.SelRange(v, mtypes.NewDouble(10), mtypes.NewDouble(20), true, false, nil)
	if !eq(got, want) {
		t.Fatalf("double imprints: %d vs %d rows", len(got), len(want))
	}
}

// Property test over random columns and random range predicates: the pruned
// selection equals the naive scan selection, and the skipped-block count is
// consistent with the returned candidates (every selected row lives in an
// unskipped block) and with BlocksSkipped.
func TestImprintsPruningProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	mkCol := func(n int) *vec.Vector {
		v := vec.New(mtypes.Int, n)
		switch rng.Intn(3) {
		case 0: // uniform
			for i := range v.I32 {
				v.I32[i] = int32(rng.Intn(10000))
			}
		case 1: // clustered ascending (imprints' best case)
			for i := range v.I32 {
				v.I32[i] = int32(i + rng.Intn(50))
			}
		default: // skewed: a hot value plus a long tail
			for i := range v.I32 {
				if rng.Intn(4) > 0 {
					v.I32[i] = 42
				} else {
					v.I32[i] = int32(rng.Intn(10000))
				}
			}
		}
		for i := range v.I32 {
			if rng.Intn(25) == 0 {
				v.SetNull(i)
			}
		}
		return v
	}
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(4000)
		v := mkCol(n)
		im := BuildImprints(v)
		if im == nil {
			// All-NULL sample: legal, the index just never builds.
			continue
		}
		lo := int64(rng.Intn(11000)) - 500
		hi := lo + int64(rng.Intn(3000))
		loIncl, hiIncl := rng.Intn(2) == 0, rng.Intn(2) == 0
		loV, hiV := mtypes.NewInt(mtypes.Int, lo), mtypes.NewInt(mtypes.Int, hi)

		got, skipped, total := im.SelectRangeSlice(v, loV, hiV, loIncl, hiIncl, 0)
		want := vec.SelRange(v, loV, hiV, loIncl, hiIncl, nil)
		if !eq(got, want) {
			t.Fatalf("trial %d: range [%d,%d] got %d rows want %d", trial, lo, hi, len(got), len(want))
		}
		if total != (n+63)/64 || skipped < 0 || skipped > total {
			t.Fatalf("trial %d: skipped %d of %d blocks (n=%d)", trial, skipped, total, n)
		}
		if skipped != im.BlocksSkipped(float64(lo), float64(hi)) {
			t.Fatalf("trial %d: SelectRangeSlice skipped %d, BlocksSkipped %d",
				trial, skipped, im.BlocksSkipped(float64(lo), float64(hi)))
		}
		// Selected rows can only come from unskipped blocks.
		hit := map[int32]bool{}
		for _, r := range got {
			hit[r/64] = true
		}
		if len(hit) > total-skipped {
			t.Fatalf("trial %d: %d blocks hold matches but only %d were scanned", trial, len(hit), total-skipped)
		}
	}
}

// Windowed (chunk-scan) pruning must agree with the naive scan of the same
// window, with candidates in window-relative coordinates.
func TestImprintsWindowedSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 7000
	v := randVec(rng, n)
	im := BuildImprints(v)
	for trial := 0; trial < 80; trial++ {
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		a := int64(rng.Intn(10000))
		b := a + int64(rng.Intn(2000))
		loV, hiV := mtypes.NewInt(mtypes.Int, a), mtypes.NewInt(mtypes.Int, b)
		win := v.Slice(lo, hi)
		got, skipped, total := im.SelectRangeSlice(win, loV, hiV, true, true, lo)
		want := vec.SelRange(win, loV, hiV, true, true, nil)
		if !eq(got, want) {
			t.Fatalf("trial %d: window [%d,%d) value range [%d,%d]: %d rows want %d",
				trial, lo, hi, a, b, len(got), len(want))
		}
		wantBlocks := hi/64 - lo/64 + 1
		if hi%64 == 0 {
			wantBlocks--
		}
		if total != wantBlocks || skipped > total {
			t.Fatalf("trial %d: window [%d,%d) touched %d blocks, want %d (skipped %d)",
				trial, lo, hi, total, wantBlocks, skipped)
		}
	}
}

// Extend must preserve the invariant (index never changes results) across
// appends, including partial last blocks, and never mutate the receiver.
func TestImprintsExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		n0 := 65 + rng.Intn(1000)
		n1 := n0 + 1 + rng.Intn(1000)
		full := randVec(rng, n1)
		im0 := BuildImprints(full.Slice(0, n0))
		if im0 == nil {
			continue
		}
		mask0 := append([]uint64(nil), im0.masks...)
		im1 := im0.Extend(full, n0)
		if im1 == nil {
			t.Fatalf("trial %d: extend refused valid bookkeeping", trial)
		}
		if im0.Len() != n0 || !eq64(mask0, im0.masks) {
			t.Fatalf("trial %d: Extend mutated the receiver", trial)
		}
		if im1.Len() != n1 {
			t.Fatalf("trial %d: extended length %d want %d", trial, im1.Len(), n1)
		}
		for q := 0; q < 10; q++ {
			a := int64(rng.Intn(10000))
			b := a + int64(rng.Intn(2000))
			loV, hiV := mtypes.NewInt(mtypes.Int, a), mtypes.NewInt(mtypes.Int, b)
			got := im1.SelectRange(full, loV, hiV, true, true)
			want := vec.SelRange(full, loV, hiV, true, true, nil)
			if !eq(got, want) {
				t.Fatalf("trial %d: extended imprints disagree on [%d,%d]", trial, a, b)
			}
		}
		// Stale bookkeeping must be rejected.
		if im0.Extend(full, n0+1) != nil {
			t.Fatalf("trial %d: stale extend accepted", trial)
		}
	}
}

func eq64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkImprintScan: imprint-pruned range select over clustered data
// (narrow predicate, most blocks skipped) vs the naive kernel. Run in CI
// once per build so pruning regressions surface in the logs.
func BenchmarkImprintScan(b *testing.B) {
	n := 1 << 20
	v := vec.New(mtypes.Int, n)
	for i := range v.I32 {
		v.I32[i] = int32(i)
	}
	im := BuildImprints(v)
	loV, hiV := mtypes.NewInt(mtypes.Int, 1000), mtypes.NewInt(mtypes.Int, 9000)
	b.Run("imprints", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got, _, _ := im.SelectRangeSlice(v, loV, hiV, true, true, 0)
			if len(got) == 0 {
				b.Fatal("empty selection")
			}
		}
		b.SetBytes(int64(n * 4))
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got := vec.SelRange(v, loV, hiV, true, true, nil)
			if len(got) == 0 {
				b.Fatal("empty selection")
			}
		}
		b.SetBytes(int64(n * 4))
	})
}

func TestHashIndexLookup(t *testing.T) {
	v := vec.New(mtypes.Int, 6)
	copy(v.I32, []int32{5, 3, 5, 9, 3, 5})
	v.SetNull(3)
	h := BuildHashIndex(v)
	if got := h.Lookup(mtypes.NewInt(mtypes.Int, 5)); !eq(got, []int32{0, 2, 5}) {
		t.Fatalf("lookup 5: %v", got)
	}
	if got := h.Lookup(mtypes.NewInt(mtypes.Int, 3)); !eq(got, []int32{1, 4}) {
		t.Fatalf("lookup 3: %v", got)
	}
	if h.Lookup(mtypes.NullValue(mtypes.Int)) != nil {
		t.Fatal("NULL lookup must be empty")
	}
	if h.Lookup(mtypes.NewInt(mtypes.Int, 9)) != nil {
		t.Fatal("null row must not be indexed")
	}
	if h.Distinct() != 2 {
		t.Fatalf("distinct = %d", h.Distinct())
	}
}

func TestHashIndexExtend(t *testing.T) {
	v := vec.New(mtypes.Varchar, 2)
	v.Str[0], v.Str[1] = "a", "b"
	h := BuildHashIndex(v)
	// Simulate an append: the column grows, the index extends.
	v.Str = append(v.Str, "a", vec.StrNull)
	h.Extend(v, 2)
	if got := h.Lookup(mtypes.NewString("a")); !eq(got, []int32{0, 2}) {
		t.Fatalf("extended lookup: %v", got)
	}
	if h.Rows() != 4 {
		t.Fatalf("rows = %d", h.Rows())
	}
}

func TestHashIndexDouble(t *testing.T) {
	v := vec.New(mtypes.Double, 3)
	v.F64[0], v.F64[1], v.F64[2] = 1.5, 2.5, 1.5
	h := BuildHashIndex(v)
	if got := h.Lookup(mtypes.NewDouble(1.5)); !eq(got, []int32{0, 2}) {
		t.Fatalf("double lookup: %v", got)
	}
}

func TestOrderIndexRange(t *testing.T) {
	v := vec.New(mtypes.Int, 6)
	copy(v.I32, []int32{50, 10, 30, 20, 40, 25})
	v.SetNull(1)
	oi := BuildOrderIndex(v)
	got := oi.SelectRange(v, mtypes.NewInt(mtypes.Int, 20), mtypes.NewInt(mtypes.Int, 40), true, true)
	want := vec.SelRange(v, mtypes.NewInt(mtypes.Int, 20), mtypes.NewInt(mtypes.Int, 40), true, true, nil)
	if !eq(got, want) {
		t.Fatalf("order index range: %v want %v", got, want)
	}
	if pt := oi.SelectPoint(v, mtypes.NewInt(mtypes.Int, 30)); !eq(pt, []int32{2}) {
		t.Fatalf("point: %v", pt)
	}
}

// Property: order-index range select == scan range select.
func TestOrderIndexQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64, a, b int32) bool {
		rng.Seed(seed)
		v := randVec(rng, 300)
		oi := BuildOrderIndex(v)
		lo, hi := a%10000, b%10000
		if lo > hi {
			lo, hi = hi, lo
		}
		loV, hiV := mtypes.NewInt(mtypes.Int, int64(lo)), mtypes.NewInt(mtypes.Int, int64(hi))
		return eq(oi.SelectRange(v, loV, hiV, true, true), vec.SelRange(v, loV, hiV, true, true, nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: merge join over order indexes == hash join.
func TestMergeJoinMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		l := randVec(rng, 120)
		r := randVec(rng, 90)
		// Narrow the domain so joins actually match.
		for i := range l.I32 {
			if !l.IsNull(i) {
				l.I32[i] %= 50
			}
		}
		for i := range r.I32 {
			if !r.IsNull(i) {
				r.I32[i] %= 50
			}
		}
		lo, ro := BuildOrderIndex(l), BuildOrderIndex(r)
		ls, rs := MergeJoin(l, lo, r, ro)
		ht := vec.BuildHashPartitioned([]*vec.Vector{r}, 1, 1)
		hp, hb := ht.Probe([]*vec.Vector{l})
		type pair struct{ a, b int32 }
		got := map[pair]int{}
		for i := range ls {
			got[pair{ls[i], rs[i]}]++
		}
		want := map[pair]int{}
		for i := range hp {
			want[pair{hp[i], hb[i]}]++
		}
		if len(got) != len(want) {
			t.Fatalf("merge join pairs %d != hash join pairs %d", len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("pair %v multiplicity mismatch", k)
			}
		}
	}
}

// The order index answers a range with the matching row ids ascending, the
// candidate-list order the selection kernels return, for ranges of a few rows
// and of hundreds.
func TestOrderIndexSelectRangeSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	v := vec.New(mtypes.Int, 2000)
	for i := range v.I32 {
		v.I32[i] = int32(rng.Intn(1000))
	}
	oi := BuildOrderIndex(v)
	for _, hi := range []int64{2, 500} {
		lo, hiV := mtypes.NewInt(mtypes.Int, 0), mtypes.NewInt(mtypes.Int, hi)
		got := oi.SelectRange(v, lo, hiV, true, true)
		if want := vec.SelRange(v, lo, hiV, true, true, nil); !eq(got, want) {
			t.Fatalf("range [0, %d]: %d rows, want %d ascending", hi, len(got), len(want))
		}
	}
}
