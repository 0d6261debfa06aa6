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
	if pt := oi.SelectRange(v, mtypes.NewInt(mtypes.Int, 30), mtypes.NewInt(mtypes.Int, 30), true, true); !eq(pt, []int32{2}) {
		t.Fatalf("point: %v", pt)
	}
}

// Property: order-index range and one-sided selects == scan selects.
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
		for _, op := range []vec.CmpOp{vec.CmpLt, vec.CmpLe, vec.CmpGt, vec.CmpGe} {
			if !eq(oi.SelectCmp(v, op, loV), vec.SelCmp(v, op, loV, nil)) {
				return false
			}
		}
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
