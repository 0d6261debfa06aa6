package vec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"monetlite/internal/mtypes"
)

func TestSelCmpBasic(t *testing.T) {
	v := intVec(5, 1, 9, 3, 7)
	got := SelCmp(v, CmpGt, mtypes.NewInt(mtypes.Int, 4), nil)
	want := []int32{0, 2, 4}
	if !eqCands(got, want) {
		t.Fatalf("SelCmp gt: %v want %v", got, want)
	}
	got = SelCmp(v, CmpEq, mtypes.NewInt(mtypes.Int, 3), nil)
	if !eqCands(got, []int32{3}) {
		t.Fatalf("SelCmp eq: %v", got)
	}
	// With a candidate list.
	got = SelCmp(v, CmpGt, mtypes.NewInt(mtypes.Int, 4), []int32{1, 2, 3})
	if !eqCands(got, []int32{2}) {
		t.Fatalf("SelCmp cands: %v", got)
	}
}

func TestSelCmpNullNeverMatches(t *testing.T) {
	v := intVec(5, 0, 9)
	v.SetNull(1)
	// null sentinel is MinInt32 which is < 7; it must NOT be selected.
	got := SelCmp(v, CmpLt, mtypes.NewInt(mtypes.Int, 7), nil)
	if !eqCands(got, []int32{0}) {
		t.Fatalf("null leaked into selection: %v", got)
	}
	if n := len(SelCmp(v, CmpNe, mtypes.NewInt(mtypes.Int, 5), nil)); n != 1 {
		t.Fatalf("null matched <>: %d", n)
	}
	// Comparing against a NULL constant selects nothing.
	if n := len(SelCmp(v, CmpEq, mtypes.NullValue(mtypes.Int), nil)); n != 0 {
		t.Fatalf("NULL constant matched: %d", n)
	}
}

func TestSelCmpDouble(t *testing.T) {
	v := dblVec(1.5, 2.5, 3.5)
	v.SetNull(1)
	got := SelCmp(v, CmpGe, mtypes.NewDouble(1.5), nil)
	if !eqCands(got, []int32{0, 2}) {
		t.Fatalf("double sel: %v", got)
	}
}

func TestSelCmpDecimalCoercion(t *testing.T) {
	v := New(mtypes.Decimal(10, 2), 3)
	v.I64[0], v.I64[1], v.I64[2] = 150, 250, 350 // 1.50 2.50 3.50
	// Compare against decimal of different scale.
	got := SelCmp(v, CmpGt, mtypes.NewDecimal(10, 1, 15), nil) // > 1.5
	if !eqCands(got, []int32{1, 2}) {
		t.Fatalf("decimal coerce: %v", got)
	}
	// Compare against integer constant.
	got = SelCmp(v, CmpLe, mtypes.NewInt(mtypes.Int, 2), nil) // <= 2.00
	if !eqCands(got, []int32{0}) {
		t.Fatalf("decimal vs int: %v", got)
	}
	// Compare against double constant (promotes to float comparison).
	got = SelCmp(v, CmpLt, mtypes.NewDouble(2.6), nil)
	if !eqCands(got, []int32{0, 1}) {
		t.Fatalf("decimal vs double: %v", got)
	}
}

func TestSelCmpString(t *testing.T) {
	v := strVec("banana", "apple", StrNull, "cherry")
	got := SelCmp(v, CmpGe, mtypes.NewString("banana"), nil)
	if !eqCands(got, []int32{0, 3}) {
		t.Fatalf("string sel: %v", got)
	}
}

func TestSelRange(t *testing.T) {
	v := intVec(1, 5, 10, 15, 20)
	v.SetNull(0)
	got := SelRange(v, mtypes.NewInt(mtypes.Int, 5), mtypes.NewInt(mtypes.Int, 15), true, true, nil)
	if !eqCands(got, []int32{1, 2, 3}) {
		t.Fatalf("range incl: %v", got)
	}
	got = SelRange(v, mtypes.NewInt(mtypes.Int, 5), mtypes.NewInt(mtypes.Int, 15), false, false, nil)
	if !eqCands(got, []int32{2}) {
		t.Fatalf("range excl: %v", got)
	}
}

func TestSelIn(t *testing.T) {
	v := strVec("a", "b", "c", StrNull)
	got := SelIn(v, []mtypes.Value{mtypes.NewString("a"), mtypes.NewString("c")}, nil)
	if !eqCands(got, []int32{0, 2}) {
		t.Fatalf("string IN: %v", got)
	}
	iv := intVec(1, 2, 3)
	iv.SetNull(0)
	got = SelIn(iv, []mtypes.Value{mtypes.NewInt(mtypes.Int, 2), mtypes.NullValue(mtypes.Int)}, nil)
	if !eqCands(got, []int32{1}) {
		t.Fatalf("int IN with NULL element: %v", got)
	}
	dv := dblVec(0.5, 1.5)
	got = SelIn(dv, []mtypes.Value{mtypes.NewDouble(1.5)}, nil)
	if !eqCands(got, []int32{1}) {
		t.Fatalf("double IN: %v", got)
	}
}

func TestSelNullNotNull(t *testing.T) {
	v := intVec(1, 2, 3)
	v.SetNull(1)
	if !eqCands(SelNull(v, nil), []int32{1}) {
		t.Fatal("SelNull")
	}
	if !eqCands(SelNotNull(v, nil), []int32{0, 2}) {
		t.Fatal("SelNotNull")
	}
}

func TestSelTrue(t *testing.T) {
	bv := New(mtypes.Bool, 4)
	bv.I8[0], bv.I8[1], bv.I8[2] = 1, 0, mtypes.NullInt8
	bv.I8[3] = 1
	if !eqCands(SelTrue(bv, nil), []int32{0, 3}) {
		t.Fatal("SelTrue full")
	}
	// Aligned: bv[k] corresponds to cands[k].
	bv2 := New(mtypes.Bool, 2)
	bv2.I8[0], bv2.I8[1] = 0, 1
	if !eqCands(SelTrue(bv2, []int32{10, 20}), []int32{20}) {
		t.Fatal("SelTrue aligned")
	}
}

func TestIntersectUnionDifference(t *testing.T) {
	a := []int32{1, 3, 5, 7}
	b := []int32{3, 4, 5, 8}
	if !eqCands(Intersect(a, b), []int32{3, 5}) {
		t.Fatal("intersect")
	}
	if !eqCands(Union(a, b), []int32{1, 3, 4, 5, 7, 8}) {
		t.Fatal("union")
	}
	if !eqCands(Difference(a, b), []int32{1, 7}) {
		t.Fatal("difference")
	}
	if Intersect(nil, a) == nil || Intersect(a, nil) == nil {
		// nil means all rows, so intersect with a is a
		t.Skip()
	}
	if got := Intersect(nil, a); !eqCands(got, a) {
		t.Fatal("intersect nil")
	}
	if Union(nil, a) != nil {
		t.Fatal("union with all-rows must be all-rows")
	}
}

// Property: SelCmp agrees with a naive per-row evaluation.
func TestSelCmpQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, opRaw uint8, c int32) bool {
		rng.Seed(seed)
		v := randomIntVecWithNulls(rng, 64)
		op := CmpOp(opRaw % 6)
		cv := c % 100
		got := SelCmp(v, op, mtypes.NewInt(mtypes.Int, int64(cv)), nil)
		var want []int32
		for i := 0; i < v.Len(); i++ {
			if v.IsNull(i) {
				continue
			}
			x := v.I32[i]
			ok := false
			switch op {
			case CmpEq:
				ok = x == cv
			case CmpNe:
				ok = x != cv
			case CmpLt:
				ok = x < cv
			case CmpLe:
				ok = x <= cv
			case CmpGt:
				ok = x > cv
			case CmpGe:
				ok = x >= cv
			}
			if ok {
				want = append(want, int32(i))
			}
		}
		return eqCands(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: candidate lists are strictly increasing and in range.
func TestSelCandInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		v := randomIntVecWithNulls(rng, 128)
		cands := SelCmp(v, CmpGt, mtypes.NewInt(mtypes.Int, 0), nil)
		cands = SelCmp(v, CmpLt, mtypes.NewInt(mtypes.Int, 50), cands)
		for i := range cands {
			if cands[i] < 0 || int(cands[i]) >= v.Len() {
				t.Fatal("candidate out of range")
			}
			if i > 0 && cands[i] <= cands[i-1] {
				t.Fatal("candidates not strictly increasing")
			}
		}
	}
}

func TestCmpOpFlipString(t *testing.T) {
	if CmpLt.Flip() != CmpGt || CmpGe.Flip() != CmpLe || CmpEq.Flip() != CmpEq {
		t.Fatal("flip")
	}
	if CmpNe.String() != "<>" || CmpLe.String() != "<=" {
		t.Fatal("string")
	}
}

func eqCands(a, b []int32) bool {
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
