package vec

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"monetlite/internal/mtypes"
)

func TestArithIntPromotion(t *testing.T) {
	a := intVec(1, 2, 3)
	b := intVec(10, 20, 30)
	sum, err := Arith(OpAdd, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Typ.Kind != mtypes.KInt || sum.I32[2] != 33 {
		t.Fatalf("int add: %v (%s)", sum.I32, sum.Typ)
	}
	big := New(mtypes.BigInt, 3)
	big.I64[0], big.I64[1], big.I64[2] = 100, 200, 300
	r, err := Arith(OpMul, a, big)
	if err != nil {
		t.Fatal(err)
	}
	if r.Typ.Kind != mtypes.KBigInt || r.I64[1] != 400 {
		t.Fatalf("bigint mul: %v (%s)", r.I64, r.Typ)
	}
}

func TestArithNullPropagation(t *testing.T) {
	a := intVec(1, 2, 3)
	a.SetNull(1)
	b := intVec(10, 20, 30)
	r, _ := Arith(OpAdd, a, b)
	if !r.IsNull(1) || r.IsNull(0) {
		t.Fatalf("null propagation: %v", r.I32)
	}
	d := dblVec(1, 2, 3)
	d.SetNull(0)
	rf, _ := Arith(OpMul, d, dblVec(2, 2, 2))
	if !rf.IsNull(0) || rf.F64[2] != 6 {
		t.Fatalf("double null propagation: %v", rf.F64)
	}
}

func TestArithDecimal(t *testing.T) {
	// 1.50 + 0.250 -> scale 3
	a := New(mtypes.Decimal(10, 2), 1)
	a.I64[0] = 150
	b := New(mtypes.Decimal(10, 3), 1)
	b.I64[0] = 250
	r, err := Arith(OpAdd, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Typ.Scale != 3 || r.I64[0] != 1750 {
		t.Fatalf("decimal add: %d scale %d", r.I64[0], r.Typ.Scale)
	}
	// 1.50 * 2.00 = 3.00 at scale 4
	c := New(mtypes.Decimal(10, 2), 1)
	c.I64[0] = 200
	m, err := Arith(OpMul, a, c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Typ.Scale != 4 || m.I64[0] != 30000 {
		t.Fatalf("decimal mul: %d scale %d", m.I64[0], m.Typ.Scale)
	}
	// decimal / decimal -> double
	dv, err := Arith(OpDiv, a, c)
	if err != nil {
		t.Fatal(err)
	}
	if dv.Typ.Kind != mtypes.KDouble || dv.F64[0] != 0.75 {
		t.Fatalf("decimal div: %v", dv.F64)
	}
	// decimal - integer
	one := Const(mtypes.NewInt(mtypes.Int, 1), 1)
	s, err := Arith(OpSub, one, a) // 1 - 1.50 = -0.50
	if err != nil {
		t.Fatal(err)
	}
	if s.Typ.Scale != 2 || s.I64[0] != -50 {
		t.Fatalf("int-decimal sub: %d scale %d", s.I64[0], s.Typ.Scale)
	}
}

func TestArithDates(t *testing.T) {
	d, _ := mtypes.ParseDate("1998-12-01")
	dv := New(mtypes.Date, 1)
	dv.I32[0] = d
	ninety := Const(mtypes.NewInt(mtypes.Int, 90), 1)
	r, err := Arith(OpSub, dv, ninety)
	if err != nil {
		t.Fatal(err)
	}
	if r.Typ.Kind != mtypes.KDate || mtypes.FormatDate(r.I32[0]) != "1998-09-02" {
		t.Fatalf("date - days: %s", mtypes.FormatDate(r.I32[0]))
	}
	// date - date -> int days
	d2 := New(mtypes.Date, 1)
	d2.I32[0] = d - 7
	diff, err := Arith(OpSub, dv, d2)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Typ.Kind != mtypes.KInt || diff.I32[0] != 7 {
		t.Fatalf("date diff: %v", diff.I32)
	}
}

func TestArithDivByZero(t *testing.T) {
	a := intVec(10)
	b := intVec(0)
	r, _ := Arith(OpDiv, a, b)
	if !r.IsNull(0) {
		t.Fatal("int div by zero should be NULL")
	}
	fa, fb := dblVec(10), dblVec(0)
	rf, _ := Arith(OpDiv, fa, fb)
	if !rf.IsNull(0) {
		t.Fatal("float div by zero should be NULL")
	}
}

func TestArithErrors(t *testing.T) {
	if _, err := Arith(OpAdd, intVec(1), intVec(1, 2)); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Arith(OpAdd, strVec("a"), intVec(1)); err == nil {
		t.Fatal("string arith should error")
	}
}

func TestCmpVec(t *testing.T) {
	a := intVec(1, 5, 3)
	b := intVec(2, 5, 1)
	r, err := CmpVec(CmpLt, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.I8[0] != 1 || r.I8[1] != 0 || r.I8[2] != 0 {
		t.Fatalf("cmpvec: %v", r.I8)
	}
	a.SetNull(0)
	r, _ = CmpVec(CmpEq, a, b)
	if !r.IsNull(0) {
		t.Fatal("null compare should be null")
	}
	s1, s2 := strVec("a", "b"), strVec("b", "b")
	r, _ = CmpVec(CmpLe, s1, s2)
	if r.I8[0] != 1 || r.I8[1] != 1 {
		t.Fatalf("string cmpvec: %v", r.I8)
	}
	// Cross decimal/int compare goes through floats.
	d := New(mtypes.Decimal(10, 2), 2)
	d.I64[0], d.I64[1] = 150, 300
	iv := intVec(2, 2)
	r, _ = CmpVec(CmpLt, d, iv)
	if r.I8[0] != 1 || r.I8[1] != 0 {
		t.Fatalf("decimal/int cmpvec: %v", r.I8)
	}
}

// Two columns of one integer width compare in place; the answer must be the
// one their values widened to int64 give, NULLs included.
func TestCmpVecSameWidthMatchesWidened(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := []struct {
		op    CmpOp
		holds func(x, y int64) bool
	}{
		{CmpEq, func(x, y int64) bool { return x == y }},
		{CmpNe, func(x, y int64) bool { return x != y }},
		{CmpLt, func(x, y int64) bool { return x < y }},
		{CmpLe, func(x, y int64) bool { return x <= y }},
		{CmpGt, func(x, y int64) bool { return x > y }},
		{CmpGe, func(x, y int64) bool { return x >= y }},
	}
	for _, typ := range []mtypes.Type{mtypes.Bool, mtypes.TinyInt, mtypes.SmallInt, mtypes.Int, mtypes.Date, mtypes.BigInt, mtypes.Decimal(9, 2)} {
		a, b := randKeyVector(rng, typ, 300), randKeyVector(rng, typ, 300)
		for _, o := range ops {
			got, err := CmpVec(o.op, a, b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got.I8 {
				x, xnull := numKeyAt(a, i)
				y, ynull := numKeyAt(b, i)
				want := int8(0)
				if xnull || ynull {
					want = mtypes.NullInt8
				} else if o.holds(x, y) {
					want = 1
				}
				if got.I8[i] != want {
					t.Fatalf("%s op %d row %d (%v vs %v): %d, want %d", typ, o.op, i, a.Value(i), b.Value(i), got.I8[i], want)
				}
			}
		}
	}
}

func TestBoolLogic(t *testing.T) {
	tr, fa, nu := int8(1), int8(0), mtypes.NullInt8
	a := New(mtypes.Bool, 9)
	b := New(mtypes.Bool, 9)
	vals := []struct{ x, y int8 }{{tr, tr}, {tr, fa}, {tr, nu}, {fa, tr}, {fa, fa}, {fa, nu}, {nu, tr}, {nu, fa}, {nu, nu}}
	for i, p := range vals {
		a.I8[i], b.I8[i] = p.x, p.y
	}
	and := BoolAnd(a, b)
	wantAnd := []int8{tr, fa, nu, fa, fa, fa, nu, fa, nu}
	for i := range wantAnd {
		if and.I8[i] != wantAnd[i] {
			t.Fatalf("AND row %d: got %d want %d", i, and.I8[i], wantAnd[i])
		}
	}
	or := BoolOr(a, b)
	wantOr := []int8{tr, tr, tr, tr, fa, nu, tr, nu, nu}
	for i := range wantOr {
		if or.I8[i] != wantOr[i] {
			t.Fatalf("OR row %d: got %d want %d", i, or.I8[i], wantOr[i])
		}
	}
	not := BoolNot(a)
	wantNot := []int8{fa, fa, fa, tr, tr, tr, nu, nu, nu}
	for i := range wantNot {
		if not.I8[i] != wantNot[i] {
			t.Fatalf("NOT row %d: got %d want %d", i, not.I8[i], wantNot[i])
		}
	}
}

func TestCast(t *testing.T) {
	// int -> double
	iv := intVec(1, 2)
	iv.SetNull(1)
	dv, err := Cast(iv, mtypes.Double)
	if err != nil {
		t.Fatal(err)
	}
	if dv.F64[0] != 1 || !dv.IsNull(1) {
		t.Fatal("int->double")
	}
	// double -> decimal rounds half away from zero (binary-exact inputs)
	fv := dblVec(1.375, -1.375)
	dec, err := Cast(fv, mtypes.Decimal(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if dec.I64[0] != 138 || dec.I64[1] != -138 {
		t.Fatalf("double->decimal: %v", dec.I64)
	}
	// string -> date
	sv := strVec("1995-06-17", StrNull)
	dt, err := Cast(sv, mtypes.Date)
	if err != nil {
		t.Fatal(err)
	}
	if mtypes.FormatDate(dt.I32[0]) != "1995-06-17" || !dt.IsNull(1) {
		t.Fatal("string->date")
	}
	// anything -> varchar
	vv, err := Cast(dec, mtypes.Varchar)
	if err != nil {
		t.Fatal(err)
	}
	if vv.Str[0] != "1.38" {
		t.Fatalf("decimal->varchar: %q", vv.Str[0])
	}
	// decimal -> int truncating via rescale
	ci, err := Cast(dec, mtypes.Int)
	if err != nil {
		t.Fatal(err)
	}
	if ci.I32[0] != 1 {
		t.Fatalf("decimal->int: %v", ci.I32)
	}
	// identity
	if same, _ := Cast(iv, mtypes.Int); same != iv {
		t.Fatal("identity cast should return same vector")
	}
}

func TestGroupBySingleKey(t *testing.T) {
	v := strVec("a", "b", "a", "c", "b", "a")
	gids, n, reprs, _ := GroupBy([]*Vector{v})
	if n != 3 {
		t.Fatalf("ngroups = %d", n)
	}
	if gids[0] != gids[2] || gids[0] != gids[5] || gids[1] != gids[4] || gids[0] == gids[1] || gids[3] == gids[0] || gids[3] == gids[1] {
		t.Fatalf("gids: %v", gids)
	}
	if v.Str[reprs[gids[0]]] != "a" || v.Str[reprs[gids[3]]] != "c" {
		t.Fatalf("reprs: %v", reprs)
	}
}

func TestGroupByMultiKeyAndNulls(t *testing.T) {
	k1 := intVec(1, 1, 2, 1)
	k2 := strVec("x", "y", "x", "x")
	k1.SetNull(2)
	gids, n, _, _ := GroupBy([]*Vector{k1, k2})
	// groups: (1,x) rows 0,3; (1,y) row 1; (null,x) row 2
	if n != 3 || gids[0] != gids[3] || gids[1] == gids[0] || gids[2] == gids[0] {
		t.Fatalf("multi-key groups: %v n=%d", gids, n)
	}
	// NULLs group together.
	k3 := intVec(7, 8, 9)
	k3.SetNull(0)
	k3.SetNull(2)
	gids2, n2, _, _ := GroupBy([]*Vector{k3})
	if n2 != 2 || gids2[0] != gids2[2] {
		t.Fatalf("null grouping: %v", gids2)
	}
}

func TestGroupByWithCands(t *testing.T) {
	v := intVec(1, 2, 1, 2, 3)
	cands := []int32{0, 2, 4}
	gids, n, reprs, _ := GroupBy([]*Vector{Gather(v, cands)})
	if n != 2 || gids[0] != gids[1] || gids[2] == gids[0] {
		t.Fatalf("cands grouping: %v n=%d", gids, n)
	}
	if v.I32[cands[reprs[gids[0]]]] != 1 || v.I32[cands[reprs[gids[2]]]] != 3 {
		t.Fatal("repr rows wrong")
	}
}

func TestHashJoinInner(t *testing.T) {
	build := intVec(10, 20, 30, 20)
	probe := intVec(20, 40, 10)
	ht := BuildHashPartitioned([]*Vector{build}, 1, 1)
	if ht.Len() != 3 {
		t.Fatalf("distinct keys = %d", ht.Len())
	}
	p, b := ht.Probe([]*Vector{probe})
	// probe row 0 (20) matches build 1,3; probe row 2 (10) matches build 0.
	if len(p) != 3 {
		t.Fatalf("pairs: %v %v", p, b)
	}
	type pair struct{ p, b int32 }
	got := map[pair]bool{}
	for i := range p {
		got[pair{p[i], b[i]}] = true
	}
	for _, want := range []pair{{0, 1}, {0, 3}, {2, 0}} {
		if !got[want] {
			t.Fatalf("missing pair %v in %v %v", want, p, b)
		}
	}
}

func TestHashJoinNullKeys(t *testing.T) {
	build := intVec(1, 2)
	build.SetNull(0)
	probe := intVec(1, 2)
	probe.SetNull(1)
	ht := BuildHashPartitioned([]*Vector{build}, 1, 1)
	p, _ := ht.Probe([]*Vector{probe})
	if len(p) != 0 {
		t.Fatalf("NULL keys must not join: %v", p)
	}
}

func TestHashJoinComposite(t *testing.T) {
	b1, b2 := intVec(1, 1, 2), strVec("x", "y", "x")
	p1, p2 := intVec(1, 2), strVec("y", "x")
	ht := BuildHashPartitioned([]*Vector{b1, b2}, 1, 1)
	p, b := ht.Probe([]*Vector{p1, p2})
	if len(p) != 2 {
		t.Fatalf("composite join: %v %v", p, b)
	}
	if !(p[0] == 0 && b[0] == 1) && !(p[1] == 0 && b[1] == 1) {
		t.Fatalf("expected (1,y) match: %v %v", p, b)
	}
}

func TestHashJoinSemiAnti(t *testing.T) {
	build := strVec("a", "b")
	probe := strVec("b", "c", "a", "b")
	ht := BuildHashPartitioned([]*Vector{build}, 1, 1)
	semi := ht.ProbeSemi([]*Vector{probe}, false)
	if !eqCands(semi, []int32{0, 2, 3}) {
		t.Fatalf("semi: %v", semi)
	}
	anti := ht.ProbeSemi([]*Vector{probe}, true)
	if !eqCands(anti, []int32{1}) {
		t.Fatalf("anti: %v", anti)
	}
}

func TestHashJoinMark(t *testing.T) {
	build := intVec(10, 7, 10)
	probe := intVec(10, 99, 10)
	ht := BuildHashPartitioned([]*Vector{build}, 1, 1)
	marks := NewBitmap(3)
	ht.ProbeMark([]*Vector{probe}, marks)
	if !marks.Get(0) || marks.Get(1) || !marks.Get(2) {
		t.Fatalf("marks: %b", marks[0])
	}
}

func TestGatherOuter(t *testing.T) {
	g := GatherOuter(strVec("a", "b"), []int32{1, -1, 0})
	if g.Str[0] != "b" || !g.IsNull(1) || g.Str[2] != "a" {
		t.Fatalf("outer gather: %v", g.Str)
	}
}

// Property: hash join equals nested-loop join on random data.
func TestHashJoinQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rng.Seed(seed)
		build := randomIntVecWithNulls(rng, 40)
		probe := randomIntVecWithNulls(rng, 40)
		ht := BuildHashPartitioned([]*Vector{build}, 1, 1)
		p, b := ht.Probe([]*Vector{probe})
		type pair struct{ p, b int32 }
		got := map[pair]int{}
		for i := range p {
			got[pair{p[i], b[i]}]++
		}
		want := map[pair]int{}
		for i := 0; i < probe.Len(); i++ {
			if probe.IsNull(i) {
				continue
			}
			for j := 0; j < build.Len(); j++ {
				if build.IsNull(j) {
					continue
				}
				if probe.I32[i] == build.I32[j] {
					want[pair{int32(i), int32(j)}]++
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregates(t *testing.T) {
	vals := intVec(5, 3, 8, 1, 9)
	vals.SetNull(3)
	gids := []int32{0, 1, 0, 1, 0}
	sum, err := Aggregate(AggSum, vals, gids, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Typ.Kind != mtypes.KBigInt || sum.I64[0] != 22 || sum.I64[1] != 3 {
		t.Fatalf("sum: %v", sum.I64)
	}
	cnt, _ := Aggregate(AggCount, vals, gids, 2)
	if cnt.I64[0] != 3 || cnt.I64[1] != 1 {
		t.Fatalf("count: %v", cnt.I64)
	}
	cs, _ := Aggregate(AggCountStar, nil, gids, 2)
	if cs.I64[0] != 3 || cs.I64[1] != 2 {
		t.Fatalf("count(*): %v", cs.I64)
	}
	mn, _ := Aggregate(AggMin, vals, gids, 2)
	mx, _ := Aggregate(AggMax, vals, gids, 2)
	if mn.I32[0] != 5 || mn.I32[1] != 3 || mx.I32[0] != 9 || mx.I32[1] != 3 {
		t.Fatalf("min/max: %v %v", mn.I32, mx.I32)
	}
	md, _ := Aggregate(AggMedian, vals, gids, 2)
	if md.F64[0] != 8 || md.F64[1] != 3 {
		t.Fatalf("median: %v", md.F64)
	}
}

func TestAggregateEmptyGroupNull(t *testing.T) {
	vals := intVec(1)
	vals.SetNull(0)
	gids := []int32{0}
	sum, _ := Aggregate(AggSum, vals, gids, 1)
	if !sum.IsNull(0) {
		t.Fatal("sum of all-null group should be NULL")
	}
	cnt, _ := Aggregate(AggCount, vals, gids, 1)
	if cnt.I64[0] != 0 {
		t.Fatal("count of all-null group should be 0")
	}
	mn, _ := Aggregate(AggMin, vals, gids, 1)
	if !mn.IsNull(0) {
		t.Fatal("min of all-null group should be NULL")
	}
}

// SUM (and AVG, which is SUM / COUNT) over a non-numeric column is an error,
// not a panic in the host process.
func TestSumNonNumericIsError(t *testing.T) {
	s := New(mtypes.Varchar, 2)
	s.Str[0], s.Str[1] = "a", "b"
	d := New(mtypes.Date, 2)
	for _, v := range []*Vector{s, d} {
		if _, err := Aggregate(AggSum, v, []int32{0, 0}, 1); err == nil {
			t.Fatalf("SUM over %s: no error", v.Typ)
		}
	}
}

func TestAggDecimalSum(t *testing.T) {
	d := New(mtypes.Decimal(10, 2), 3)
	d.I64[0], d.I64[1], d.I64[2] = 150, 250, 100
	sum, _ := Aggregate(AggSum, d, []int32{0, 0, 0}, 1)
	if sum.Typ.Kind != mtypes.KDecimal || sum.Typ.Scale != 2 || sum.I64[0] != 500 {
		t.Fatalf("decimal sum: %v %s", sum.I64, sum.Typ)
	}
}

func TestMergeAggPartials(t *testing.T) {
	p1, _ := Aggregate(AggSum, intVec(1, 2), []int32{0, 1}, 2)
	p2, _ := Aggregate(AggSum, intVec(10, 20), []int32{0, 0}, 2) // group 1 empty -> null
	merged, err := MergeKeyedAggPartials(AggSum, []*Vector{p1, p2}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if merged.I64[0] != 31 || merged.I64[1] != 2 {
		t.Fatalf("merged sums: %v", merged.I64)
	}
	c1, _ := Aggregate(AggCountStar, nil, []int32{0, 1, 1}, 2)
	c2, _ := Aggregate(AggCountStar, nil, []int32{0}, 2)
	mc, _ := MergeKeyedAggPartials(AggCountStar, []*Vector{c1, c2}, nil, 2)
	if mc.I64[0] != 2 || mc.I64[1] != 2 {
		t.Fatalf("merged counts: %v", mc.I64)
	}
	m1, _ := Aggregate(AggMin, intVec(5, 7), []int32{0, 1}, 2)
	m2, _ := Aggregate(AggMin, intVec(3), []int32{1}, 2)
	mm, _ := MergeKeyedAggPartials(AggMin, []*Vector{m1, m2}, nil, 2)
	if mm.I32[0] != 5 || mm.I32[1] != 3 {
		t.Fatalf("merged mins: %v", mm.I32)
	}
	if _, err := MergeKeyedAggPartials(AggAvg, []*Vector{p1}, nil, 2); err == nil {
		t.Fatal("AVG partials must not merge")
	}
}

func TestSortOrder(t *testing.T) {
	v := intVec(3, 1, 2)
	v.SetNull(1)
	ord := SortOrder([]SortKey{{Vec: v}}, 3)
	// NULL smallest: order = [1, 2, 0]
	if ord[0] != 1 || ord[1] != 2 || ord[2] != 0 {
		t.Fatalf("asc order: %v", ord)
	}
	ord = SortOrder([]SortKey{{Vec: v, Desc: true}}, 3)
	if ord[0] != 0 || ord[1] != 2 || ord[2] != 1 {
		t.Fatalf("desc order: %v", ord)
	}
}

func TestSortMultiKeyStable(t *testing.T) {
	k1 := strVec("b", "a", "b", "a")
	k2 := intVec(1, 2, 0, 1)
	ord := SortOrder([]SortKey{{Vec: k1}, {Vec: k2, Desc: true}}, 4)
	// a:2 (row1), a:1 (row3), b:1 (row0), b:0 (row2)
	want := []int32{1, 3, 0, 2}
	if !eqCands(ord, want) {
		t.Fatalf("multi-key: %v want %v", ord, want)
	}
}

// Property: SortOrder output is a permutation producing a non-decreasing key.
func TestSortOrderQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		rng.Seed(seed)
		v := randomIntVecWithNulls(rng, 80)
		ord := SortOrder([]SortKey{{Vec: v}}, v.Len())
		if len(ord) != v.Len() {
			return false
		}
		seen := make([]bool, v.Len())
		for _, i := range ord {
			if seen[i] {
				return false
			}
			seen[i] = true
		}
		for i := 1; i < len(ord); i++ {
			a, b := ord[i-1], ord[i]
			an, bn := v.IsNull(int(a)), v.IsNull(int(b))
			if an {
				continue
			}
			if bn {
				return false // null after non-null in ascending order
			}
			if v.I32[a] > v.I32[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianFloats(t *testing.T) {
	if MedianFloats([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if MedianFloats([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
	if !mtypes.IsNullF64(MedianFloats(nil)) {
		t.Fatal("empty median should be NULL")
	}
	if MedianFloats([]float64{math.NaN(), 5}) != 5 {
		t.Fatal("median should skip NULLs")
	}
}

func TestBinarySearchRange(t *testing.T) {
	v := intVec(50, 10, 30, 20, 40)
	ord := SortedOrderOf(v)
	lo, hi := BinarySearchRange(v, ord, mtypes.NewInt(mtypes.Int, 20), mtypes.NewInt(mtypes.Int, 40), true, true)
	var got []int32
	for i := lo; i < hi; i++ {
		got = append(got, ord[i])
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !eqCands(got, []int32{2, 3, 4}) {
		t.Fatalf("order index range: %v", got)
	}
	// Exclusive bounds.
	lo, hi = BinarySearchRange(v, ord, mtypes.NewInt(mtypes.Int, 20), mtypes.NewInt(mtypes.Int, 40), false, false)
	if hi-lo != 1 || ord[lo] != 2 {
		t.Fatalf("exclusive range: %v", ord[lo:hi])
	}
}

func TestNeg(t *testing.T) {
	v, err := Neg(intVec(5, -3))
	if err != nil {
		t.Fatal(err)
	}
	if v.I32[0] != -5 || v.I32[1] != 3 {
		t.Fatalf("neg: %v", v.I32)
	}
}

func TestArithResultTypeTable(t *testing.T) {
	if rt := ArithResultType(OpAdd, mtypes.TinyInt, mtypes.SmallInt); rt.Kind != mtypes.KInt {
		t.Fatalf("small ints should promote to INTEGER, got %s", rt)
	}
	if rt := ArithResultType(OpDiv, mtypes.Decimal(10, 2), mtypes.Decimal(10, 2)); rt.Kind != mtypes.KDouble {
		t.Fatalf("decimal div -> double, got %s", rt)
	}
	if rt := ArithResultType(OpMul, mtypes.Decimal(10, 4), mtypes.Decimal(10, 4)); rt.Scale != maxDecScale {
		t.Fatalf("decimal mul scale cap, got %d", rt.Scale)
	}
	if rt := ArithResultType(OpSub, mtypes.Date, mtypes.Date); rt.Kind != mtypes.KInt {
		t.Fatalf("date - date -> int, got %s", rt)
	}
}

// TestSumCarry: SUM is exact whenever the final total fits, even when a
// running sum or a chunk's partial leaves int64, and a serial and a
// chunked SUM agree; a total that does not fit is ErrOverflow both ways.
func TestSumCarry(t *testing.T) {
	big := func(xs ...int64) *Vector { return &Vector{Typ: mtypes.BigInt, I64: xs} }
	for _, c := range []struct {
		chunks [][]int64
		want   int64 // 0: overflow
	}{
		{[][]int64{{math.MaxInt64 - 10, 20}, {-30}}, math.MaxInt64 - 20},
		{[][]int64{{-math.MaxInt64, -5}, {mtypes.NullInt64, 10}}, -math.MaxInt64 + 5},
		{[][]int64{{math.MaxInt64 - 1, 1}, {1}}, 0},
		{[][]int64{{-math.MaxInt64}, {-1}}, 0}, // lands on the NULL sentinel
	} {
		var all []int64
		parts, his := make([]*Vector, len(c.chunks)), make([][]int64, len(c.chunks))
		for i, ch := range c.chunks {
			all = append(all, ch...)
			var err error
			if parts[i], his[i], err = SumGroups(big(ch...), make([]int32, len(ch)), 1); err != nil {
				t.Fatal(err)
			}
		}
		serial, serr := Aggregate(AggSum, big(all...), make([]int32, len(all)), 1)
		chunked, cerr := MergeSums(parts, his, [][]int32{{0}, {0}}, 1)
		for name, r := range map[string]struct {
			v   *Vector
			err error
		}{"serial": {serial, serr}, "chunked": {chunked, cerr}} {
			switch {
			case c.want == 0 && !errors.Is(r.err, mtypes.ErrOverflow):
				t.Errorf("%s sum of %v: %v, %v; want ErrOverflow", name, c.chunks, r.v, r.err)
			case c.want != 0 && (r.err != nil || r.v.I64[0] != c.want):
				t.Errorf("%s sum of %v: %v, %v; want %d", name, c.chunks, r.v, r.err, c.want)
			}
		}
	}
}
