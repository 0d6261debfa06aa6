package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"monetlite/internal/mtypes"
)

// Cross-check tests: the GroupBy kernels (direct-addressed and hashed) and
// the join table's Probe* must produce results identical to the refinement
// oracle (GroupByRefine) and to a brute-force join oracle, over randomized
// multi-column keys of every kind, with NULL keys (NULLs group together;
// NULL join keys are excluded), with -0.0 beside +0.0, and on both sides of
// each size limit: the key filter's range and the dense group box.

// randKeyVector builds a random key vector with ~20% NULLs and a small value
// domain (to force collisions and multi-row groups). Double zeros are -0.0
// or +0.0 at random.
func randKeyVector(rng *rand.Rand, typ mtypes.Type, n int) *Vector {
	v := New(typ, n)
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 {
			v.SetNull(i)
			continue
		}
		x := int64(rng.Intn(7))
		switch typ.Kind {
		case mtypes.KDouble:
			v.F64[i] = float64(x) + 0.25
			if x == 0 && rng.Intn(2) == 0 {
				v.F64[i] = math.Copysign(0, -1)
			} else if x == 0 {
				v.F64[i] = 0
			}
		case mtypes.KVarchar:
			v.Str[i] = fmt.Sprintf("k%d", x)
		case mtypes.KBigInt, mtypes.KDecimal:
			v.I64[i] = x
		case mtypes.KInt, mtypes.KDate:
			v.I32[i] = int32(x)
		case mtypes.KSmallInt:
			v.I16[i] = int16(x)
		case mtypes.KBool:
			v.I8[i] = int8(x & 1)
		default:
			v.I8[i] = int8(x)
		}
	}
	return v
}

var keyKinds = []mtypes.Type{
	mtypes.Int, mtypes.BigInt, mtypes.SmallInt, mtypes.Double,
	mtypes.Varchar, mtypes.Date, mtypes.Decimal(9, 2), mtypes.Bool, mtypes.TinyInt,
}

// intKeyKinds are the kinds a join key filter and a dense group box apply
// to, with the widest range each can hold around its minimum.
var intKeyKinds = []struct {
	typ      mtypes.Type
	min, max int64
}{
	{mtypes.Bool, 0, 1},
	{mtypes.TinyInt, math.MinInt8 + 1, math.MaxInt8},
	{mtypes.SmallInt, math.MinInt16 + 1, math.MaxInt16},
	{mtypes.Int, math.MinInt32 + 1, math.MaxInt32},
	{mtypes.Date, math.MinInt32 + 1, math.MaxInt32},
	{mtypes.BigInt, math.MinInt64 + 1, math.MaxInt64},
	{mtypes.Decimal(12, 2), math.MinInt64 + 1, math.MaxInt64},
}

// setInt stores integer x at row i of an integer-kind vector.
func setInt(v *Vector, i int, x int64) {
	switch v.Typ.Kind {
	case mtypes.KBigInt, mtypes.KDecimal:
		v.I64[i] = x
	case mtypes.KInt, mtypes.KDate:
		v.I32[i] = int32(x)
	case mtypes.KSmallInt:
		v.I16[i] = int16(x)
	default:
		v.I8[i] = int8(x)
	}
}

// randRangeKeys builds an integer key column whose non-NULL values lie at
// the two ends of [lo, lo+span) — both ends present once n >= 3 — with ~20%
// NULLs. With outside set, a third of the values fall just below or above
// the range instead (a probe side missing the build range), clamped to the
// type's domain.
func randRangeKeys(rng *rand.Rand, typ mtypes.Type, tmin, tmax int64, n int, lo, span int64, outside bool) *Vector {
	v := New(typ, n)
	for i := 0; i < n; i++ {
		var x int64
		switch {
		case i == 1:
			x = lo
		case i == 2:
			x = lo + span - 1
		case rng.Intn(5) == 0:
			v.SetNull(i)
			continue
		case outside && rng.Intn(3) == 0:
			x = lo - 1 - int64(rng.Intn(3))
			if rng.Intn(2) == 0 {
				x = lo + span + int64(rng.Intn(3))
			}
		case rng.Intn(2) == 0:
			x = lo + int64(rng.Intn(int(min(span, 4))))
		default:
			x = lo + span - 1 - int64(rng.Intn(int(min(span, 4))))
		}
		setInt(v, i, min(max(x, tmin), tmax))
	}
	return v
}

// randIntRange picks an integer key kind and a value range [lo, lo+span)
// around the key filter's limits: span 1, a few, exactly 1024 (the smallest
// positional limit) or one more, several thousand (a bitmap for the tests'
// build sizes), exactly MaxKeyFilterBits or one more, clamped to what the
// kind holds; lo is negative half the time.
func randIntRange(rng *rand.Rand) (typ mtypes.Type, tmin, tmax, lo, span int64) {
	k := intKeyKinds[rng.Intn(len(intKeyKinds))]
	spans := []int64{1, 3, 200, 1024, 1025, 5000, MaxKeyFilterBits, MaxKeyFilterBits + 1}
	span = spans[rng.Intn(len(spans))]
	if w := k.max - k.min + 1; w > 0 { // wraps for the 64-bit kinds
		span = min(span, w)
	}
	lo = max(k.min, -span/2-int64(rng.Intn(1000)))
	if rng.Intn(2) == 0 {
		lo = min(int64(rng.Intn(1000)), k.max-span+1)
	}
	return k.typ, k.min, k.max, lo, span
}

// randJoinKeys draws build and probe keys of matching kinds: two trials in
// three, one to three columns of randKeyVector keys; otherwise one integer
// column spread over a range around the key filter's limit (randIntRange),
// whose probe side also holds keys outside the build range.
func randJoinKeys(rng *rand.Rand, nb, np int) (build, probe []*Vector) {
	if rng.Intn(3) == 0 {
		typ, tmin, tmax, lo, span := randIntRange(rng)
		return []*Vector{randRangeKeys(rng, typ, tmin, tmax, nb, lo, span, false)},
			[]*Vector{randRangeKeys(rng, typ, tmin, tmax, np, lo, span, true)}
	}
	ncols := 1 + rng.Intn(3)
	build, probe = make([]*Vector, ncols), make([]*Vector, ncols)
	for i := range build {
		typ := keyKinds[rng.Intn(len(keyKinds))]
		build[i] = randKeyVector(rng, typ, nb)
		probe[i] = randKeyVector(rng, typ, np)
	}
	return build, probe
}

// randCands returns nil or a random strictly increasing candidate list.
func randCands(rng *rand.Rand, n int) []int32 {
	if rng.Intn(3) == 0 {
		return nil
	}
	cands := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			cands = append(cands, int32(i))
		}
	}
	return cands
}

// gatherKeys gathers each key vector at cands (nil: the keys themselves).
// The kernels take no candidate list; tests gather first and map the row
// ids they get back through cands.
func gatherKeys(keys []*Vector, cands []int32) []*Vector {
	if cands == nil {
		return keys
	}
	out := make([]*Vector, len(keys))
	for i, k := range keys {
		out[i] = Gather(k, cands)
	}
	return out
}

// checkGroupBy compares GroupBy with the refinement oracle on keys, and
// whether it chose direct addressing with wantDense (unless nil).
func checkGroupBy(t *testing.T, at string, keys []*Vector, wantDense *bool) {
	t.Helper()
	gids, ng, reprs, dense := GroupBy(keys)
	ogids, ong, oreprs := GroupByRefine(keys)
	if wantDense != nil && dense != *wantDense {
		t.Fatalf("%s: dense = %v, want %v", at, dense, *wantDense)
	}
	if ng != ong || len(reprs) != ong {
		t.Fatalf("%s: ngroups %d (%d reprs) vs oracle %d", at, ng, len(reprs), ong)
	}
	if len(gids) != len(ogids) {
		t.Fatalf("%s: gids len %d vs %d", at, len(gids), len(ogids))
	}
	for k := range gids {
		if gids[k] != ogids[k] {
			t.Fatalf("%s (dense=%v): gid[%d] = %d, oracle %d", at, dense, k, gids[k], ogids[k])
		}
	}
	for g := range reprs {
		if reprs[g] != oreprs[g] {
			t.Fatalf("%s (dense=%v): repr[%d] = %d, oracle %d", at, dense, g, reprs[g], oreprs[g])
		}
	}
}

func TestGroupByMatchesRefineOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		var keys []*Vector
		if rng.Intn(3) == 0 {
			typ, tmin, tmax, lo, span := randIntRange(rng)
			keys = []*Vector{randRangeKeys(rng, typ, tmin, tmax, n, lo, span, true)}
		} else {
			keys = make([]*Vector, 1+rng.Intn(3))
			for i := range keys {
				keys[i] = randKeyVector(rng, keyKinds[rng.Intn(len(keyKinds))], n)
			}
		}
		checkGroupBy(t, fmt.Sprintf("trial %d", trial), gatherKeys(keys, randCands(rng, n)), nil)
	}
}

// The dense group box holds at most max(2 x rows, 1024) slots, one per
// value of each column's [min, max] plus one NULL slot per column. Keys on
// each side of that limit, one and two columns, with and without NULLs,
// must group exactly like the oracle.
func TestGroupByDenseBoxLimit(t *testing.T) {
	dense, hashed := true, false
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{3, 700, 5000} {
		limit := int64(max(2*n, 1024))
		for _, k := range intKeyKinds[2:] { // SMALLINT and wider hold every box below
			// One column: span values plus the NULL slot.
			for _, tc := range []struct {
				span int64
				want *bool
			}{{limit - 1, &dense}, {limit, &hashed}} {
				lo := int64(-7 - rng.Intn(50))
				if k.typ.Kind == mtypes.KSmallInt && tc.span > 30000 {
					continue
				}
				for _, nulls := range []bool{false, true} {
					v := randRangeKeys(rng, k.typ, k.min, k.max, n, lo, tc.span, false)
					for i := 0; i < n; i++ {
						if v.IsNull(i) != (nulls && i%5 == 4) {
							setInt(v, i, lo+int64(rng.Intn(int(tc.span))))
							if nulls && i%5 == 4 {
								v.SetNull(i)
							}
						}
					}
					checkGroupBy(t, fmt.Sprintf("%s n=%d span=%d nulls=%v", k.typ, n, tc.span, nulls), []*Vector{v}, tc.want)
				}
			}
			// Two columns: (a+1) x (b+1) slots, at the limit and one row of
			// the second column's span past it.
			a := int64(31)
			b := limit/(a+1) - 1
			for _, tc := range []struct {
				b    int64
				want *bool
			}{{b, &dense}, {b + 1, &hashed}} {
				if (a+1)*(tc.b+1) <= limit != (tc.want == &dense) {
					continue // limit/(a+1) rounded down: no box lands exactly on the limit
				}
				x := randRangeKeys(rng, k.typ, k.min, k.max, n, -3, a, false)
				y := randRangeKeys(rng, mtypes.BigInt, math.MinInt64+1, math.MaxInt64, n, 1<<40, tc.b, false)
				checkGroupBy(t, fmt.Sprintf("%s x BIGINT n=%d box %dx%d", k.typ, n, a+1, tc.b+1), []*Vector{x, y}, tc.want)
			}
		}
	}
	// A key that is not integer never groups densely; dictionary codes (INT
	// vectors) do.
	checkGroupBy(t, "double", []*Vector{randKeyVector(rng, mtypes.Double, 50)}, &hashed)
	codes := randKeyVector(rng, mtypes.Int, 50)
	checkGroupBy(t, "codes", []*Vector{codes, randKeyVector(rng, mtypes.Varchar, 50)}, &hashed)
	checkGroupBy(t, "codes only", []*Vector{codes}, &dense)
	// Every row NULL: one slot.
	allNull := New(mtypes.Int, 10)
	for i := range allNull.I32 {
		allNull.SetNull(i)
	}
	checkGroupBy(t, "all NULL", []*Vector{allNull}, &dense)
}

// Every NaN bit pattern must canonicalize to the same NULL group, and NULL
// doubles must group together with each other but apart from real values.
func TestGroupByFloatNullCanonicalization(t *testing.T) {
	v := New(mtypes.Double, 6)
	v.F64[0] = mtypes.NullFloat64()
	v.F64[1] = math.Float64frombits(0x7ff8000000000001) // NaN, different payload
	v.F64[2] = math.Float64frombits(0xfff8000000000123) // negative NaN
	v.F64[3] = 1.5
	v.F64[4] = math.NaN()
	v.F64[5] = 1.5
	gids, ng, _, _ := GroupBy([]*Vector{v})
	if ng != 2 {
		t.Fatalf("want 2 groups (NULL, 1.5), got %d: %v", ng, gids)
	}
	if gids[0] != gids[1] || gids[1] != gids[2] || gids[2] != gids[4] {
		t.Fatalf("NaN payloads split the NULL group: %v", gids)
	}
	if gids[3] != gids[5] || gids[3] == gids[0] {
		t.Fatalf("value group wrong: %v", gids)
	}
}

// String NULL sentinel groups together and apart from real strings.
func TestGroupByStringNulls(t *testing.T) {
	v := New(mtypes.Varchar, 5)
	v.Str[0] = "a"
	v.SetNull(1)
	v.Str[2] = "a"
	v.SetNull(3)
	v.Str[4] = "b"
	gids, ng, _, _ := GroupBy([]*Vector{v})
	if ng != 3 {
		t.Fatalf("want 3 groups, got %d: %v", ng, gids)
	}
	if gids[1] != gids[3] || gids[0] != gids[2] || gids[0] == gids[1] {
		t.Fatalf("bad NULL string grouping: %v", gids)
	}
}

// oracleKeyAt extracts the brute-force oracle's view of one key column at a
// row: the canonical payload (numeric) or the string, plus NULL-ness.
func oracleKeyAt(v *Vector, row int) (int64, string, bool) {
	if v.Typ.Kind == mtypes.KVarchar {
		s := v.Str[row]
		return 0, s, s == StrNull
	}
	p, null := numKeyAt(v, row)
	return p, "", null
}

// oracleMatch reports whether build row b and probe row p hold equal,
// all-non-NULL keys (the SQL equi-join contract).
func oracleMatch(buildKeys, probeKeys []*Vector, b, p int32) bool {
	for i := range buildKeys {
		bi, bs, bnull := oracleKeyAt(buildKeys[i], int(b))
		pi, ps, pnull := oracleKeyAt(probeKeys[i], int(p))
		if bnull || pnull || bi != pi || bs != ps {
			return false
		}
	}
	return true
}

// joinOracle is the nested-loop answer to every probe flavor, over the
// candidate rows of both sides: the inner pairs (probe order, build rows
// ascending per probe), the probe rows with and without a match, the build
// rows with one, the distinct non-NULL build keys and the key filter the
// table must carry: its width (-1: none) and whether it is positional.
type joinOracle struct {
	pairsP, pairsB []int32
	semi, anti     []int32
	mark           Bitmap
	distinct       int
	filterWidth    int
	positional     bool
	bCands, pCands []int32
	buildRows      int
}

func effRows(n int, cands []int32) []int32 {
	if cands != nil {
		return cands
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func newJoinOracle(buildKeys, probeKeys []*Vector, bCands, pCands []int32) *joinOracle {
	nb := buildKeys[0].Len()
	bRows, pRows := effRows(nb, bCands), effRows(probeKeys[0].Len(), pCands)
	o := &joinOracle{mark: NewBitmap(nb), filterWidth: -1, bCands: bCands, pCands: pCands, buildRows: len(bRows)}
	var nonNull []int32
	for _, b := range bRows {
		null := false
		for i := range buildKeys {
			if _, _, isNull := oracleKeyAt(buildKeys[i], int(b)); isNull {
				null = true
			}
		}
		if null {
			continue
		}
		dup := false
		for _, b2 := range nonNull {
			if oracleMatch(buildKeys, buildKeys, b2, b) {
				dup = true
				break
			}
		}
		if !dup {
			o.distinct++
		}
		nonNull = append(nonNull, b)
	}
	// A one-column integer key gets a positional table over [min, max] when
	// that spans at most max(2 x build rows, 1024) values, else a bitmap up
	// to MaxKeyFilterBits values; an all-NULL build an empty positional one.
	if k := buildKeys[0].Typ.Kind; len(buildKeys) == 1 && k != mtypes.KDouble && k != mtypes.KVarchar {
		o.filterWidth, o.positional = 0, true
		if len(nonNull) > 0 {
			lo, _ := numKeyAt(buildKeys[0], int(nonNull[0]))
			hi := lo
			for _, b := range nonNull {
				x, _ := numKeyAt(buildKeys[0], int(b))
				lo, hi = min(lo, x), max(hi, x)
			}
			w := uint64(hi) - uint64(lo) + 1
			o.filterWidth, o.positional = int(w), w <= uint64(max(2*len(bRows), 1024))
			if w > MaxKeyFilterBits {
				o.filterWidth = -1
			}
		}
	}
	for _, p := range pRows {
		matched := false
		for _, b := range bRows {
			if oracleMatch(buildKeys, probeKeys, b, p) {
				o.pairsP = append(o.pairsP, p)
				o.pairsB = append(o.pairsB, b)
				o.mark.Set(b)
				matched = true
			}
		}
		if matched {
			o.semi = append(o.semi, p)
		} else {
			o.anti = append(o.anti, p)
		}
	}
	return o
}

// back maps row ids of keys gathered at cands back to rows of the original
// keys (nil cands: unchanged).
func back(rows, cands []int32) []int32 {
	if cands == nil {
		return rows
	}
	out := make([]int32, len(rows))
	for i, r := range rows {
		out[i] = cands[r]
	}
	return out
}

// check runs every probe flavor of ht, built over the build keys gathered at
// bCands, with the probe keys gathered at pCands, against the oracle.
func (o *joinOracle) check(t *testing.T, at string, ht *PartitionedHashTable, probe []*Vector) {
	t.Helper()
	if ht.Len() != o.distinct {
		t.Fatalf("%s: table has %d keys, oracle %d", at, ht.Len(), o.distinct)
	}
	if w, pos, ok := ht.KeyFilter(); ok != (o.filterWidth >= 0) || ok && (w != o.filterWidth || pos != o.positional) {
		t.Fatalf("%s: key filter of %d keys (positional %v, ok %v), want %d (positional %v)", at, w, pos, ok, o.filterWidth, o.positional)
	}
	gotP, gotB := ht.Probe(probe)
	gotP, gotB = back(gotP, o.pCands), back(gotB, o.bCands)
	if len(gotP) != len(o.pairsP) {
		t.Fatalf("%s: %d pairs, oracle %d", at, len(gotP), len(o.pairsP))
	}
	for i := range gotP {
		if gotP[i] != o.pairsP[i] || gotB[i] != o.pairsB[i] {
			t.Fatalf("%s: pair %d = (%d,%d), oracle (%d,%d)", at, i, gotP[i], gotB[i], o.pairsP[i], o.pairsB[i])
		}
	}
	for _, anti := range []bool{false, true} {
		want := o.semi
		if anti {
			want = o.anti
		}
		if got := back(ht.ProbeSemi(probe, anti), o.pCands); !eqCands(got, want) {
			t.Fatalf("%s anti=%v: rows %v, oracle %v", at, anti, got, want)
		}
	}
	gm := NewBitmap(o.buildRows)
	ht.ProbeMark(probe, gm)
	var marked []int32
	for r := int32(0); r < int32(o.buildRows); r++ {
		if gm.Get(r) {
			marked = append(marked, r)
		}
	}
	marks := NewBitmap(len(o.mark) * 64)
	for _, r := range back(marked, o.bCands) {
		marks.Set(r)
	}
	for w := range marks {
		if marks[w] != o.mark[w] {
			t.Fatalf("%s: mark word %d = %x, oracle %x", at, w, marks[w], o.mark[w])
		}
	}
}

// The join table must answer every probe flavor exactly like a nested-loop
// oracle — pair order included — at every partition count and worker budget
// (one partition is the serial table, more are the mitosis build), over
// every key kind, with and without a key filter.
func TestHashJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		nb := 1 + rng.Intn(120)
		np := 1 + rng.Intn(120)
		buildKeys, probeKeys := randJoinKeys(rng, nb, np)
		bCands, pCands := randCands(rng, nb), randCands(rng, np)
		o := newJoinOracle(buildKeys, probeKeys, bCands, pCands)
		bk, pk := gatherKeys(buildKeys, bCands), gatherKeys(probeKeys, pCands)
		for parts := 1; parts <= 32; parts <<= 1 {
			for workers := 1; workers <= 4; workers++ {
				ht := BuildHashPartitioned(bk, parts, workers)
				o.check(t, fmt.Sprintf("trial %d %s parts %d workers %d", trial, bk[0].Typ, parts, workers), ht, pk)
			}
		}
	}
}

// fuzzKeyKinds are the key kinds FuzzHashKeys decodes, with their domains.
var fuzzKeyKinds = append(intKeyKinds[:len(intKeyKinds):len(intKeyKinds)],
	struct {
		typ      mtypes.Type
		min, max int64
	}{mtypes.Double, -1 << 53, 1 << 53},
	struct {
		typ      mtypes.Type
		min, max int64
	}{mtypes.Varchar, 0, 0})

// fuzzKeys decodes one key column from data: byte 255 is NULL; for integer
// kinds 251-254 fall just outside [lo, lo+span] and b <= 250 is lo +
// b*span/250 (so 0 and 250 are the range's ends), clamped to the kind's
// domain; doubles take the same values, and 251-254 are -0.0, +0.0, a NaN
// with another payload and -1.5; strings are one of seven.
func fuzzKeys(typ mtypes.Type, tmin, tmax, lo int64, span uint64, data []byte) *Vector {
	v := New(typ, len(data))
	for i, b := range data {
		if b == 255 {
			v.SetNull(i)
			continue
		}
		x := lo + int64(uint64(b)*span/250)
		switch b {
		case 251:
			x = lo - 1
		case 252:
			x = lo - 2
		case 253:
			x = lo + int64(span) + 1
		case 254:
			x = lo + int64(span) + 2
		}
		switch typ.Kind {
		case mtypes.KVarchar:
			v.Str[i] = fmt.Sprintf("s%d", b%7)
		case mtypes.KDouble:
			v.F64[i] = float64(min(max(x, tmin), tmax))
			switch b {
			case 251:
				v.F64[i] = math.Copysign(0, -1)
			case 252:
				v.F64[i] = 0
			case 253:
				v.F64[i] = math.Float64frombits(0xfff8000000000123)
			case 254:
				v.F64[i] = -1.5
			}
		default:
			setInt(v, i, min(max(x, tmin), tmax))
		}
	}
	return v
}

// FuzzHashKeys decodes a key kind, a range and the keys of a build and a
// probe side (NULL, NaN and ±0 included) and checks the join table — one
// and eight partitions — on every probe flavor against the nested-loop
// oracle, and GroupBy against GroupByRefine on one and two columns.
func FuzzHashKeys(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, lo int64, span uint32, nb uint8, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		k := fuzzKeyKinds[int(kind)%len(fuzzKeyKinds)]
		lo = min(max(lo, k.min), k.max)
		sp := min(uint64(span), uint64(k.max)-uint64(lo))
		cut := int(nb) % (len(data) + 1)
		build := []*Vector{fuzzKeys(k.typ, k.min, k.max, lo, sp, data[:cut])}
		probe := []*Vector{fuzzKeys(k.typ, k.min, k.max, lo, sp, data[cut:])}
		if cut > 0 {
			o := newJoinOracle(build, probe, nil, nil)
			for _, parts := range []int{1, 8} {
				o.check(t, fmt.Sprintf("%s parts %d", k.typ, parts), BuildHashPartitioned(build, parts, 2), probe)
			}
		}
		all := fuzzKeys(k.typ, k.min, k.max, lo, sp, data)
		checkGroupBy(t, k.typ.String(), []*Vector{all}, nil)
		rot := Concat(all.Slice(1, all.Len()), all.Slice(0, 1))
		checkGroupBy(t, k.typ.String()+" x2", []*Vector{all, rot}, nil)
	})
}

// Keyed partial merging must agree with aggregating the full input at once.
func TestMergeKeyedAggPartials(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 4000
	key := randKeyVector(rng, mtypes.Varchar, n)
	vals := randKeyVector(rng, mtypes.BigInt, n)
	for i := 0; i < n; i++ {
		if !vals.IsNull(i) {
			vals.I64[i] = int64(rng.Intn(1000))
		}
	}
	gids, ng, _, _ := GroupBy([]*Vector{key})

	for _, kind := range []AggKind{AggSum, AggCount, AggCountStar, AggMin, AggMax} {
		want, err := Aggregate(kind, vals, gids, ng)
		if err != nil {
			t.Fatal(err)
		}
		// Split into 3 chunks, each with its own local grouping.
		var partials []*Vector
		var gidMaps [][]int32
		var chunkKeys []*Vector
		for lo := 0; lo < n; lo += n / 3 {
			hi := min(lo+n/3, n)
			ck := key.Slice(lo, hi)
			cv := vals.Slice(lo, hi)
			lg, lng, lreprs, _ := GroupBy([]*Vector{ck})
			p, err := Aggregate(kind, cv, lg, lng)
			if err != nil {
				t.Fatal(err)
			}
			partials = append(partials, p)
			chunkKeys = append(chunkKeys, Gather(ck, lreprs))
		}
		allKeys := Concat(chunkKeys...)
		gg, gng, _, _ := GroupBy([]*Vector{allKeys})
		if gng != ng {
			t.Fatalf("%v: merged %d groups, want %d", kind, gng, ng)
		}
		off := 0
		for _, ck := range chunkKeys {
			gidMaps = append(gidMaps, gg[off:off+ck.Len()])
			off += ck.Len()
		}
		got, err := MergeKeyedAggPartials(kind, partials, gidMaps, gng)
		if err != nil {
			t.Fatal(err)
		}
		// Merged group g corresponds to want group g: both number groups in
		// first-appearance order over the same row order.
		for g := 0; g < ng; g++ {
			a, b := got.Value(g), want.Value(g)
			if a.String() != b.String() {
				t.Fatalf("%v: group %d = %s, want %s", kind, g, a, b)
			}
		}
	}

	// AVG and MEDIAN partials must be rejected.
	if _, err := MergeKeyedAggPartials(AggAvg, []*Vector{New(mtypes.Double, 1)}, nil, 1); err == nil {
		t.Fatal("AVG partials merged without error")
	}
}

func TestOATableGrowth(t *testing.T) {
	// Force many growth cycles with distinct keys.
	n := 100000
	v := New(mtypes.BigInt, n)
	for i := range v.I64 {
		v.I64[i] = int64(i * 7)
	}
	gids, ng, reprs, _ := GroupBy([]*Vector{v})
	if ng != n {
		t.Fatalf("want %d groups, got %d", n, ng)
	}
	for i, g := range gids {
		if int(g) != i || reprs[g] != int32(i) {
			t.Fatalf("row %d: gid %d repr %d", i, g, reprs[g])
		}
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks: open-addressing GroupBy vs the map-based refinement path.
// ---------------------------------------------------------------------------

func benchKeys(card int, n int) []*Vector {
	rng := rand.New(rand.NewSource(1))
	flag := New(mtypes.Varchar, n)
	status := New(mtypes.Int, n)
	for i := 0; i < n; i++ {
		flag.Str[i] = string(rune('A' + rng.Intn(card)))
		status.I32[i] = int32(rng.Intn(card))
	}
	return []*Vector{flag, status}
}

func benchmarkGroupBy(b *testing.B, card int, fn func([]*Vector) ([]int32, int, []int32)) {
	keys := benchKeys(card, 1<<19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ng, _ := fn(keys)
		if ng == 0 {
			b.Fatal("no groups")
		}
	}
	b.SetBytes(int64(keys[0].Len()))
}

func groupBy3(keys []*Vector) ([]int32, int, []int32) {
	gids, ng, reprs, _ := GroupBy(keys)
	return gids, ng, reprs
}

func BenchmarkGroupByOpenAddressingLowCard(b *testing.B)  { benchmarkGroupBy(b, 4, groupBy3) }
func BenchmarkGroupByRefineLowCard(b *testing.B)          { benchmarkGroupBy(b, 4, GroupByRefine) }
func BenchmarkGroupByOpenAddressingHighCard(b *testing.B) { benchmarkGroupBy(b, 500, groupBy3) }
func BenchmarkGroupByRefineHighCard(b *testing.B)         { benchmarkGroupBy(b, 500, GroupByRefine) }
