package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"monetlite/internal/mtypes"
)

// Cross-check tests: the open-addressing GroupBy and the join table's Probe*
// must produce results identical to the refinement oracle (GroupByRefine)
// and to a brute-force join oracle, over randomized multi-column keys of
// every kind, with NULL keys (NULLs group together; NULL join keys are
// excluded) and with candidate lists.

// randKeyVector builds a random key vector with ~20% NULLs and a small value
// domain (to force collisions and multi-row groups).
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
		case mtypes.KVarchar:
			v.Str[i] = fmt.Sprintf("k%d", x)
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
	return v
}

var keyKinds = []mtypes.Type{
	mtypes.Int, mtypes.BigInt, mtypes.SmallInt, mtypes.Double,
	mtypes.Varchar, mtypes.Date, mtypes.Decimal(9, 2),
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

func TestGroupByMatchesRefineOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		ncols := 1 + rng.Intn(3)
		keys := make([]*Vector, ncols)
		for i := range keys {
			keys[i] = randKeyVector(rng, keyKinds[rng.Intn(len(keyKinds))], n)
		}
		cands := randCands(rng, n)
		gids, ng, reprs := GroupBy(keys, cands)
		ogids, ong, oreprs := GroupByRefine(keys, cands)
		if ng != ong {
			t.Fatalf("trial %d: ngroups %d vs oracle %d", trial, ng, ong)
		}
		if len(gids) != len(ogids) {
			t.Fatalf("trial %d: gids len %d vs %d", trial, len(gids), len(ogids))
		}
		for k := range gids {
			if gids[k] != ogids[k] {
				t.Fatalf("trial %d: gid[%d] = %d, oracle %d", trial, k, gids[k], ogids[k])
			}
		}
		for g := range reprs {
			if reprs[g] != oreprs[g] {
				t.Fatalf("trial %d: repr[%d] = %d, oracle %d", trial, g, reprs[g], oreprs[g])
			}
		}
	}
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
	gids, ng, _ := GroupBy([]*Vector{v}, nil)
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
	gids, ng, _ := GroupBy([]*Vector{v}, nil)
	if ng != 3 {
		t.Fatalf("want 3 groups, got %d: %v", ng, gids)
	}
	if gids[1] != gids[3] || gids[0] != gids[2] || gids[0] == gids[1] {
		t.Fatalf("bad NULL string grouping: %v", gids)
	}
}

// rowNullOrKey extracts the brute-force oracle's view of one key column at a
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

// The join table must answer every probe flavor exactly like a nested-loop
// oracle — pair order included — at every partition count and worker budget:
// one partition is the serial table, more are the mitosis build.
func TestHashJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		nb := 1 + rng.Intn(120)
		np := 1 + rng.Intn(120)
		ncols := 1 + rng.Intn(3)
		buildKeys := make([]*Vector, ncols)
		probeKeys := make([]*Vector, ncols)
		for i := range buildKeys {
			typ := keyKinds[rng.Intn(len(keyKinds))]
			buildKeys[i] = randKeyVector(rng, typ, nb)
			probeKeys[i] = randKeyVector(rng, typ, np)
		}
		bCands := randCands(rng, nb)
		pCands := randCands(rng, np)
		bRows := effRows(nb, bCands)
		pRows := effRows(np, pCands)

		// Distinct non-NULL build keys.
		distinct := 0
		for bi, b := range bRows {
			dup := false
			allNonNull := true
			for i := range buildKeys {
				if _, _, null := oracleKeyAt(buildKeys[i], int(b)); null {
					allNonNull = false
				}
			}
			if !allNonNull {
				continue
			}
			for _, b2 := range bRows[:bi] {
				if oracleMatch(buildKeys, buildKeys, b2, b) {
					dup = true
					break
				}
			}
			if !dup {
				distinct++
			}
		}
		// Inner join pairs (probe order, build rows ascending per probe), the
		// probe rows with a match (semi) and the build rows with one (mark).
		var wantP, wantB, wantSemi, wantAnti []int32
		wantMark := NewBitmap(nb)
		for _, p := range pRows {
			matched := false
			for _, b := range bRows {
				if oracleMatch(buildKeys, probeKeys, b, p) {
					wantP = append(wantP, p)
					wantB = append(wantB, b)
					wantMark.Set(b)
					matched = true
				}
			}
			if matched {
				wantSemi = append(wantSemi, p)
			} else {
				wantAnti = append(wantAnti, p)
			}
		}

		for parts := 1; parts <= 32; parts <<= 1 {
			for workers := 1; workers <= 4; workers++ {
				ht := BuildHashPartitioned(buildKeys, bCands, parts, workers)
				at := fmt.Sprintf("trial %d parts %d workers %d", trial, parts, workers)
				if ht.Len() != distinct {
					t.Fatalf("%s: table has %d keys, oracle %d", at, ht.Len(), distinct)
				}
				gotP, gotB := ht.Probe(probeKeys, pCands)
				if len(gotP) != len(wantP) {
					t.Fatalf("%s: %d pairs, oracle %d", at, len(gotP), len(wantP))
				}
				for i := range gotP {
					if gotP[i] != wantP[i] || gotB[i] != wantB[i] {
						t.Fatalf("%s: pair %d = (%d,%d), oracle (%d,%d)",
							at, i, gotP[i], gotB[i], wantP[i], wantB[i])
					}
				}
				for _, anti := range []bool{false, true} {
					want := wantSemi
					if anti {
						want = wantAnti
					}
					if got := ht.ProbeSemi(probeKeys, pCands, anti); !eqCands(got, want) {
						t.Fatalf("%s anti=%v: rows %v, oracle %v", at, anti, got, want)
					}
				}
				marks := NewBitmap(nb)
				ht.ProbeMark(probeKeys, pCands, marks)
				for w := range marks {
					if marks[w] != wantMark[w] {
						t.Fatalf("%s: mark word %d = %x, oracle %x", at, w, marks[w], wantMark[w])
					}
				}
			}
		}
	}
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
	gids, ng, _ := GroupBy([]*Vector{key}, nil)

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
			lg, lng, lreprs := GroupBy([]*Vector{ck}, nil)
			p, err := Aggregate(kind, cv, lg, lng)
			if err != nil {
				t.Fatal(err)
			}
			partials = append(partials, p)
			chunkKeys = append(chunkKeys, Gather(ck, lreprs))
		}
		allKeys := Concat(chunkKeys...)
		gg, gng, _ := GroupBy([]*Vector{allKeys}, nil)
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
	gids, ng, reprs := GroupBy([]*Vector{v}, nil)
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

func benchmarkGroupBy(b *testing.B, card int, fn func([]*Vector, []int32) ([]int32, int, []int32)) {
	keys := benchKeys(card, 1<<19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ng, _ := fn(keys, nil)
		if ng == 0 {
			b.Fatal("no groups")
		}
	}
	b.SetBytes(int64(keys[0].Len()))
}

func BenchmarkGroupByOpenAddressingLowCard(b *testing.B)  { benchmarkGroupBy(b, 4, GroupBy) }
func BenchmarkGroupByRefineLowCard(b *testing.B)          { benchmarkGroupBy(b, 4, GroupByRefine) }
func BenchmarkGroupByOpenAddressingHighCard(b *testing.B) { benchmarkGroupBy(b, 500, GroupBy) }
func BenchmarkGroupByRefineHighCard(b *testing.B)         { benchmarkGroupBy(b, 500, GroupByRefine) }
