package vec

import (
	"math/rand"
	"runtime"
	"testing"

	"monetlite/internal/mtypes"
)

// The serial join table is the one-part build on one worker, which skips the
// counting sort and the partition pick. Every partitioned build, at any part
// count and worker budget, must agree with it on distinct keys and on every
// probe flavor, pair for pair and in the same order.
func TestPartitionedHashMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 150; trial++ {
		nb := 1 + rng.Intn(200)
		np := 1 + rng.Intn(200)
		buildKeys, probeKeys := randJoinKeys(rng, nb, np)
		buildKeys = gatherKeys(buildKeys, randCands(rng, nb))
		probeKeys = gatherKeys(probeKeys, randCands(rng, np))
		parts := 2 << rng.Intn(5) // 2..32
		workers := 1 + rng.Intn(4)

		ht := BuildHashPartitioned(buildKeys, 1, 1)
		pt := BuildHashPartitioned(buildKeys, parts, workers)
		if ht.Len() != pt.Len() {
			t.Fatalf("trial %d: %d distinct keys vs serial %d", trial, pt.Len(), ht.Len())
		}
		hw, hpos, hok := ht.KeyFilter()
		if pw, ppos, pok := pt.KeyFilter(); pw != hw || ppos != hpos || pok != hok {
			t.Fatalf("trial %d: key filter %d %v %v vs serial %d %v %v", trial, pw, ppos, pok, hw, hpos, hok)
		}

		eqPairs := func(name string, gp, gb, wp, wb []int32) {
			t.Helper()
			if len(gp) != len(wp) {
				t.Fatalf("trial %d %s: %d pairs, serial %d", trial, name, len(gp), len(wp))
			}
			for i := range gp {
				if gp[i] != wp[i] || gb[i] != wb[i] {
					t.Fatalf("trial %d %s: pair %d = (%d,%d), serial (%d,%d)",
						trial, name, i, gp[i], gb[i], wp[i], wb[i])
				}
			}
		}
		wp, wb := ht.Probe(probeKeys)
		gp, gb := pt.Probe(probeKeys)
		eqPairs("inner", gp, gb, wp, wb)

		wantM, gotM := NewBitmap(buildKeys[0].Len()), NewBitmap(buildKeys[0].Len())
		ht.ProbeMark(probeKeys, wantM)
		pt.ProbeMark(probeKeys, gotM)
		for w := range wantM {
			if gotM[w] != wantM[w] {
				t.Fatalf("trial %d mark: word %d = %x, serial %x", trial, w, gotM[w], wantM[w])
			}
		}

		for _, anti := range []bool{false, true} {
			want := ht.ProbeSemi(probeKeys, anti)
			got := pt.ProbeSemi(probeKeys, anti)
			if len(got) != len(want) {
				t.Fatalf("trial %d semi anti=%v: %d rows, serial %d", trial, anti, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d semi anti=%v: row %d = %d, serial %d", trial, anti, i, got[i], want[i])
				}
			}
		}
	}
}

// A chunked probe (slice the probe keys, probe each slice, offset and
// concatenate in chunk order) must reproduce the unchunked pair lists — the
// contract the executor's parallel probe relies on.
func TestPartitionedHashChunkedProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		nb := 1 + rng.Intn(150)
		np := 2 + rng.Intn(400)
		buildKeys := []*Vector{randKeyVector(rng, keyKinds[rng.Intn(len(keyKinds))], nb)}
		probeKeys := []*Vector{randKeyVector(rng, buildKeys[0].Typ, np)}
		pt := BuildHashPartitioned(buildKeys, 8, 2)
		wantP, wantB := pt.Probe(probeKeys)

		chunk := 1 + rng.Intn(np)
		var gotP, gotB []int32
		for lo := 0; lo < np; lo += chunk {
			hi := min(lo+chunk, np)
			cp, cb := pt.Probe([]*Vector{probeKeys[0].Slice(lo, hi)})
			for i := range cp {
				gotP = append(gotP, cp[i]+int32(lo))
				gotB = append(gotB, cb[i])
			}
		}
		if len(gotP) != len(wantP) {
			t.Fatalf("trial %d: chunked %d pairs, want %d", trial, len(gotP), len(wantP))
		}
		for i := range gotP {
			if gotP[i] != wantP[i] || gotB[i] != wantB[i] {
				t.Fatalf("trial %d: pair %d = (%d,%d), want (%d,%d)",
					trial, i, gotP[i], gotB[i], wantP[i], wantB[i])
			}
		}
	}
}

// The one-part table is the serial join. On the benchmark input below, its
// BIGINT keys are dense, so the build is a positional table: build+probe
// allocates 11 times and 2 757 056 B. Spread a thousandfold, the same keys
// span more than MaxKeyFilterBits values and go through the hash table: 85
// allocs and 6 285 568 B. Each pin leaves 1% for the runtime. The table
// this replaced took 86 allocs and 8 706 176 B on the dense input.
func TestHashJoinOnePartAllocs(t *testing.T) {
	for _, tc := range []struct {
		spread     int64
		allocs     uint64
		bytes      uint64
		positional bool
	}{{1, 11, 2785000, true}, {1000, 85, 6350000, false}} {
		build, probe := benchJoinInput(1<<16, 1<<18, tc.spread)
		if _, pos, _ := BuildHashPartitioned(build, 1, 1).KeyFilter(); pos != tc.positional {
			t.Fatalf("spread %d: positional %v, want %v", tc.spread, pos, tc.positional)
		}
		allocs, bytes := allocsPerRun(3, func() {
			ht := BuildHashPartitioned(build, 1, 1)
			ht.Probe(probe)
		})
		if allocs > tc.allocs || bytes > tc.bytes {
			t.Fatalf("spread %d: one-part build+probe: %d allocs, %d B per run; want at most %d allocs, %d B",
				tc.spread, allocs, bytes, tc.allocs, tc.bytes)
		}
	}
}

// Probes and GroupBy read keys where they lie. A probe allocates its output
// (two pair lists or one row list, sized by the first block's yield,
// outCap) and one block of chain heads, GroupBy its group ids, the
// direct-address table (at most 2 slots per row) or the hash table, and the
// representatives. Per row on 2^18 rows, as measured: Probe 8.52 B where
// about every row matches once and 0.18 B where 1% do, the anti join 1.64 B
// (37% of rows kept), ProbeMark 0.02 B (the block), dense GroupBy 9.54 B,
// hashed GroupBy 17.51 B. The per-row hash and
// canonical key copies this replaced cost 17 B per probe row, on top of an
// output sized for every row, and 34.5 B per grouped row. Each pin leaves
// about 1%.
func TestKeyKernelBytesPerRow(t *testing.T) {
	build, probe := benchJoinInput(1<<16, 1<<18, 1)
	n := float64(probe[0].Len())
	ht := BuildHashPartitioned(build, 1, 1)
	marks := NewBitmap(build[0].Len())
	rng := rand.New(rand.NewSource(1))
	rare := New(mtypes.BigInt, probe[0].Len())
	for i := range rare.I64 {
		rare.I64[i] = int64(rng.Intn(100 << 16))
	}
	dense, hashed := New(mtypes.Int, 1<<18), New(mtypes.Int, 1<<18)
	for i := range dense.I32 {
		dense.I32[i] = int32(rng.Intn(1 << 16))
		hashed.I32[i] = dense.I32[i] * 1000
	}
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Probe", 8.61, func() { ht.Probe(probe) }},
		{"Probe, 1% matching", 0.19, func() { ht.Probe([]*Vector{rare}) }},
		{"ProbeSemi anti", 1.66, func() { ht.ProbeSemi(probe, true) }},
		{"ProbeMark", 0.02, func() { ht.ProbeMark(probe, marks) }},
		{"dense GroupBy", 9.64, func() { GroupBy([]*Vector{dense}) }},
		{"hashed GroupBy", 17.7, func() { GroupBy([]*Vector{hashed}) }},
	} {
		_, bytes := allocsPerRun(3, tc.f)
		perRow := float64(bytes) / n
		t.Logf("%s: %.3f B per row", tc.name, perRow)
		if perRow > tc.max {
			t.Errorf("%s: %.2f B per row, want at most %.2f", tc.name, perRow, tc.max)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun reporting bytes too: the mean heap
// allocations and bytes of one call of f, after a warm-up call.
func allocsPerRun(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.Mallocs - m0.Mallocs) / uint64(runs), (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

// ---------------------------------------------------------------------------
// Microbenchmarks: the one-part (serial) table and an 8-part build on one
// worker, over the same input, whose keys are spread beyond the key
// filter's range so that both hash; and the positional table over the dense
// keys.
// ---------------------------------------------------------------------------

// benchJoinInput draws nb build and np probe BIGINT keys from [0, nb), times
// spread.
func benchJoinInput(nb, np int, spread int64) (build, probe []*Vector) {
	rng := rand.New(rand.NewSource(3))
	bk := New(mtypes.BigInt, nb)
	for i := range bk.I64 {
		bk.I64[i] = int64(rng.Intn(nb)) * spread
	}
	pk := New(mtypes.BigInt, np)
	for i := range pk.I64 {
		pk.I64[i] = int64(rng.Intn(nb)) * spread
	}
	return []*Vector{bk}, []*Vector{pk}
}

func BenchmarkHashJoinBuildProbeSerial(b *testing.B) { benchmarkHashJoin(b, 1, 1000) }

func BenchmarkHashJoinBuildProbePartitioned(b *testing.B) { benchmarkHashJoin(b, 8, 1000) }

func BenchmarkHashJoinBuildProbePositional(b *testing.B) { benchmarkHashJoin(b, 1, 1) }

func benchmarkHashJoin(b *testing.B, parts int, spread int64) {
	build, probe := benchJoinInput(1<<16, 1<<18, spread)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := BuildHashPartitioned(build, parts, 1)
		p, _ := pt.Probe(probe)
		if len(p) == 0 {
			b.Fatal("no pairs")
		}
	}
	b.SetBytes(int64(probe[0].Len()))
}
