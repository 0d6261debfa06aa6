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
		parts := 2 << rng.Intn(5) // 2..32
		workers := 1 + rng.Intn(4)

		ht := BuildHashPartitioned(buildKeys, bCands, 1, 1)
		pt := BuildHashPartitioned(buildKeys, bCands, parts, workers)
		if ht.Len() != pt.Len() {
			t.Fatalf("trial %d: %d distinct keys vs serial %d", trial, pt.Len(), ht.Len())
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
		wp, wb := ht.Probe(probeKeys, pCands)
		gp, gb := pt.Probe(probeKeys, pCands)
		eqPairs("inner", gp, gb, wp, wb)

		wantM, gotM := NewBitmap(buildKeys[0].Len()), NewBitmap(buildKeys[0].Len())
		ht.ProbeMark(probeKeys, pCands, wantM)
		pt.ProbeMark(probeKeys, pCands, gotM)
		for w := range wantM {
			if gotM[w] != wantM[w] {
				t.Fatalf("trial %d mark: word %d = %x, serial %x", trial, w, gotM[w], wantM[w])
			}
		}

		for _, anti := range []bool{false, true} {
			want := ht.ProbeSemi(probeKeys, pCands, anti)
			got := pt.ProbeSemi(probeKeys, pCands, anti)
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
		pt := BuildHashPartitioned(buildKeys, nil, 8, 2)
		wantP, wantB := pt.Probe(probeKeys, nil)

		chunk := 1 + rng.Intn(np)
		var gotP, gotB []int32
		for lo := 0; lo < np; lo += chunk {
			hi := min(lo+chunk, np)
			cp, cb := pt.Probe([]*Vector{probeKeys[0].Slice(lo, hi)}, nil)
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

// The one-part table is the serial join: its build+probe on the benchmark
// input below is pinned at the allocations of the serial table it replaced
// (86 allocs and 8 706 176 B per build+probe), plus the one-entry partition
// slice.
func TestHashJoinOnePartAllocs(t *testing.T) {
	build, probe := benchJoinInput(1<<16, 1<<18)
	allocs, bytes := allocsPerRun(3, func() {
		ht := BuildHashPartitioned(build, nil, 1, 1)
		ht.Probe(probe, nil)
	})
	if allocs > 87 || bytes > 8706240 {
		t.Fatalf("one-part build+probe: %d allocs, %d B per run; want at most 87 allocs, 8706240 B", allocs, bytes)
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
// worker, over the same input.
// ---------------------------------------------------------------------------

func benchJoinInput(nb, np int) (build, probe []*Vector) {
	rng := rand.New(rand.NewSource(3))
	bk := New(mtypes.BigInt, nb)
	for i := range bk.I64 {
		bk.I64[i] = int64(rng.Intn(nb))
	}
	pk := New(mtypes.BigInt, np)
	for i := range pk.I64 {
		pk.I64[i] = int64(rng.Intn(nb))
	}
	return []*Vector{bk}, []*Vector{pk}
}

func BenchmarkHashJoinBuildProbeSerial(b *testing.B) { benchmarkHashJoin(b, 1) }

func BenchmarkHashJoinBuildProbePartitioned(b *testing.B) { benchmarkHashJoin(b, 8) }

func benchmarkHashJoin(b *testing.B, parts int) {
	build, probe := benchJoinInput(1<<16, 1<<18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := BuildHashPartitioned(build, nil, parts, 1)
		p, _ := pt.Probe(probe, nil)
		if len(p) == 0 {
			b.Fatal("no pairs")
		}
	}
	b.SetBytes(int64(probe[0].Len()))
}
