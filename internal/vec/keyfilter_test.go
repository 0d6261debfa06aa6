package vec

import (
	"math/rand"
	"slices"
	"testing"

	"monetlite/internal/mtypes"
)

// TestKeyFilterSelect checks vec.KeyFilter.Select against a set of the
// build keys: positional and bitmap forms, candidates or none, a probe
// column of another width, and NULLs on both sides (the probe's NULL
// sentinel is a valid build key here, and must still never match).
func TestKeyFilterSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		nb, np := 1+rng.Intn(300), rng.Intn(3000)
		spread := []int64{1, 97, 4099}[trial%3]
		// Every value lies just above the INT NULL sentinel, which is also
		// the first build key.
		base := int64(mtypes.NullInt32)
		build := New(mtypes.BigInt, nb)
		keys := map[int64]bool{}
		for i := 0; i < nb; i++ {
			switch {
			case i == 0:
				build.I64[i] = base
			case rng.Intn(10) == 0:
				build.SetNull(i)
				continue
			default:
				build.I64[i] = base + int64(rng.Intn(500))*spread
			}
			keys[build.I64[i]] = true
		}
		probe := New(mtypes.Int, np)
		for i := 0; i < np; i++ {
			if rng.Intn(10) == 0 {
				probe.SetNull(i)
			} else {
				probe.I32[i] = int32(base + 1 + int64(rng.Intn(600))*spread)
			}
		}
		kf := NewKeyFilter(build)
		if kf == nil {
			if spread < 4099 {
				t.Fatalf("trial %d: no filter over a range of %d values", trial, 500*spread)
			}
			continue // wider than a filter takes
		}
		var cands []int32
		if trial%2 == 1 {
			cands = []int32{}
			for i := 0; i < np; i++ {
				if rng.Intn(3) > 0 {
					cands = append(cands, int32(i))
				}
			}
		}
		want := []int32{}
		for _, i := range candIter(np, cands) {
			if !probe.IsNull(int(i)) && keys[int64(probe.I32[i])] {
				want = append(want, i)
			}
		}
		got := kf.Select(probe, cands)
		if !slices.Equal(got, want) || got == nil {
			t.Fatalf("trial %d (%s, %d keys): got %d rows, want %d", trial, kf.Describe(), kf.Keys(), len(got), len(want))
		}
		if kf.Keys() != len(keys) {
			t.Fatalf("trial %d: %d keys, want %d", trial, kf.Keys(), len(keys))
		}
	}
	if kf := NewKeyFilter(New(mtypes.Double, 3)); kf != nil {
		t.Fatalf("a DOUBLE key got a filter: %s", kf.Describe())
	}
}
