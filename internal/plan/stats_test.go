package plan

import (
	"math"
	"math/rand"
	"testing"
)

// TestLtFraction checks the closed form of P(X < Y), X and Y independent
// and uniform on two intervals, against a midpoint-rule integration of the
// same probability over a fine grid: overlapping, nested, disjoint and
// single-valued ranges.
func TestLtFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := [][4]float64{
		{0, 10, 0, 10}, {0, 10, 5, 15}, {0, 10, 20, 30}, {20, 30, 0, 10},
		{0, 100, 40, 60}, {40, 60, 0, 100}, {5, 5, 0, 10}, {0, 10, 5, 5}, {3, 3, 3, 3},
	}
	for i := 0; i < 40; i++ {
		a1, b1 := rng.Float64()*100, rng.Float64()*100
		cases = append(cases, [4]float64{a1, a1 + rng.Float64()*50, b1, b1 + rng.Float64()*50})
	}
	const steps = 2000
	for _, c := range cases {
		a1, a2, b1, b2 := c[0], c[1], c[2], c[3]
		// The grid integrates the indicator of x < y over both ranges; a
		// single-valued range is its one point.
		pts := func(lo, hi float64) []float64 {
			if hi <= lo {
				return []float64{lo}
			}
			out := make([]float64, steps)
			for k := range out {
				out[k] = lo + (float64(k)+0.5)*(hi-lo)/steps
			}
			return out
		}
		xs, ys := pts(a1, a2), pts(b1, b2)
		hits := 0
		for _, x := range xs {
			for _, y := range ys {
				if x < y {
					hits++
				}
			}
		}
		want := float64(hits) / float64(len(xs)*len(ys))
		if got := ltFraction(a1, a2, b1, b2); math.Abs(got-want) > 2e-3 {
			t.Errorf("P(U[%g,%g] < U[%g,%g]) = %g, the grid says %g", a1, a2, b1, b2, got, want)
		}
	}
}
