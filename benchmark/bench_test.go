package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"monetlite/internal/tpch"
)

// TestQuick runs every workload at -quick scale, untraced and traced, with
// all output checks on. It asserts no timing: only that every op succeeded
// and that every metric the contract lists is reported.
func TestQuick(t *testing.T) {
	out := t.TempDir()
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			if trace && wl.Name == "tpch-small" {
				continue // the same code as tpch-hot's traced run, and Q11 seven more times
			}
			rep, err := runWorkload(options{workload: wl.Name, seed: 7, seconds: 0.2, trace: trace, quick: true, out: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed: %v", wl.Name, trace, rep.Correct, rep.Failed, rep.Attempted, rep.Errors)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
				if _, err := os.Stat(filepath.Join(out, "trace-"+wl.Name+".json")); err != nil {
					t.Errorf("%s: traced run wrote no trace: %v", wl.Name, err)
				}
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d defined", wl.Name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s reads %+v", wl.Name, trace, d.Name, m)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", wl.Name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestSameSeedSameRequests: the request stream is a function of the seed and
// the generated data alone.
func TestSameSeedSameRequests(t *testing.T) {
	texts := func(seed int64) []string {
		plan := newServedPlan(tpch.Generate(quickSF, seed), seed)
		var out []string
		for c := 0; c < 2; c++ {
			s := plan.stream(c, 2)
			for i := 0; i < 2000; i++ {
				rq := s.next()
				out = append(out, rq.kind+" "+rq.text)
			}
		}
		return out
	}
	a, b, c := texts(7), texts(7), texts(8)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between two streams of seed 7:\n%s\n%s", i, a[i], b[i])
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Errorf("%d of %d requests are the same under seeds 7 and 8", same, len(a))
	}
	// Misses are never repeated, by anyone.
	seen := map[string]bool{}
	for _, s := range a {
		if strings.Contains(s, ".miss ") {
			if seen[s] {
				t.Fatalf("miss sent twice: %s", s)
			}
			seen[s] = true
		}
	}
}

// TestContract: BENCHMARK.json lists the workloads and metrics the code
// defines, within the limits its schema sets.
func TestContract(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is listed as %q (%q), defined as %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, listed, defined []metricDef) {
		if len(listed) != len(defined) {
			t.Fatalf("%d %s metrics listed, %d defined", len(listed), kind, len(defined))
		}
		for i, m := range listed {
			d := defined[i]
			if m != d {
				t.Errorf("%s metric %d is listed as %+v, defined as %+v", kind, i, m, d)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound > 0.25 {
				t.Errorf("%s metric %+v breaks the schema", kind, m)
			}
		}
	}
	check("end-to-end", c.EndToEnd, endToEnd)
	check("per-layer", c.PerLayer, perLayer)
	if c.RunSeconds < 1 || c.RunSeconds > 60 || len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", c.RunSeconds, c.Paths)
	}
}

// TestSpread pins the quartile rule to Python's statistics.quantiles(n=4):
// for 1..10 it gives 2.75, 5.5, 8.25.
func TestSpread(t *testing.T) {
	vals := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := spread(vals); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 is %v, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "m", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "m", Better: "higher", Bound: 0.1}
	for _, tc := range []struct {
		def  metricDef
		a, b series
		want string
	}{
		{lower, series{Median: 100, Spread: 0.02}, series{Median: 105, Spread: 0.02}, "ok"},
		{lower, series{Median: 100, Spread: 0.02}, series{Median: 115, Spread: 0.02}, "regressed"},
		{higher, series{Median: 100, Spread: 0.02}, series{Median: 115, Spread: 0.02}, "ok"},
		{higher, series{Median: 100, Spread: 0.02}, series{Median: 85, Spread: 0.02}, "regressed"},
		{lower, series{Median: 100, Spread: 0.2}, series{Median: 105, Spread: 0.02}, "unresolved"},
	} {
		if _, got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s is better, %v then %v: verdict %s, want %s", tc.def.Better, tc.a.Median, tc.b.Median, got, tc.want)
		}
	}
}
