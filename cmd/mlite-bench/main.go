// Command mlite-bench runs the paper-reproduction benchmark suite and prints
// every figure and table of the MonetDBLite evaluation (the repository
// benchmark, with recorded numbers, is benchmark/; see benchmark/README.md).
//
// Usage:
//
//	mlite-bench                     # everything at the default scale
//	mlite-bench -sf 0.1 -runs 5     # bigger scale, more hot runs
//	mlite-bench -only fig5,table1   # a subset
//	mlite-bench -big                # adds the SF10-block (memory-budget) table
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"monetlite/internal/bench"
)

func main() {
	sf := flag.Float64("sf", 0.05, "TPC-H scale factor")
	acs := flag.Int("acs", 50000, "ACS person count")
	runs := flag.Int("runs", 3, "hot runs per measurement (median reported)")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-query timeout (paper: 5m)")
	only := flag.String("only", "", "comma-separated subset: fig2,fig5,fig6,fig7,fig8,table1,ablations")
	big := flag.Bool("big", false, "also run the Table 1 SF10 block (frame memory budget)")
	flag.Parse()

	cfg := bench.Default()
	cfg.SF = *sf
	cfg.ACSPersons = *acs
	cfg.Runs = *runs
	cfg.Timeout = *timeout

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	run := func(key string) bool { return len(want) == 0 || want[key] }

	type job struct {
		key string
		fn  func() (*bench.Report, error)
	}
	jobs := []job{
		{"fig5", func() (*bench.Report, error) { return bench.Figure5(cfg) }},
		{"fig6", func() (*bench.Report, error) { return bench.Figure6(cfg) }},
		{"table1", func() (*bench.Report, error) { return bench.Table1(cfg) }},
		{"fig7", func() (*bench.Report, error) { return bench.Figure7(cfg) }},
		{"fig8", func() (*bench.Report, error) { return bench.Figure8(cfg) }},
		{"fig2", func() (*bench.Report, error) { return bench.Figure2(cfg, 1_000_000) }},
		{"ablations", nil},
	}
	for _, j := range jobs {
		if !run(j.key) {
			continue
		}
		if j.key == "ablations" {
			runAblations(cfg)
			continue
		}
		start := time.Now()
		rep, err := j.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlite-bench %s: %v\n", j.key, err)
			os.Exit(1)
		}
		fmt.Println(rep)
		fmt.Printf("(%s finished in %s)\n\n", j.key, time.Since(start).Round(time.Millisecond))
	}
	if *big && run("table1") {
		cfgBig := cfg
		cfgBig.FrameBudget = int64(float64(40<<20) * cfg.SF / 0.01)
		rep, err := bench.Table1(cfgBig)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlite-bench table1-big:", err)
			os.Exit(1)
		}
		rep.Title += " [SF10 block: frame memory budget active]"
		fmt.Println(rep)
	}
}

func runAblations(cfg bench.Config) {
	type ab struct {
		name string
		fn   func() (*bench.Report, error)
	}
	for _, a := range []ab{
		{"result transfer", func() (*bench.Report, error) { return bench.AblationResultTransfer(cfg) }},
		{"string dedup", func() (*bench.Report, error) { return bench.AblationStringDedup(cfg) }},
		{"indexes", func() (*bench.Report, error) { return bench.AblationIndexes(cfg) }},
		{"append vs insert", func() (*bench.Report, error) { return bench.AblationAppendVsInsert(cfg) }},
	} {
		rep, err := a.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlite-bench ablation %s: %v\n", a.name, err)
			os.Exit(1)
		}
		fmt.Println(rep)
	}
}
