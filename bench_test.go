// Paper-reproduction benchmarks: one testing.B benchmark per figure and
// table of the MonetDBLite evaluation (§4), plus ablation benches for the
// main design choices. Run everything with
//
//	go test -bench=. -benchmem
//
// Scale is set by -tpch-sf style env knobs in cmd/mlite-bench; the testing.B
// versions here run at a small scale factor so the full suite completes in
// minutes on a laptop. The repository benchmark with recorded numbers is
// benchmark/ (see benchmark/README.md).
package monetlite_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"monetlite"
	"monetlite/internal/bench"
	"monetlite/internal/tpch"
)

func benchConfig(b *testing.B) bench.Config {
	cfg := bench.Default()
	cfg.SF = 0.01
	if s := os.Getenv("MLITE_BENCH_SF"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			cfg.SF = f
		}
	}
	cfg.ACSPersons = 10000
	cfg.Runs = 1
	cfg.Timeout = 2 * time.Minute
	b.Logf("bench config: SF=%g acs=%d", cfg.SF, cfg.ACSPersons)
	return cfg
}

func reportCells(b *testing.B, rep *bench.Report) {
	b.Helper()
	b.Log("\n" + rep.String())
	for _, row := range rep.Rows {
		for i, c := range row.Cells {
			name := row.System
			if len(rep.Headers) > i {
				name += "/" + rep.Headers[i]
			}
			if !c.TimedOut && !c.OOM && c.Err == nil {
				b.ReportMetric(c.Seconds, "s_"+metricSafe(name))
			}
		}
	}
}

func metricSafe(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
		if len(out) > 40 {
			break
		}
	}
	return string(out)
}

// BenchmarkFigure5Ingestion — paper Figure 5: writing lineitem from the host
// into each system. Expected shape: embedded columnar fastest, embedded row
// store close behind, socket systems orders of magnitude slower.
func BenchmarkFigure5Ingestion(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.Figure5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, rep)
	}
}

// BenchmarkFigure6Export — paper Figure 6: reading lineitem back into host
// arrays. Expected shape: zero-copy embedded ≪ embedded row store and all
// socket systems; the text protocol is the slowest.
func BenchmarkFigure6Export(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.Figure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, rep)
	}
}

// BenchmarkTable1 — paper Table 1 (SF1 block shape): TPC-H Q1-Q10 per
// system. Expected: columnar ≈ columnar-over-socket ≪ frame library ≪
// row stores (with timeouts on the heavy join queries at larger scale).
func BenchmarkTable1(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, rep)
	}
}

// BenchmarkTable1SF10 — paper Table 1 (SF10 block shape): same queries with
// the dataframe library under a memory budget below its working set, so the
// frame row renders "E" like data.table/Pandas at SF10.
func BenchmarkTable1SF10(b *testing.B) {
	cfg := benchConfig(b)
	// Budget chosen above the base tables but below Q1's intermediates.
	cfg.FrameBudget = int64(float64(40<<20) * cfg.SF / 0.01)
	for i := 0; i < b.N; i++ {
		rep, err := bench.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, rep)
		frame := rep.Rows[len(rep.Rows)-1]
		oom := false
		for _, c := range frame.Cells {
			oom = oom || c.OOM
		}
		if !oom {
			b.Log("note: frame budget high enough that no query hit E this run")
		}
	}
}

// BenchmarkFigure7ACSLoad — paper Figure 7: loading the 274-column ACS table
// (including identical host-side preprocessing). Expected: embedded columnar
// fastest; gaps smaller than Figure 5 because preprocessing dominates.
func BenchmarkFigure7ACSLoad(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.Figure7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, rep)
	}
}

// BenchmarkFigure8ACSStats — paper Figure 8: the survey analysis (DB
// filtering + host-side replicate-weight statistics). Expected: all systems
// within ~2x, embedded columnar best.
func BenchmarkFigure8ACSStats(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.Figure8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, rep)
	}
}

// BenchmarkFigure2Mitosis — paper Figure 2's example query
// (SELECT MEDIAN(SQRT(i*2)) FROM tbl) with the mitosis pass on and off.
func BenchmarkFigure2Mitosis(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.Figure2(cfg, 200000)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, rep)
	}
}

// Ablations (design choices described in docs/ARCHITECTURE.md).

// BenchmarkAblationResultTransfer isolates zero-copy vs forced-copy vs eager
// conversion of result sets (§3.3).
func BenchmarkAblationResultTransfer(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.AblationResultTransfer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, rep)
	}
}

// BenchmarkAblationStringDedup isolates string-heap duplicate elimination.
func BenchmarkAblationStringDedup(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.AblationStringDedup(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, rep)
	}
}

// BenchmarkAblationIndexes isolates the index paths (the automatic hash
// index, the order index) against plain scans.
func BenchmarkAblationIndexes(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.AblationIndexes(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, rep)
	}
}

// BenchmarkAblationAppendVsInsert isolates bulk Append vs per-row INSERT.
func BenchmarkAblationAppendVsInsert(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.AblationAppendVsInsert(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportCells(b, rep)
	}
}

// BenchmarkGroupedAggParallel measures the parallel partitioned hash
// aggregation path on the TPC-H Q1 shape (grouped SUM/AVG/COUNT over
// lineitem): the serial engine against the mitosis engine (per-chunk hash
// tables, keyed partial merge). A real speedup needs a multi-core host AND
// enough rows for grouped chunks of 2*mal.MinChunkRows (SF >= ~0.25; set
// MLITE_BENCH_SF=1 for the paper-scale run).
func BenchmarkGroupedAggParallel(b *testing.B) {
	cfg := benchConfig(b)
	data := tpch.Generate(cfg.SF, cfg.Seed)
	q1 := tpch.Queries[1]
	for _, mode := range []struct {
		name string
		mc   monetlite.Config
	}{
		{"Serial", monetlite.Config{Parallel: false}},
		{"Parallel", monetlite.Config{Parallel: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			db, err := monetlite.OpenInMemory(mode.mc)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if err := tpch.LoadInto(db, data); err != nil {
				b.Fatal(err)
			}
			conn := db.Connect()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := conn.Query(q1)
				if err != nil {
					b.Fatal(err)
				}
				if res.NumRows() == 0 {
					b.Fatal("empty Q1 result")
				}
			}
		})
	}
}

// TestBenchSuiteUsage documents how to run the suite.
func TestBenchSuiteUsage(t *testing.T) {
	t.Log(fmt.Sprintf("run: go test -bench=. -benchmem (SF via MLITE_BENCH_SF, default %g)", bench.Default().SF))
}
