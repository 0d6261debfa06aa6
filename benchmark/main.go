// Command benchmark is the repository's benchmark: five named workloads over
// generated TPC-H data, end-to-end metrics from an untraced run and per-layer
// metrics from a traced one. README.md in this directory defines them;
// BENCHMARK.json at the root of the repository is the contract a driver reads.
//
//	bash benchmark/run.sh --workload tpch-hot --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --runs 10 --trace 1        # every workload, into benchmark/out/result.json
//	bash benchmark/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setups is how many times a run sets its workload up: setup_s is their
// median, and the last one is the one timed.
const setups = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	out      string
}

func main() {
	var o options
	var traceFlag, runs int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and print its result as the last line (default: every workload, each run in a process of its own)")
	flag.Int64Var(&o.seed, "seed", 42, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "1: record spans and report the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "SF 0.005, one set-up, all checks on: covers the harness in seconds")
	flag.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for result files and on-disk databases")
	flag.IntVar(&runs, "runs", 1, "runs per workload when running every workload, each with the next seed")
	flag.BoolVar(&compare, "compare", false, "compare two result.json files given as arguments")
	flag.Parse()
	o.trace = traceFlag != 0

	var err error
	switch {
	case compare:
		err = compareFiles(flag.Args())
	case o.workload == "":
		err = runSuite(o, runs)
	default:
		var rep *report
		if rep, err = runWorkload(o); err == nil {
			err = rep.print(o)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// report is everything one run found. Its first four fields are the run's
// last line of output; the rest goes into the run's file under -out.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	SF       float64  `json:"sf"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Errors   []string `json:"errors,omitempty"`
	// SetupS is every set-up's time; WallS and Ops the timed window's.
	SetupS []float64           `json:"setup_s"`
	WallS  float64             `json:"wall_s"`
	Ops    int                 `json:"ops"`
	Kinds  map[string]kindStat `json:"kinds"`
	// Named are this workload's readings under the names the defining issue
	// gave them (query_geomean_ms, served_qps, ingest_mrows_per_s, ...).
	Named map[string]metric `json:"named"`
	// Layers is the traced run's summary: each span name's self time as a
	// share of the ops of the traced window.
	Layers []layerShare `json:"layers,omitempty"`
	Spans  int          `json:"spans,omitempty"`
}

// kindStat summarises one op kind's latencies: the median and the highest
// percentile that has at least ten samples beyond it.
type kindStat struct {
	Samples int     `json:"samples"`
	P50Ms   float64 `json:"p50_ms"`
	Tail    string  `json:"tail,omitempty"`
	TailMs  float64 `json:"tail_ms,omitempty"`
}

func summarise(lat []float64) kindStat {
	ks := kindStat{Samples: len(lat), P50Ms: median(lat)}
	for _, t := range []struct {
		name string
		p    float64
		need int
	}{{"p99.9", 99.9, 10000}, {"p99", 99, 1000}, {"p90", 90, 100}} {
		if len(lat) >= t.need {
			ks.Tail, ks.TailMs = t.name, percentile(lat, t.p)
			break
		}
	}
	return ks
}

// runWorkload sets the workload up, checks it, times it and checks it again.
func runWorkload(o options) (*report, error) {
	wl := findWorkload(o.workload)
	if wl == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return nil, fmt.Errorf("no workload %q; the workloads are %s", o.workload, strings.Join(names, ", "))
	}
	sf, nsetups := wl.SF, setups
	if o.quick {
		sf, nsetups = quickSF, 1
	}
	var tr *tracer
	if o.trace {
		// The traced run reports no setup_s, so it sets up once.
		tr, nsetups = newTracer(wl.Name), 1
	}
	rep := &report{Workload: wl.Name, Seed: o.seed, SF: sf, Seconds: o.seconds, Trace: o.trace}

	tmp := filepath.Join(o.out, "tmp", fmt.Sprintf("%s-%d", wl.Name, os.Getpid()))
	defer os.RemoveAll(tmp)
	var inst instance
	for i := 0; i < nsetups; i++ {
		if inst != nil {
			inst.release()
		}
		dir := filepath.Join(tmp, fmt.Sprint(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		inst, err = wl.setup(env{seed: o.seed, sf: sf, dir: dir, tr: tr})
		if err != nil {
			return nil, fmt.Errorf("set-up of %s: %w", wl.Name, err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
	}
	defer inst.release()
	b := inst.core()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveMB := float64(ms.HeapAlloc) / 1e6

	checks := newRecorder()
	inst.check(checks)
	if !o.trace {
		b.dropRef() // only the traced run's probes read it again
	}
	runtime.GC()

	window := time.Duration(o.seconds * float64(time.Second))
	vals := map[string]float64{}
	var rec *recorder
	var mark int32 // the last span recorded before the traced window
	if !o.trace {
		t0 := time.Now()
		rec = inst.measure(window, nil)
		rep.WallS = time.Since(t0).Seconds()
	} else {
		// Half the window untraced, half traced: the difference between the
		// two is what tracing costs.
		plain := inst.measure(window/2, nil)
		before := b.snapshot()
		mark = tr.mark()
		t0 := time.Now()
		rec = inst.measure(window/2, tr)
		rep.WallS = time.Since(t0).Seconds()
		windowMetrics(vals, before, b.snapshot(), tr, mark, rec)
		vals["trace.overhead_share"] = ratio(rec.geomeanMs(), plain.geomeanMs()) - 1
		vals["mem.live_mb"] = liveMB
		rec.tally(plain)
	}
	inst.finish(checks)

	stored, err := b.storedBytes()
	checks.check("stored size", err)
	rep.Ops = rec.timedOps()
	rep.Kinds = map[string]kindStat{}
	for kind, lat := range rec.latMs {
		rep.Kinds[kind] = summarise(lat)
	}
	vals["op_geomean_ms"] = rec.geomeanMs()
	vals["ops_per_s"] = ratio(float64(rep.Ops), rep.WallS)
	vals["stored_bytes_per_user_byte"] = ratio(float64(stored), float64(b.userBytes()))
	vals["setup_s"] = median(rep.SetupS)
	rep.Named = named(wl.Name, b, rec, vals)

	rep.Metrics = readings(endToEnd, vals)
	if o.trace {
		vals["storage.bytes_per_row"] = ratio(float64(stored), float64(b.rows()))
		vals["wal.bytes_per_user_byte"] = ratio(float64(b.walBytes), float64(b.walUserBytes))
		checks.check("layer probes", probeLayers(vals, b, rec))
		rep.Metrics = readings(perLayer, vals)
		rep.Layers, rep.Spans = tr.shares(mark), int(tr.mark())
		if err := tr.write(filepath.Join(o.out, "trace-"+wl.Name+".json")); err != nil {
			return nil, err
		}
	}

	rec.tally(checks)
	rep.Attempted, rep.Failed, rep.Errors = rec.attempted, rec.failed, rec.errs
	rep.Correct = rep.Failed == 0 && rep.Ops > 0
	return rep, nil
}

// named gives a workload's readings the names the defining issue used.
func named(workload string, b *base, rec *recorder, vals map[string]float64) map[string]metric {
	med := rec.kindMedians()
	out := map[string]metric{}
	switch workload {
	case "tpch-hot", "tpch-small":
		pass := 0.0
		for _, m := range med {
			pass += m
		}
		out["query_geomean_ms"] = metric{vals["op_geomean_ms"], "ms"}
		out["pass_s"] = metric{pass / 1e3, "s"}
	case "adhoc-served":
		lat := rec.all()
		out["served_qps"] = metric{vals["ops_per_s"], "1/s"}
		out["served_p50_us"] = metric{median(lat) * 1e3, "us"}
		out["served_p99_us"] = metric{percentile(lat, 99) * 1e3, "us"}
		out["served_p99.9_us"] = metric{percentile(lat, 99.9) * 1e3, "us"}
	case "roundtrip":
		mrows := float64(b.tables[0].Rows) / 1e6
		out["ingest_mrows_per_s"] = metric{ratio(mrows, med["ingest"]/1e3), "Mrow/s"}
		out["export_mrows_per_s"] = metric{ratio(mrows, med["export"]/1e3), "Mrow/s"}
		out["reopen_first_query_ms"] = metric{med["reopen_q6"], "ms"}
		out["persist_ms"] = metric{med["persist"], "ms"}
	case "mixed-rw":
		out["query_geomean_ms"] = metric{geomean([]float64{med["q1"], med["q6"], med["point"]}), "ms"}
		out["commit_p50_ms"] = metric{med["write"], "ms"}
		out["generator_late_p50_ms"] = metric{median(b.lateMs), "ms"}
		out["generator_late_p99_ms"] = metric{percentile(b.lateMs, 99), "ms"}
	}
	return out
}

// print writes the run's file, a readable summary, and the result as the last
// line of standard output. A run that is not correct is an error.
func (rep *report) print(o options) error {
	if err := os.MkdirAll(filepath.Join(o.out, "runs"), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	traced := 0
	if rep.Trace {
		traced = 1
	}
	file := filepath.Join(o.out, "runs", fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, traced))
	if err := os.WriteFile(file, data, 0o644); err != nil {
		return err
	}

	fmt.Printf("%s: seed %d, SF %g, %d ops in %.2f s, set-ups %.2f s\n", rep.Workload, rep.Seed, rep.SF, rep.Ops, rep.WallS, rep.SetupS)
	printMetrics("  ", rep.Metrics)
	printMetrics("  (named) ", rep.Named)
	for _, kind := range sortedKeys(rep.Kinds) {
		ks := rep.Kinds[kind]
		fmt.Printf("  op %-12s %7d samples  p50 %10.4f ms", kind, ks.Samples, ks.P50Ms)
		if ks.Tail != "" {
			fmt.Printf("  %s %10.4f ms", ks.Tail, ks.TailMs)
		}
		fmt.Println()
	}
	for _, ls := range rep.Layers {
		fmt.Printf("  span %-24s %7d calls  self %10.2f ms  %5.1f%% of ops\n", ls.Name, ls.Calls, ls.SelfMs, 100*ls.Share)
	}
	for _, e := range rep.Errors {
		fmt.Println("  FAILED", e)
	}
	fmt.Println("  details in", file)

	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d ops failed", rep.Workload, rep.Failed, rep.Attempted)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printMetrics(prefix string, ms map[string]metric) {
	for _, name := range sortedKeys(ms) {
		fmt.Printf("%s%-32s %14.4f %s\n", prefix, name, ms[name].Value, ms[name].Unit)
	}
}
