package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// suiteResult is benchmark/out/result.json: every workload's runs, the
// medians and spreads of its end-to-end metrics, and the environment.
type suiteResult struct {
	Env       envInfo         `json:"env"`
	Workloads []suiteWorkload `json:"workloads"`
}

type envInfo struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
}

type suiteWorkload struct {
	workload
	EndToEnd map[string]series `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	Runs     []*report         `json:"runs"`
}

// series is one end-to-end metric over a workload's runs.
type series struct {
	metricDef
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // interquartile distance as a share of the median
}

// runSuite runs every workload, each run in a process of its own as a driver
// would run it, one after the other, and writes result.json.
func runSuite(o options, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := suiteResult{Env: envInfo{Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: o.seed, Runs: runs, Seconds: o.seconds, Quick: o.quick}}
	failed := false
	for _, wl := range workloads {
		sw := suiteWorkload{workload: wl, EndToEnd: map[string]series{}}
		if o.quick {
			sw.SF = quickSF
		}
		child := func(seed int64, trace int) (*report, error) {
			args := []string{"--workload", wl.Name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(o.seconds),
				"--trace", fmt.Sprint(trace), "--out", o.out}
			if o.quick {
				args = append(args, "--quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			var rep report
			file := filepath.Join(o.out, "runs", fmt.Sprintf("%s-seed%d-trace%d.json", wl.Name, seed, trace))
			data, err := os.ReadFile(file)
			if err == nil {
				err = json.Unmarshal(data, &rep)
			}
			if err != nil {
				return nil, errors.Join(runErr, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			fmt.Printf("%s seed %d trace %d: %s\n", wl.Name, seed, trace, lines[len(lines)-1])
			failed = failed || !rep.Correct
			return &rep, nil
		}
		for i := 0; i < runs; i++ {
			rep, err := child(o.seed+int64(i), 0)
			if err != nil {
				return err
			}
			sw.Runs = append(sw.Runs, rep)
		}
		for _, def := range endToEnd {
			s := series{metricDef: def}
			for _, rep := range sw.Runs {
				s.Values = append(s.Values, rep.Metrics[def.Name].Value)
			}
			s.Median, s.Spread = median(s.Values), spread(s.Values)
			sw.EndToEnd[def.Name] = s
		}
		if o.trace {
			rep, err := child(o.seed, 1)
			if err != nil {
				return err
			}
			sw.PerLayer = rep.Metrics
			sw.Runs = append(sw.Runs, rep)
		}
		res.Workloads = append(res.Workloads, sw)
	}

	fmt.Printf("\n%-14s %-28s %14s %-6s %8s %6s\n", "workload", "metric", "median", "unit", "spread", "bound")
	for _, sw := range res.Workloads {
		for _, def := range endToEnd {
			s := sw.EndToEnd[def.Name]
			fmt.Printf("%-14s %-28s %14.4f %-6s %7.1f%% %5.0f%%\n", sw.Name, def.Name, s.Median, def.Unit, 100*s.Spread, 100*def.Bound)
		}
		for _, name := range sortedKeys(sw.PerLayer) {
			fmt.Printf("%-14s %-28s %14.4f %s\n", sw.Name, name, sw.PerLayer[name].Value, sw.PerLayer[name].Unit)
		}
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	file := filepath.Join(o.out, "result.json")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		return err
	}
	fmt.Println("written", file)
	if failed {
		return errors.New("some ops failed: see the FAILED lines of the runs' files")
	}
	return nil
}

// commit names the commit of the working directory, if it is a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// verdict says how much worse b's median is than a's, as a share of a's, and
// what that means: regressed if worse by more than the metric's bound,
// unresolved if either side's spread is wider than the bound, ok otherwise.
func verdict(def metricDef, a, b series) (worse float64, v string) {
	worse = ratio(b.Median-a.Median, a.Median)
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > def.Bound:
		return worse, "regressed"
	case max(a.Spread, b.Spread) > def.Bound:
		return worse, "unresolved"
	}
	return worse, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both result files'
// medians, how much worse the second is, the metric's bound and the verdict.
func compareFiles(files []string) error {
	if len(files) != 2 {
		return errors.New("-compare wants two result.json files")
	}
	var res [2]suiteResult
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err == nil {
			err = json.Unmarshal(data, &res[i])
		}
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	regressed := 0
	fmt.Printf("%-14s %-28s %14s %14s %8s %6s  %s\n", "workload", "metric", "first", "second", "worse", "bound", "verdict")
	for _, a := range res[0].Workloads {
		for _, b := range res[1].Workloads {
			if a.Name != b.Name {
				continue
			}
			for _, def := range endToEnd {
				sa, sb := a.EndToEnd[def.Name], b.EndToEnd[def.Name]
				worse, v := verdict(def, sa, sb)
				if v == "regressed" {
					regressed++
				}
				fmt.Printf("%-14s %-28s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n", a.Name, def.Name, sa.Median, sb.Median, 100*worse, 100*def.Bound, v)
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}
