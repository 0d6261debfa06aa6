// Package bench is the paper-reproduction harness: it regenerates every
// figure and table of the MonetDBLite evaluation (§4) against monetlite's
// own substrates — the embedded columnar engine, the embedded row store
// (SQLite stand-in), both engines behind sockets (MonetDB and
// PostgreSQL/MariaDB stand-ins) and the dataframe library (data.table /
// dplyr / Pandas / Julia stand-in).
//
// Absolute times differ from the paper's 2018 testbed; the claims under test
// are the SHAPES: who wins, by roughly what factor, and where systems fall
// over (timeouts, out-of-memory).
package bench

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"monetlite/internal/client"
	"monetlite/internal/frame"
	"monetlite/internal/rowstore"
	"monetlite/internal/tpch"
)

// Config scales the harness.
type Config struct {
	SF          float64       // TPC-H scale factor
	ACSPersons  int           // ACS table size
	Runs        int           // hot runs; the median is reported (paper: 10)
	Timeout     time.Duration // per-query timeout (paper: 5 minutes)
	FrameBudget int64         // dataframe memory budget; 0 = unlimited
	Seed        int64
	SocketBatch int // rows per pipelined INSERT batch for socket ingest
}

// Default returns a laptop-scale configuration.
func Default() Config {
	return Config{
		SF:          0.01,
		ACSPersons:  20000,
		Runs:        3,
		Timeout:     60 * time.Second,
		Seed:        42,
		SocketBatch: 200,
	}
}

// Cell is one measurement: a duration, or a timeout (T) or out-of-memory (E)
// marker, matching the paper's Table 1 rendering.
type Cell struct {
	Seconds  float64
	TimedOut bool
	OOM      bool
	Skipped  bool // system has no implementation of this query
	Err      error
}

// String renders the cell like the paper ("T", "E", or seconds).
func (c Cell) String() string {
	switch {
	case c.Skipped:
		return "-"
	case c.TimedOut:
		return "T"
	case c.OOM:
		return "E"
	case c.Err != nil:
		return "err"
	default:
		return fmt.Sprintf("%.3f", c.Seconds)
	}
}

// timeIt runs fn cfg.Runs times after one ignored cold run, reporting the
// median (the paper's methodology: "median of ten hot runs, the initial
// cold run is always ignored").
func timeIt(runs int, fn func() error) Cell {
	if runs < 1 {
		runs = 1
	}
	// Cold run.
	if cell := classify(fn()); cell.Err != nil || cell.TimedOut || cell.OOM || cell.Skipped {
		return cell
	}
	times := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		start := time.Now()
		if cell := classify(fn()); cell.Err != nil || cell.TimedOut || cell.OOM {
			return cell
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	return Cell{Seconds: times[len(times)/2]}
}

// timeOnce measures a single (cold) run — used for ingestion benchmarks
// where repetition would need re-creating the database anyway.
func timeOnce(fn func() error) Cell {
	start := time.Now()
	cell := classify(fn())
	if cell.Err != nil || cell.TimedOut || cell.OOM {
		return cell
	}
	cell.Seconds = time.Since(start).Seconds()
	return cell
}

// ErrSkip marks a query a system has no implementation for; it renders as
// "-" and is excluded from totals rather than reported as a failure.
var ErrSkip = errors.New("bench: query not implemented for this system")

func classify(err error) Cell {
	switch {
	case err == nil:
		return Cell{}
	case errors.Is(err, ErrSkip):
		return Cell{Skipped: true}
	case errors.Is(err, frame.ErrOOM):
		return Cell{OOM: true, Err: err}
	case errors.Is(err, rowstore.ErrTimeout), isEngineTimeout(err),
		isWireTimeout(err):
		return Cell{TimedOut: true, Err: err}
	default:
		return Cell{Err: err}
	}
}

// isWireTimeout recognizes a timeout that crossed the socket protocol:
// server error replies carry only text, so the typed sentinel is gone by the
// time the client sees it.
func isWireTimeout(err error) bool {
	var se *client.ServerError
	return errors.As(err, &se) && strings.Contains(se.Msg, "timeout")
}

// Row is one labelled series of cells (a bar of a figure, a row of a table).
type Row struct {
	System string
	Cells  []Cell
}

// Report is a named collection of rows with column headers.
type Report struct {
	Title   string
	Headers []string
	Rows    []Row
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	out := r.Title + "\n"
	out += fmt.Sprintf("%-34s", "system")
	for _, h := range r.Headers {
		out += fmt.Sprintf("%12s", h)
	}
	out += "\n"
	for _, row := range r.Rows {
		out += fmt.Sprintf("%-34s", row.System)
		for _, c := range row.Cells {
			out += fmt.Sprintf("%12s", c.String())
		}
		out += "\n"
	}
	return out
}

// genData caches one generated TPC-H dataset per (sf, seed).
var genCache = map[[2]int64]*tpch.Data{}

func dataset(cfg Config) *tpch.Data {
	key := [2]int64{int64(cfg.SF * 1e6), cfg.Seed}
	if d, ok := genCache[key]; ok {
		return d
	}
	d := tpch.Generate(cfg.SF, cfg.Seed)
	genCache[key] = d
	return d
}
