package tpch

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"monetlite"
)

// TestKernelAllocations pins what two queries allocate on the serial engine
// (SF 0.01, encoded, seed 42), the machine-stable reading of the typed
// kernels: Q1's arithmetic reads decimal operands and constants in place
// (no constant vectors, no rescaled copies, no boxed narrow results), and
// Q22's SUBSTRING runs as one kernel rather than one expression per row.
// Before those kernels Q1 allocated 7.44 MB per query and Q22 made 21 022
// mallocs.
func TestKernelAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-H SF 0.01")
	}
	db, err := monetlite.OpenInMemory(monetlite.Config{Parallel: false})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := LoadInto(db, Generate(0.01, 42)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.EncodeColumns(); err != nil {
		t.Fatal(err)
	}
	conn := db.Connect()
	perQuery := func(q int) (bytes, mallocs float64) {
		if _, err := conn.Query(Queries[q]); err != nil { // warm the plan cache
			t.Fatal(err)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := conn.Query(Queries[q]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
	}
	q1Bytes, _ := perQuery(1)
	_, q22Mallocs := perQuery(22)
	t.Logf("Q1 %.0f bytes/query, Q22 %.0f mallocs/query", q1Bytes, q22Mallocs)
	if q1Bytes > 5.6e6 {
		t.Errorf("Q1 allocates %.0f bytes per query, want at most 5.6 MB", q1Bytes)
	}
	if q22Mallocs > 1000 {
		t.Errorf("Q22 makes %.0f mallocs per query, want at most 1 000", q22Mallocs)
	}
}

// TestPassAllocations pins what a whole 22-query pass costs on the serial
// engine (SF 0.01, encoded, seed 42): the bytes it allocates, and the number
// of general-path selections (algebra.thetaselect with no operator: a
// predicate evaluated to a BOOLEAN vector and select-trued) in its traces.
// Late materialization gathers each column once, where it is read, so joins
// no longer copy their inputs' payloads (22.95 MB per pass before), and a
// comparison of two columns selects in place (13 general-path selects
// before; Q4, Q12 and Q21 dropped out). Since joins filter the scans on
// their other side by their build keys, a pass allocates 13.90 MB (16.82
// before), pinned with the headroom the 16.8 MB reading had under 18.5 MB.
func TestPassAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-H SF 0.01")
	}
	db, err := monetlite.OpenInMemory(monetlite.Config{Parallel: false})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := LoadInto(db, Generate(0.01, 42)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.EncodeColumns(); err != nil {
		t.Fatal(err)
	}
	conn := db.Connect()
	pass := func() {
		for q := 1; q <= 22; q++ {
			if _, err := conn.Query(Queries[q]); err != nil {
				t.Fatalf("Q%d: %v", q, err)
			}
		}
	}
	pass() // warm the plan cache
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs

	conn.TraceMAL = true
	general := 0
	for q := 1; q <= 22; q++ {
		if _, err := conn.Query(Queries[q]); err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		for _, in := range conn.LastTrace.Instrs {
			if in.Op == "algebra.thetaselect" && len(in.Args) == 0 {
				general++
				t.Logf("Q%d: general-path select", q)
			}
		}
	}
	t.Logf("%.0f bytes per pass, %d general-path selects", bytes, general)
	if bytes > 15.3e6 {
		t.Errorf("a 22-query pass allocates %.0f bytes, want at most 15.3 MB", bytes)
	}
	if general > 8 {
		t.Errorf("%d general-path selects in a pass, want at most 8", general)
	}
}

// TestPassScanRows pins the rows that leave scans over a serial encoded
// 22-query pass (SF 0.01, seed 42), summed from the traces' scan
// cardinality lines: a join's build keys filter the scan on its other side
// (sideways information passing), so those scans hand on only rows some
// key matches: 659 935 rows, where they handed on 919 148 before.
func TestPassScanRows(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-H SF 0.01")
	}
	db, err := monetlite.OpenInMemory(monetlite.Config{Parallel: false})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := LoadInto(db, Generate(0.01, 42)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.EncodeColumns(); err != nil {
		t.Fatal(err)
	}
	conn := db.Connect()
	conn.TraceMAL = true
	rows := 0
	for q := 1; q <= 22; q++ {
		if _, err := conn.Query(Queries[q]); err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		for _, in := range conn.LastTrace.Instrs {
			if in.Op != "optimizer.cardinality" || !strings.HasPrefix(in.Args[0], "scan ") {
				continue
			}
			_, actual, _ := strings.Cut(in.Args[0], " actual ")
			n, err := strconv.Atoi(actual)
			if err != nil {
				t.Fatalf("Q%d: unreadable cardinality %q", q, in.Args[0])
			}
			rows += n
		}
	}
	t.Logf("scans hand on %d rows in a pass", rows)
	if rows > 660000 {
		t.Errorf("scans hand on %d rows in a pass, want at most 660 000", rows)
	}
}
