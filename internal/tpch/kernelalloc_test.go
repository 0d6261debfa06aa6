package tpch

import (
	"runtime"
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
