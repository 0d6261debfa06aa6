package exec

import (
	"strings"
	"testing"

	"monetlite/internal/mal"
)

// The blocking aggregates under mitosis: MEDIAN and DISTINCT cannot merge
// from per-chunk partials — a DISTINCT partial would count again a value
// shared across chunk boundaries — so they merge their chunks' (group,
// value) pairs instead, inside the same parallel aggregate as the mergeable
// kinds. These differentials pin queries *mixing* both against the all-serial
// path. (Once, the global DISTINCT path merged per-chunk partials and
// silently overcounted.)

// Global aggregates: a DISTINCT aggregate beside mergeable ones. The grp
// column repeats in every mitosis chunk, so per-chunk COUNT(DISTINCT)
// partials would sum to chunks*3.
func TestGlobalDistinctAggFallsBackSerial(t *testing.T) {
	cat := buildTable(t, 3*mal.MinChunkRows)
	q := "SELECT count(distinct grp), sum(i), median(i), avg(i) FROM nums"

	ser, err := (&Engine{Cat: cat, Parallel: false}).Execute(planFor(t, cat, q))
	if err != nil {
		t.Fatal(err)
	}
	trace := &mal.Program{}
	par, err := (&Engine{Cat: cat, Parallel: true, MaxThreads: 4, Trace: trace}).Execute(planFor(t, cat, q))
	if err != nil {
		t.Fatal(err)
	}
	if got := par.Cols[0].I64[0]; got != 3 {
		t.Fatalf("count(distinct grp) = %d, want 3 (chunk partials recounted?)", got)
	}
	serRows, parRows := resultRows(ser), resultRows(par)
	if serRows[0] != parRows[0] {
		t.Fatalf("parallel differs from serial:\n serial:   %s\n parallel: %s", serRows[0], parRows[0])
	}
	// One parallel aggregate: chunked, DISTINCT and MEDIAN merged as
	// blocking steps, SUM and AVG from partials.
	out := trace.String()
	for _, want := range []string{"chunks);", "aggr.COUNT(blocking)", "aggr.MEDIAN(blocking)", "aggr.SUM(merged)", "aggr.AVG(merged)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

// Grouped aggregates mixing mergeable (SUM/COUNT/AVG) with blocking (MEDIAN,
// DISTINCT) kinds: results must equal the all-serial path row-for-row, and
// every mix takes the one chunked grouped pipeline.
func TestGroupedMixedAggFallbackMatchesSerial(t *testing.T) {
	cat := buildTable(t, 5*mal.MinChunkRows)
	for _, q := range []string{
		"SELECT grp, sum(i), median(i) FROM nums GROUP BY grp ORDER BY grp",
		"SELECT grp, count(distinct i), avg(i) FROM nums GROUP BY grp ORDER BY grp",
		"SELECT grp, sum(i), median(i), count(distinct i), count(*) FROM nums GROUP BY grp ORDER BY grp",
	} {
		ser, err := (&Engine{Cat: cat, Parallel: false}).Execute(planFor(t, cat, q))
		if err != nil {
			t.Fatalf("%s serial: %v", q, err)
		}
		trace := &mal.Program{}
		par, err := (&Engine{Cat: cat, Parallel: true, MaxThreads: 4, Trace: trace}).Execute(planFor(t, cat, q))
		if err != nil {
			t.Fatalf("%s parallel: %v", q, err)
		}
		serRows, parRows := resultRows(ser), resultRows(par)
		if len(serRows) != len(parRows) {
			t.Fatalf("%s: serial %d rows, parallel %d", q, len(serRows), len(parRows))
		}
		for i := range serRows {
			if serRows[i] != parRows[i] {
				t.Fatalf("%s: row %d differs\n serial:   %s\n parallel: %s", q, i, serRows[i], parRows[i])
			}
		}
		out := trace.String()
		if !strings.Contains(out, "chunks (grouped)") || !strings.Contains(out, "(blocking)") {
			t.Fatalf("%s: blocking aggregate did not take the chunked grouped pipeline:\n%s", q, out)
		}
	}
}

// Control: the same shape with mergeable aggregates only splits too, and
// merges every aggregate from partials.
func TestGroupedParallelSafeAggsStillSplit(t *testing.T) {
	cat := buildTable(t, 5*mal.MinChunkRows)
	q := "SELECT grp, sum(i), avg(i), count(*) FROM nums GROUP BY grp"
	trace := &mal.Program{}
	if _, err := (&Engine{Cat: cat, Parallel: true, MaxThreads: 4, Trace: trace}).Execute(planFor(t, cat, q)); err != nil {
		t.Fatal(err)
	}
	if out := trace.String(); !strings.Contains(out, "chunks (grouped)") || strings.Contains(out, "blocking") {
		t.Fatalf("mergeable grouped aggregate did not split, or merged a blocking step:\n%s", out)
	}
}
