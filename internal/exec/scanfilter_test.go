package exec

import (
	"strings"
	"testing"

	"monetlite/internal/mal"
	"monetlite/internal/mtypes"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
)

// Tautological and contradictory filter predicates must short-circuit: no
// boolean vector, no selection kernel, no gather — just the candidate list
// passed through (or emptied). The MAL trace is the witness.
func TestFilterConstShortCircuit(t *testing.T) {
	cat := buildTable(t, 4096)

	run := func(q string) (*Result, *mal.Program) {
		tr := &mal.Program{}
		e := &Engine{Cat: cat, Trace: tr}
		res, err := e.Execute(planFor(t, cat, q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res, tr
	}

	// All-true: every row passes without a selection kernel running.
	res, tr := run("SELECT i FROM nums WHERE 1 = 1")
	if res.NumRows() != 4096 {
		t.Fatalf("tautology dropped rows: %d", res.NumRows())
	}
	out := tr.String()
	if !strings.Contains(out, "algebra.select(const, all)") {
		t.Fatalf("no tautology short-circuit in trace:\n%s", out)
	}
	if tr.Count("algebra.thetaselect") != 0 || tr.Count("bat.materialize") != 0 {
		t.Fatalf("tautology still ran kernels:\n%s", out)
	}

	// All-false: empty result, and later conjuncts are never evaluated.
	res, tr = run("SELECT i FROM nums WHERE 1 = 0 AND i > 5")
	if res.NumRows() != 0 {
		t.Fatalf("contradiction returned rows: %d", res.NumRows())
	}
	out = tr.String()
	if !strings.Contains(out, "algebra.select(const, none)") {
		t.Fatalf("no contradiction short-circuit in trace:\n%s", out)
	}
	if tr.Count("algebra.thetaselect") != 0 {
		t.Fatalf("conjunct after a contradiction still evaluated:\n%s", out)
	}
}

// The scan→filter→project pipeline carries a candidate list end-to-end: the
// fused range predicate runs as one range select, the arithmetic conjunct
// evaluates densely over the survivors only, the projection computes over
// cands, and nothing is materialized full-width (no bat.materialize at all —
// the projection output is already dense). The parallel engine splits the
// scan into chunks (optimizer.mitosis … (scan)) and concatenates per-chunk
// candidate lists (bat.mergecand), returning rows identical to the serial
// engine's.
func TestScanFilterProjectCandidateTrace(t *testing.T) {
	const n = 4096
	cat := buildTable(t, n)
	q := "SELECT i, i * 2 FROM nums WHERE i >= 100 AND i < 600 AND i % 3 = 0"

	serTr := &mal.Program{}
	ser := &Engine{Cat: cat, Trace: serTr}
	serRes, err := ser.Execute(planFor(t, cat, q))
	if err != nil {
		t.Fatal(err)
	}
	out := serTr.String()
	if serTr.Count("algebra.rangeselect") != 1 {
		t.Fatalf("fused range pair should run exactly one range select:\n%s", out)
	}
	if !strings.Contains(out, "cands") {
		t.Fatalf("projection did not run under the candidate list:\n%s", out)
	}
	if serTr.Count("bat.materialize") != 0 {
		t.Fatalf("scan→filter→project pipeline materialized full-width:\n%s", out)
	}

	parTr := &mal.Program{}
	par := &Engine{Cat: cat, Parallel: true, MaxThreads: 4, Trace: parTr,
		testChunkRows: 300}
	parRes, err := par.Execute(planFor(t, cat, q))
	if err != nil {
		t.Fatal(err)
	}
	pout := parTr.String()
	if !strings.Contains(pout, "chunks (scan)") {
		t.Fatalf("parallel engine did not split the scan:\n%s", pout)
	}
	if parTr.Count("bat.mergecand") != 1 {
		t.Fatalf("chunk candidate lists not merged:\n%s", pout)
	}

	if serRes.NumRows() == 0 || serRes.NumRows() != parRes.NumRows() {
		t.Fatalf("rows: serial %d, parallel %d", serRes.NumRows(), parRes.NumRows())
	}
	for c := range serRes.Cols {
		for i := 0; i < serRes.NumRows(); i++ {
			a, b := serRes.Cols[c].Value(i), parRes.Cols[c].Value(i)
			if a.String() != b.String() {
				t.Fatalf("cell (%d,%d): serial %s, parallel %s", i, c, a, b)
			}
		}
	}
}

// Regression (found by the filter fuzzer): an equality predicate on a key
// absent from the hash index must select zero rows — the index path used to
// hand Intersect a nil list, which means "all rows".
func TestHashIndexMissExcludesAllRows(t *testing.T) {
	cat := buildTable(t, 4096)
	tr := &mal.Program{}
	e := &Engine{Cat: cat, Trace: tr}
	res, err := e.Execute(planFor(t, cat, "SELECT i FROM nums WHERE i = -5"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.String(), "hashidx") {
		t.Fatalf("hash index not consulted:\n%s", tr.String())
	}
	if res.NumRows() != 0 {
		t.Fatalf("absent key matched %d rows", res.NumRows())
	}
}

// An unfiltered parallel scan has no candidate list to compute — it must not
// split at all (the batch is a zero-copy view of the base columns either way).
func TestUnfilteredScanDoesNotSplit(t *testing.T) {
	cat := buildTable(t, 3*mal.MinChunkRows)
	tr := &mal.Program{}
	e := &Engine{Cat: cat, Parallel: true, MaxThreads: 4, Trace: tr}
	res, err := e.Execute(planFor(t, cat, "SELECT i FROM nums"))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3*mal.MinChunkRows {
		t.Fatalf("rows: %d", res.NumRows())
	}
	if strings.Contains(tr.String(), "chunks (scan)") {
		t.Fatalf("unfiltered scan split:\n%s", tr.String())
	}
}

// buildScanBenchTable creates a wide table for the scan-pipeline benchmark:
// two projected columns (i, pay) and two filter-only columns (f1, f2) that
// the old gather-per-conjunct path materialized and the candidate-list path
// never copies.
func buildScanBenchTable(tb testing.TB, n int) memCatalog {
	tb.Helper()
	tbl := storage.NewMemoryTable(storage.TableMeta{Name: "sc", Cols: []storage.ColDef{
		{Name: "i", Typ: mtypes.Int},
		{Name: "pay", Typ: mtypes.BigInt},
		{Name: "f1", Typ: mtypes.Int},
		{Name: "f2", Typ: mtypes.Int},
	}})
	iv := vec.New(mtypes.Int, n)
	pv := vec.New(mtypes.BigInt, n)
	f1 := vec.New(mtypes.Int, n)
	f2 := vec.New(mtypes.Int, n)
	for k := 0; k < n; k++ {
		iv.I32[k] = int32(k)
		pv.I64[k] = int64(k) * 3
		f1.I32[k] = int32(k % 1000)
		f2.I32[k] = int32(k % 17)
	}
	if _, err := tbl.Append([]*vec.Vector{iv, pv, f1, f2}, 1); err != nil {
		tb.Fatal(err)
	}
	return memCatalog{"sc": tbl}
}

// scanBenchQuery is ~6% selective: the fused f1 range keeps 1/10 of the rows,
// the general f2 conjunct (dense under the candidate list) keeps 1/17 more...
// of what's left, and only i and pay are projected.
const scanBenchQuery = "SELECT i, i * 2 + pay FROM sc WHERE f1 >= 100 AND f1 < 200 AND f2 % 17 = 0"

// BenchmarkScanFilterProject: the tentpole microbench. CandidateList is the
// engine's scan→filter→project pipeline (selection views end-to-end);
// GatherOracle replays the pre-candidate-list semantics — per conjunct, a
// full-width boolean vector and a gather of every scanned column — on the
// same plan. Both run with NoIndexes so the comparison isolates the
// candidate-list machinery from index lookups. CI's bench smoke step runs
// it once; the timings are read, not gated.
func BenchmarkScanFilterProject(b *testing.B) {
	const n = 1 << 19 // 512k rows
	cat := buildScanBenchTable(b, n)
	p := planForBench(b, cat, scanBenchQuery)

	b.Run("CandidateList", func(b *testing.B) {
		e := &Engine{Cat: cat, NoIndexes: true}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := e.Execute(p)
			if err != nil {
				b.Fatal(err)
			}
			if res.NumRows() == 0 {
				b.Fatal("empty result")
			}
		}
		b.SetBytes(int64(n * 4))
	})
	b.Run("GatherOracle", func(b *testing.B) {
		e := &Engine{Cat: cat, NoIndexes: true}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := gatherOracle(e, cat, p)
			if err != nil {
				b.Fatal(err)
			}
			if res.NumRows() == 0 {
				b.Fatal("empty result")
			}
		}
		b.SetBytes(int64(n * 4))
	})
}

// The benchmark's two paths must agree, or the speedup is meaningless.
func TestScanBenchPathsAgree(t *testing.T) {
	cat := buildScanBenchTable(t, 1<<14)
	p := planFor(t, cat, scanBenchQuery)
	e := &Engine{Cat: cat, NoIndexes: true}
	fast, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := gatherOracle(e, cat, p)
	if err != nil {
		t.Fatal(err)
	}
	compareResultRows(t, "bench query", fast, slow)
}
