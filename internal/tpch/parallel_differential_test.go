package tpch

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"monetlite"
	"monetlite/internal/mal"
)

// compareResults checks parallel vs serial results column by column, every
// cell exactly and doubles bit for bit: decimal SUMs and COUNTs merge
// losslessly through integer partials, and AVG is SUM / COUNT divided once
// at every chunk count.
func compareResults(t *testing.T, label string, ser, par *monetlite.Result) {
	t.Helper()
	if ser.NumRows() != par.NumRows() {
		t.Fatalf("%s: serial %d rows, parallel %d rows", label, ser.NumRows(), par.NumRows())
	}
	if ser.NumCols() != par.NumCols() {
		t.Fatalf("%s: serial %d cols, parallel %d cols", label, ser.NumCols(), par.NumCols())
	}
	for c := 0; c < ser.NumCols(); c++ {
		st, pt := ser.Column(c).Type(), par.Column(c).Type()
		if st != pt {
			t.Fatalf("%s: col %d: type %s vs %s", label, c, st, pt)
		}
		for i := 0; i < ser.NumRows(); i++ {
			sv, pv := ser.Column(c).Value(i), par.Column(c).Value(i)
			if sf, ok := sv.(float64); ok {
				pf := pv.(float64)
				if math.Float64bits(sf) != math.Float64bits(pf) {
					t.Fatalf("%s: col %d row %d: %v vs %v", label, c, i, sv, pv)
				}
				continue
			}
			if sv != pv {
				t.Fatalf("%s: col %d row %d: %v (%T) vs %v (%T)", label, c, i, sv, sv, pv, pv)
			}
		}
	}
}

// The parallel partitioned hash-aggregation path (per-chunk group tables +
// keyed partial merge) must agree with the serial engine on TPC-H Q1 at a
// scale factor large enough to split the lineitem scan into grouped chunks
// (2*mal.MinChunkRows each). Every cell must match bit for bit, AVG
// included (see compareResults).
func TestParallelQ1MatchesSerial(t *testing.T) {
	// ~90k lineitem rows: two grouped chunks or more, so 4 threads split it.
	const sf = 0.015
	data := Generate(sf, 42)
	if n := data.Lineitem.Rows; n < 4*mal.MinChunkRows {
		t.Fatalf("SF %g generated only %d lineitem rows; below the grouped mitosis threshold %d",
			sf, n, 4*mal.MinChunkRows)
	}

	run := func(cfg monetlite.Config) *monetlite.Result {
		db, err := monetlite.OpenInMemory(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := LoadInto(db, data); err != nil {
			t.Fatal(err)
		}
		res, err := db.Connect().Query(Queries[1])
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ser := run(monetlite.Config{Parallel: false})
	par := run(monetlite.Config{Parallel: true, MaxThreads: 4})
	if ser.NumRows() == 0 {
		t.Fatal("Q1 returned no rows")
	}
	compareResults(t, "Q1", ser, par)
}

// The parallel partitioned hash-join path (radix-partitioned build +
// chunked probe) must agree with the serial engine on the join-heavy TPC-H
// queries Q3, Q5 and Q10, at a scale factor large enough for mal.Split
// to split the probe side into multiple chunks. The chunked pair lists are
// concatenated in chunk order, so results must match the serial path
// exactly — decimal SUMs and COUNTs included.
func TestParallelJoinQueriesMatchSerial(t *testing.T) {
	// ~150k lineitem rows: the filtered probe sides of Q3/Q5/Q10 stay above
	// 2*MinChunkRows so the probe splits under 4 threads.
	const sf = 0.025
	data := Generate(sf, 42)
	if n := data.Lineitem.Rows; n < 4*mal.MinChunkRows {
		t.Fatalf("SF %g generated only %d lineitem rows; too small for multi-chunk probes", sf, n)
	}

	open := func(cfg monetlite.Config) *monetlite.Conn {
		db, err := monetlite.OpenInMemory(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := LoadInto(db, data); err != nil {
			t.Fatal(err)
		}
		return db.Connect()
	}
	serConn := open(monetlite.Config{Parallel: false})
	parConn := open(monetlite.Config{Parallel: true, MaxThreads: 4})
	parConn.TraceMAL = true

	joinChunked := false
	for _, q := range []int{3, 5, 10} {
		ser, err := serConn.Query(Queries[q])
		if err != nil {
			t.Fatalf("Q%d serial: %v", q, err)
		}
		par, err := parConn.Query(Queries[q])
		if err != nil {
			t.Fatalf("Q%d parallel: %v", q, err)
		}
		if ser.NumRows() == 0 {
			t.Fatalf("Q%d returned no rows", q)
		}
		compareResults(t, Queries[q], ser, par)
		if strings.Contains(parConn.LastTrace.String(), "probe chunks (join)") {
			joinChunked = true
		}
	}
	if !joinChunked {
		t.Fatal("no query took the multi-chunk partitioned join path; raise the scale factor")
	}
}

// An order index on the clustered l_orderkey column answers a selective
// range by binary search (orderidx in the MAL trace) and returns exactly the
// rows of the unindexed scan.
func TestOrderIndexOnTPCH(t *testing.T) {
	data := Generate(0.01, 42)
	run := func(cfg monetlite.Config) (*monetlite.Result, string) {
		db, err := monetlite.OpenInMemory(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := LoadInto(db, data); err != nil {
			t.Fatal(err)
		}
		conn := db.Connect()
		if _, err := conn.Exec("CREATE ORDER INDEX oi ON lineitem (l_orderkey)"); err != nil {
			t.Fatal(err)
		}
		conn.TraceMAL = true
		q := `select count(*), sum(l_extendedprice), min(l_shipdate)
		      from lineitem where l_orderkey between 1000 and 2000`
		res, err := conn.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res, conn.LastTrace.String()
	}
	indexed, trace := run(monetlite.Config{Parallel: false})
	naive, naiveTrace := run(monetlite.Config{Parallel: false, NoIndexes: true})
	compareResults(t, "order index vs naive", naive, indexed)
	if naive.NumRows() != 1 || naive.RowStrings(0)[0] == "0" {
		t.Fatalf("range selected no rows: %v", naive.RowStrings(0))
	}
	if !strings.Contains(trace, "algebra.rangeselect(orderidx)") {
		t.Fatalf("order index not consulted:\n%s", trace)
	}
	if strings.Contains(naiveTrace, "orderidx") {
		t.Fatalf("NoIndexes still used the order index:\n%s", naiveTrace)
	}
}

// The full 22-query differential: every TPC-H query must return identical
// results on the serial and the morsel-parallel engine — the chunk-order
// determinism contract extended from the handpicked join/scan shapes to the
// whole suite, including the subquery-decorrelation queries (Q17, Q20, Q21)
// and the cost-based join orders. Under -short the slowest correlated
// queries are skipped for time, never for correctness.
func TestAllQueriesParallelMatchSerial(t *testing.T) {
	const sf = 0.01
	data := Generate(sf, 42)

	open := func(cfg monetlite.Config) *monetlite.Conn {
		db, err := monetlite.OpenInMemory(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := LoadInto(db, data); err != nil {
			t.Fatal(err)
		}
		return db.Connect()
	}
	serConn := open(monetlite.Config{Parallel: false})
	parConn := open(monetlite.Config{Parallel: true, MaxThreads: 4})

	// Queries dominated by per-group correlated work; skipped under -short.
	slow := map[int]bool{17: true, 20: true, 21: true}
	for _, q := range QueryNumbers {
		if testing.Short() && slow[q] {
			t.Logf("Q%d: skipped under -short", q)
			continue
		}
		ser, err := serConn.Query(Queries[q])
		if err != nil {
			t.Fatalf("Q%d serial: %v", q, err)
		}
		par, err := parConn.Query(Queries[q])
		if err != nil {
			t.Fatalf("Q%d parallel: %v", q, err)
		}
		compareResults(t, fmt.Sprintf("Q%d", q), ser, par)
		t.Logf("Q%d: %d rows agree", q, ser.NumRows())
	}
}

// The fused TopN path (ORDER BY … LIMIT as bounded per-chunk heaps + run
// merge) must agree with the serial engine row for row on the ordered-limit
// TPC-H queries Q2, Q3 and Q10. The parallel and serial engines share the
// fused plan, so this also pins the serial TopN heap against the full-sort
// semantics it replaced; the MAL trace must show the TopN operator actually
// ran (the plans fused) on every query.
func TestParallelOrderedQueriesMatchSerial(t *testing.T) {
	const sf = 0.025
	data := Generate(sf, 42)

	open := func(cfg monetlite.Config) *monetlite.Conn {
		db, err := monetlite.OpenInMemory(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := LoadInto(db, data); err != nil {
			t.Fatal(err)
		}
		conn := db.Connect()
		conn.TraceMAL = true
		return conn
	}
	serConn := open(monetlite.Config{Parallel: false})
	parConn := open(monetlite.Config{Parallel: true, MaxThreads: 4})

	for _, q := range []int{2, 3, 10} {
		ser, err := serConn.Query(Queries[q])
		if err != nil {
			t.Fatalf("Q%d serial: %v", q, err)
		}
		if !strings.Contains(serConn.LastTrace.String(), "algebra.topn") {
			t.Fatalf("Q%d: serial plan did not fuse ORDER BY+LIMIT to TopN:\n%s",
				q, serConn.LastTrace.String())
		}
		par, err := parConn.Query(Queries[q])
		if err != nil {
			t.Fatalf("Q%d parallel: %v", q, err)
		}
		if !strings.Contains(parConn.LastTrace.String(), "algebra.topn") {
			t.Fatalf("Q%d: parallel plan did not fuse ORDER BY+LIMIT to TopN:\n%s",
				q, parConn.LastTrace.String())
		}
		if ser.NumRows() == 0 {
			t.Fatalf("Q%d returned no rows", q)
		}
		compareResults(t, Queries[q], ser, par)
	}
}

// The candidate-list scan pipeline (PR 4) must agree with the serial engine
// row for row on scan-heavy shapes: the Q1 pre-aggregation scan (filter +
// projected expressions, ~98% selective) and the Q6 predicate stack (fused
// shipdate range + discount BETWEEN + quantity bound, ~2% selective), plus
// Q6 itself. Both engines run the same plan; the parallel one must split the
// scan into multiple mitosis chunks and merge per-chunk candidate lists
// (bat.mergecand), and neither may materialize the pipeline full-width — the
// MAL trace shows projections evaluated under a candidate list ("cands") and
// zero bat.materialize instructions, i.e. no per-conjunct full-column gather
// anywhere between the scan and the dense projection output.
// projectUnderCands matches a bat.project instruction that executed under a
// candidate list, e.g. "bat.project(2 exprs, 2245 cands)".
var projectUnderCands = regexp.MustCompile(`bat\.project\(\d+ exprs, \d+ cands\)`)

func TestParallelScanPipelineMatchesSerial(t *testing.T) {
	const sf = 0.025
	data := Generate(sf, 42)
	if n := data.Lineitem.Rows; n < 4*mal.MinChunkRows {
		t.Fatalf("SF %g generated only %d lineitem rows; too small for multi-chunk scans", sf, n)
	}

	open := func(cfg monetlite.Config) *monetlite.Conn {
		db, err := monetlite.OpenInMemory(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := LoadInto(db, data); err != nil {
			t.Fatal(err)
		}
		conn := db.Connect()
		conn.TraceMAL = true
		return conn
	}
	serConn := open(monetlite.Config{Parallel: false})
	parConn := open(monetlite.Config{Parallel: true, MaxThreads: 4})

	queries := []struct {
		label     string
		sql       string
		wantCands bool // projection must run under a candidate list
	}{
		{"Q1 pre-agg scan", `
			select l_returnflag, l_quantity, l_extendedprice * (1 - l_discount)
			from lineitem
			where l_shipdate <= date '1998-09-02'`, true},
		{"Q6 predicate scan", `
			select l_extendedprice * l_discount
			from lineitem
			where l_shipdate >= date '1994-01-01'
				and l_shipdate < date '1995-01-01'
				and l_discount between 0.05 and 0.07
				and l_quantity < 24`, true},
		// Q6 itself aggregates: its final bat.project runs over the one-row
		// aggregate result, so only the materialize/merge assertions apply.
		{"Q6", Queries[6], false},
	}
	scanChunked := false
	for _, q := range queries {
		ser, err := serConn.Query(q.sql)
		if err != nil {
			t.Fatalf("%s serial: %v", q.label, err)
		}
		if c := serConn.LastTrace.Count("bat.materialize"); c != 0 {
			t.Fatalf("%s: serial pipeline materialized full-width %d times:\n%s",
				q.label, c, serConn.LastTrace.String())
		}
		par, err := parConn.Query(q.sql)
		if err != nil {
			t.Fatalf("%s parallel: %v", q.label, err)
		}
		ptrace := parConn.LastTrace.String()
		if c := parConn.LastTrace.Count("bat.materialize"); c != 0 {
			t.Fatalf("%s: parallel pipeline materialized full-width %d times:\n%s", q.label, c, ptrace)
		}
		if strings.Contains(ptrace, "chunks (scan)") {
			scanChunked = true
			if !strings.Contains(ptrace, "bat.mergecand") {
				t.Fatalf("%s: chunked scan without candidate merge:\n%s", q.label, ptrace)
			}
		}
		// Match the bat.project instruction specifically — bat.mergecand also
		// mentions "cands", which must not satisfy this assertion.
		if q.wantCands && !projectUnderCands.MatchString(ptrace) {
			t.Fatalf("%s: projection did not run under a candidate list:\n%s", q.label, ptrace)
		}
		if ser.NumRows() == 0 {
			t.Fatalf("%s returned no rows", q.label)
		}
		compareResults(t, q.label, ser, par)
	}
	if !scanChunked {
		t.Fatal("no query took the multi-chunk scan path; raise the scale factor")
	}
}
