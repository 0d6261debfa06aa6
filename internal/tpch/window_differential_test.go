package tpch

import (
	"strings"
	"testing"

	"monetlite"
	"monetlite/internal/mal"
)

// Window-function differentials on TPC-H data: ranking and running-total
// shapes (the in-process analytics the paper's workloads lean on) must agree
// between the serial and parallel columnar engines row for row, with the
// parallel plan actually fanning partitions out ("chunks (window)" in the
// MAL trace), and — at a smaller scale — with the rowstore volcano oracle.

// topPartsPerSupplier ranks each supplier's parts by revenue inside one
// aggregated SELECT (the window orders by an aggregate result) and keeps the
// top 3 via an outer filter on the rank.
const topPartsPerSupplier = `
	select s, p, rev, r from (
		select l_suppkey as s, l_partkey as p,
			sum(l_extendedprice * (1 - l_discount)) as rev,
			rank() over (partition by l_suppkey order by sum(l_extendedprice * (1 - l_discount)) desc) as r
		from lineitem
		group by l_suppkey, l_partkey
	) x where r <= 3 order by s, r, p`

// runningRevenue computes a running total over per-day order revenue (the
// default peer-inclusive frame; days are unique after grouping).
const runningRevenue = `
	select d, rev, sum(rev) over (order by d) as running from (
		select o_orderdate as d, sum(o_totalprice) as rev
		from orders
		group by o_orderdate
	) x order by d`

func TestParallelWindowQueriesMatchSerial(t *testing.T) {
	const sf = 0.025
	data := Generate(sf, 42)
	if n := data.Lineitem.Rows; n < 2*mal.MinChunkRows {
		t.Fatalf("SF %g generated only %d lineitem rows; too small for window mitosis", sf, n)
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

	// A raw per-lineitem ranking over ~250 supplier partitions: large enough
	// for the window fan-out to split, and the partition count spans worker groups.
	perSupplierRows := `
		select l_suppkey, l_extendedprice,
			row_number() over (partition by l_suppkey order by l_extendedprice desc, l_orderkey, l_linenumber)
		from lineitem`

	queries := []struct {
		label    string
		sql      string
		wantFan  bool // multi-group partition fan-out must appear in the trace
		wantRows int  // minimum result rows
	}{
		{"top-3 parts per supplier", topPartsPerSupplier, false, 3},
		{"running revenue", runningRevenue, false, 100},
		{"per-supplier row numbers", perSupplierRows, true, 2 * mal.MinChunkRows},
	}
	for _, q := range queries {
		ser, err := serConn.Query(q.sql)
		if err != nil {
			t.Fatalf("%s serial: %v", q.label, err)
		}
		par, err := parConn.Query(q.sql)
		if err != nil {
			t.Fatalf("%s parallel: %v", q.label, err)
		}
		ptrace := parConn.LastTrace.String()
		if !strings.Contains(ptrace, "algebra.window") {
			t.Fatalf("%s: no window operator in trace:\n%s", q.label, ptrace)
		}
		if q.wantFan && !strings.Contains(ptrace, "chunks (window)") {
			t.Fatalf("%s: parallel engine did not fan partitions out:\n%s", q.label, ptrace)
		}
		if ser.NumRows() < q.wantRows {
			t.Fatalf("%s: only %d rows", q.label, ser.NumRows())
		}
		compareResults(t, q.label, ser, par)
	}
}

// The rowstore volcano engine's naive window evaluator is the oracle: on a
// small TPC-H instance both window queries must agree with the columnar
// engine row for row (both emit deterministic total orders).
func TestRowstoreWindowMatchesColumnar(t *testing.T) {
	db, d, err := NewDatabase(0.002, 21)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	conn := db.Connect()
	rdb := loadRowstoreDB(t, d)

	for _, q := range []struct{ label, sql string }{
		{"top-3 parts per supplier", topPartsPerSupplier},
		{"running revenue", runningRevenue},
	} {
		colRes, err := conn.Query(q.sql)
		if err != nil {
			t.Fatalf("columnar %s: %v", q.label, err)
		}
		rowRes, err := rdb.Query(q.sql)
		if err != nil {
			t.Fatalf("rowstore %s: %v", q.label, err)
		}
		if colRes.NumRows() == 0 || colRes.NumRows() != len(rowRes.Rows) {
			t.Fatalf("%s: columnar %d rows, rowstore %d", q.label, colRes.NumRows(), len(rowRes.Rows))
		}
		for i := 0; i < colRes.NumRows(); i++ {
			if !rowsApproxEqual(colRes, rowRes, i, func(a, b float64) bool { return a == b }) {
				t.Fatalf("%s row %d differs:\n  columnar: %v\n  rowstore: %v",
					q.label, i, colRes.RowStrings(i), rowRes.Rows[i])
			}
		}
		t.Logf("%s: %d rows agree", q.label, colRes.NumRows())
	}
}
