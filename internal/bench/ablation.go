package bench

import (
	"fmt"
	"strings"

	"monetlite"
	"monetlite/internal/strheap"
	"monetlite/internal/tpch"
)

// AblationResultTransfer compares the three result-transfer strategies of
// §3.3: zero-copy (default), forced copy, and eager conversion; the lazy
// default also shows the partial-access win (convert one column of many).
func AblationResultTransfer(cfg Config) (*Report, error) {
	d := dataset(cfg)
	rep := &Report{
		Title:   fmt.Sprintf("Ablation — result transfer of lineitem (SF %g): full access vs one column", cfg.SF),
		Headers: []string{"all cols s", "1 col s"},
	}
	cases := []struct {
		name string
		cfg  monetlite.Config
	}{
		{"zero-copy + lazy conversion (default)", monetlite.Config{Parallel: true}},
		{"forced copy", monetlite.Config{Parallel: true, ForceCopy: true}},
		{"eager conversion", monetlite.Config{Parallel: true, EagerConvert: true}},
	}
	for _, c := range cases {
		db, err := monetlite.OpenInMemory(c.cfg)
		if err != nil {
			return nil, err
		}
		if err := tpch.LoadInto(db, d); err != nil {
			db.Close()
			return nil, err
		}
		conn := db.Connect()
		full := timeIt(cfg.Runs, func() error {
			res, err := conn.Query("SELECT * FROM lineitem")
			if err != nil {
				return err
			}
			for i := 0; i < res.NumCols(); i++ {
				if strings.HasPrefix(res.Column(i).Type(), "VARCHAR") {
					res.Column(i).AsStrings()
				} else {
					res.Column(i).AsFloats()
				}
			}
			return nil
		})
		one := timeIt(cfg.Runs, func() error {
			res, err := conn.Query("SELECT * FROM lineitem")
			if err != nil {
				return err
			}
			// The SELECT * then touch-one-column pattern lazy conversion
			// targets (paper: "only access a small amount of columns").
			res.Column(0).AsInts()
			return nil
		})
		rep.Rows = append(rep.Rows, Row{System: c.name, Cells: []Cell{full, one}})
		db.Close()
	}
	return rep, nil
}

// AblationStringDedup measures the string-heap duplicate elimination of
// §3.1: heap bytes with and without dedup on a low-cardinality column.
func AblationStringDedup(cfg Config) (*Report, error) {
	d := dataset(cfg)
	modes := d.Lineitem.Cols[14].([]string) // l_shipmode: 7 distinct values
	rep := &Report{
		Title:   fmt.Sprintf("Ablation — string heap dedup on l_shipmode (%d values)", len(modes)),
		Headers: []string{"load s", "heap MB"},
	}
	for _, c := range []struct {
		name      string
		threshold int
	}{
		{"dedup on (default threshold)", strheap.DefaultDedupThreshold},
		{"dedup off", 0},
	} {
		var heap *strheap.Heap
		cell := timeOnce(func() error {
			heap = strheap.NewWithThreshold(c.threshold)
			for _, s := range modes {
				heap.Put(s)
			}
			return nil
		})
		mb := Cell{Seconds: float64(heap.Size()) / (1 << 20)}
		rep.Rows = append(rep.Rows, Row{System: c.name, Cells: []Cell{cell, mb}})
	}
	return rep, nil
}

// AblationIndexes measures the automatic index paths of §3.1 on repeated
// selective queries: imprints (range), hash (point), order index (range),
// against plain scans (NoIndexes).
func AblationIndexes(cfg Config) (*Report, error) {
	d := dataset(cfg)
	rep := &Report{
		Title:   fmt.Sprintf("Ablation — automatic indexes (SF %g): repeated selective queries", cfg.SF),
		Headers: []string{"range s", "point s"},
	}
	rangeQ := "SELECT count(*) FROM lineitem WHERE l_partkey BETWEEN 100 AND 200"
	pointQ := "SELECT count(*) FROM lineitem WHERE l_orderkey = 1500"
	for _, c := range []struct {
		name    string
		cfg     monetlite.Config
		orderIx bool
	}{
		{"no indexes (scan)", monetlite.Config{Parallel: false, NoIndexes: true}, false},
		{"imprints + hash (automatic)", monetlite.Config{Parallel: false}, false},
		{"order index (CREATE ORDER INDEX)", monetlite.Config{Parallel: false}, true},
	} {
		db, err := monetlite.OpenInMemory(c.cfg)
		if err != nil {
			return nil, err
		}
		if err := tpch.LoadInto(db, d); err != nil {
			db.Close()
			return nil, err
		}
		conn := db.Connect()
		if c.orderIx {
			if _, err := conn.Exec("CREATE ORDER INDEX oi ON lineitem (l_partkey)"); err != nil {
				db.Close()
				return nil, err
			}
		}
		// Warm the automatic indexes (they build on first use).
		conn.Query(rangeQ)
		conn.Query(pointQ)
		r := timeIt(cfg.Runs, func() error { _, err := conn.Query(rangeQ); return err })
		p := timeIt(cfg.Runs, func() error { _, err := conn.Query(pointQ); return err })
		rep.Rows = append(rep.Rows, Row{System: c.name, Cells: []Cell{r, p}})
		db.Close()
	}
	return rep, nil
}

// AblationAppendVsInsert compares the embedded bulk append path with
// row-by-row INSERT statements (both in-process): the parsing overhead the
// paper built monetdb_append to avoid (§3.2).
func AblationAppendVsInsert(cfg Config) (*Report, error) {
	d := dataset(cfg)
	orders := d.Orders
	rep := &Report{
		Title:   fmt.Sprintf("Ablation — bulk Append vs per-row INSERT (orders, %d rows)", orders.Rows),
		Headers: []string{"wall s"},
	}
	rep.Rows = append(rep.Rows, Row{System: "monetdb_append (bulk)", Cells: []Cell{timeOnce(func() error {
		db, err := monetlite.OpenInMemory()
		if err != nil {
			return err
		}
		defer db.Close()
		conn := db.Connect()
		if _, err := conn.Exec(orders.DDL); err != nil {
			return err
		}
		return conn.Append(orders.Name, orders.Cols...)
	})}})
	rep.Rows = append(rep.Rows, Row{System: "INSERT INTO per row (parsed)", Cells: []Cell{timeOnce(func() error {
		db, err := monetlite.OpenInMemory()
		if err != nil {
			return err
		}
		defer db.Close()
		conn := db.Connect()
		if _, err := conn.Exec(orders.DDL); err != nil {
			return err
		}
		if err := conn.Begin(); err != nil {
			return err
		}
		keys := orders.Cols[0].([]int32)
		dates := orders.Cols[4].([]int32)
		prices := orders.Cols[3].([]float64)
		for r := 0; r < orders.Rows; r++ {
			stmt := fmt.Sprintf(
				"INSERT INTO orders (o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, o_orderpriority, o_clerk, o_shippriority) VALUES (%d, 1, 'O', %f, %d, '1-URGENT', 'c', 0)",
				keys[r], prices[r], dates[r])
			if _, err := conn.Exec(stmt); err != nil {
				return err
			}
		}
		return conn.Commit()
	})}})
	return rep, nil
}
