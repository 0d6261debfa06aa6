package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"monetlite"
	"monetlite/internal/mtypes"
	"monetlite/internal/tpch"
)

// roundtrip: the paper's ingest and export loop (Figures 5 and 6) on disk.
// Each cycle writes lineitem from host slices into a fresh directory, makes
// it durable and encoded, closes, reopens, answers Q6 and exports the table
// back into host slices three times.

type roundtripInst struct {
	base
	li       *tpch.Table
	hostSums []checksum // what an export's checksum pass must give, per column
	q6Want   float64
	cycles   int
	lastDir  string
	last     map[string]time.Duration // how long each op kind took last time
}

func setupRoundtrip(e env) (instance, error) {
	w := &roundtripInst{base: base{env: e}, last: map[string]time.Duration{}}
	w.li = tpch.Generate(e.sf, e.seed).Lineitem
	w.setTables(w.li)
	w.texts = []string{tpch.Queries[6], "SELECT * FROM lineitem"}
	for _, col := range w.li.Cols {
		w.hostSums = append(w.hostSums, sumValues(hostValues(col)))
	}
	w.q6Want = hostQ6(w.li)
	// One cycle before timing: the first use of every code path and of the
	// directory's file system is not what later cycles pay.
	rec := newRecorder()
	w.cycle(rec, e.tr)
	if rec.failed > 0 {
		return nil, fmt.Errorf("warm-up cycle: %s", rec.errs[0])
	}
	w.walBytes, w.walUserBytes = 0, 0
	return w, nil
}

// hostQ6 answers TPC-H Q6 from the host columns.
func hostQ6(li *tpch.Table) float64 {
	ext, disc, qty := li.Cols[5].([]float64), li.Cols[6].([]float64), li.Cols[4].([]float64)
	ship := li.Cols[10].([]int32)
	lo, hi := mtypes.DateFromYMD(1994, 1, 1), mtypes.DateFromYMD(1995, 1, 1)
	var sum int64 // in units of 1e-4, as DECIMAL(15,2) * DECIMAL(15,2) is
	for r := range ship {
		if d := scaled(disc[r]); ship[r] >= lo && ship[r] < hi && d >= 5 && d <= 7 && scaled(qty[r]) < 2400 {
			sum += scaled(ext[r]) * d
		}
	}
	return float64(sum) / 1e4
}

func (w *roundtripInst) check(rec *recorder) {
	// Set-up's cycle left the last directory behind, closed: the reference
	// check reads it the way a later process would.
	db, err := monetlite.Open(w.lastDir)
	if err != nil {
		rec.check("reopen for the reference check", err)
		return
	}
	conn := db.Connect()
	w.checkTexts(rec, true, func(text string) ([]values, error) { return query(nil, 0, conn, text) })
	rec.check("close after the reference check", db.Close())
}

func (w *roundtripInst) measure(d time.Duration, tr *tracer) *recorder {
	if w.db != nil {
		w.db.Close()
		w.db = nil
	}
	rec := newRecorder()
	for start := time.Now(); time.Since(start) < d; {
		w.cycle(rec, tr)
	}
	// The layer probes want a database to read from, and the stored size
	// is that of the last cycle's directory.
	db, err := monetlite.Open(w.lastDir)
	rec.check("reopen after the last cycle", err)
	w.db = db
	return rec
}

// cycle runs one round trip. Its timed ops are ingest, persist, reopen_q6 and
// three exports; a failed step fails its op and ends the cycle.
func (w *roundtripInst) cycle(rec *recorder, tr *tracer) {
	if w.lastDir != "" {
		os.RemoveAll(w.lastDir)
	}
	w.cycles++
	dir := filepath.Join(w.env.dir, fmt.Sprintf("cycle%d", w.cycles))
	w.lastDir = dir

	var db *monetlite.Database
	op := func(kind string, f func(root int32) error) bool {
		collectBefore(w.last[kind])
		root := tr.op(kind)
		t0 := time.Now()
		err := f(root)
		lat := time.Since(t0)
		tr.end(root)
		rec.add(kind, lat, err)
		w.last[kind] = lat
		if err != nil && db != nil {
			db.Close()
		}
		return err == nil
	}

	ok := op("ingest", func(root int32) (err error) {
		if db, err = openDir(tr, root, dir); err != nil {
			return err
		}
		conn := db.Connect()
		sp := tr.start(root, "Conn.Exec")
		_, err = conn.Exec(w.li.DDL)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.start(root, "Conn.Append")
		err = conn.Append(w.li.Name, w.li.Cols...)
		tr.end(sp)
		return err
	})
	if !ok {
		return
	}
	w.walBytes += fileSize(filepath.Join(dir, "wal.log"))
	w.walUserBytes += userBytes(w.li.Cols)

	ok = op("persist", func(root int32) error {
		if err := checkpoint(tr, root, db); err != nil {
			return err
		}
		if err := encodeColumns(tr, root, db); err != nil {
			return err
		}
		if err := checkpoint(tr, root, db); err != nil {
			return err
		}
		w.retire(db)
		err := closeDB(tr, root, db)
		db = nil
		return err
	})
	if !ok {
		return
	}

	var conn *monetlite.Conn
	ok = op("reopen_q6", func(root int32) (err error) {
		if db, err = openDir(tr, root, dir); err != nil {
			return err
		}
		conn = db.Connect()
		cols, err := query(tr, root, conn, tpch.Queries[6])
		if err != nil {
			return err
		}
		if len(cols) != 1 || len(cols[0].f64) != 1 || math.Abs(cols[0].f64[0]-w.q6Want) > 1e-9*w.q6Want {
			return fmt.Errorf("Q6 after reopen gave %v, the host data gives %v", cols, w.q6Want)
		}
		return nil
	})
	if !ok {
		return
	}

	for i := 0; i < 3; i++ {
		ok = op("export", func(root int32) error {
			cols, err := query(tr, root, conn, "SELECT * FROM lineitem")
			if err != nil {
				return err
			}
			if len(cols) != len(w.hostSums) {
				return fmt.Errorf("export gave %d columns, want %d", len(cols), len(w.hostSums))
			}
			sp := tr.start(root, "checksum")
			defer tr.end(sp)
			for c, v := range cols {
				if v.len() != w.li.Rows {
					return fmt.Errorf("export gave %d rows of column %d, want %d", v.len(), c, w.li.Rows)
				}
				if got := sumValues(v); !got.equal(w.hostSums[c]) {
					return fmt.Errorf("export of column %d has checksum %v, the host data has %v", c, got, w.hostSums[c])
				}
			}
			return nil
		})
		if !ok {
			return
		}
	}
	w.retire(db)
	root := tr.op("close")
	rec.check("close after export", closeDB(tr, root, db))
	tr.end(root)
	db = nil
}
