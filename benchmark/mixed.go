package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"monetlite"
	"monetlite/internal/tpch"
)

// mixed-rw: one writer on a schedule beside one reader in a closed loop, on a
// checkpointed on-disk lineitem with the background merger on.

const (
	writeInterval = 25 * time.Millisecond // 40 txn/s
	appendRows    = 500                   // rows per append transaction
	deleteEvery   = 5                     // every fifth transaction deletes one order
)

type mixedInst struct {
	base
	li        *tpch.Table
	keyRows   []int32 // number of lineitem rows of each base order key
	stream    []any   // the rows the writer appends, their order keys moved past the base's
	streamLen int
	nextRow   int
	delKeys   []int32 // lower-half order keys in seeded order: each is deleted at most once
	nextDel   int
	txns      int // writer transactions started so far: keeps the schedule's phase across windows
	pointRng  *rand.Rand

	writer, reader *monetlite.Conn
	liveRows       int64 // rows the table must hold: base + acknowledged appends - acknowledged deletes
}

var mixedReads = [3]string{"q1", "q6", "point"}

func setupMixed(e env) (instance, error) {
	w := &mixedInst{base: base{env: e}}
	root := e.tr.op("setup")
	defer e.tr.end(root)
	data := tpch.Generate(e.sf, e.seed)
	w.li = data.Lineitem
	w.setTables(w.li)
	w.texts = []string{tpch.Queries[1], tpch.Queries[6]}

	nOrders := data.Orders.Rows
	w.keyRows = make([]int32, nOrders+1)
	for _, k := range w.li.Cols[0].([]int32) {
		w.keyRows[k]++
	}
	// The appended rows come from a second generated lineitem. Their order
	// keys are moved past the base's so that a point count on a base key has
	// one right answer whatever the writer has done.
	more := tpch.Generate(e.sf, e.seed+1).Lineitem
	w.streamLen = more.Rows
	keys := append([]int32(nil), more.Cols[0].([]int32)...)
	for i := range keys {
		keys[i] += int32(nOrders)
	}
	w.stream = append([]any{keys}, more.Cols[1:]...)

	rng := rand.New(rand.NewSource(e.seed ^ 0x3a11))
	for _, k := range rng.Perm(nOrders / 2) {
		w.delKeys = append(w.delKeys, int32(k+1))
	}
	w.pointRng = rng

	db, err := openDir(e.tr, root, filepath.Join(e.dir, "db"))
	if err != nil {
		return nil, err
	}
	w.db = db
	if err := loadTables(e.tr, root, db, w.tables); err != nil {
		return nil, err
	}
	if err := checkpoint(e.tr, root, db); err != nil {
		return nil, err
	}
	w.liveRows = int64(w.li.Rows)
	w.writer, w.reader = db.Connect(), db.Connect()
	for _, kind := range mixedReads {
		if err := w.read(nil, kind); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

func (w *mixedInst) check(rec *recorder) {
	w.checkTexts(rec, false, func(text string) ([]values, error) { return query(nil, 0, w.reader, text) })
	// From here on answers are checked against keyRows and liveRows.
	w.dropColumns()
}

// read runs one of the reader's three queries and checks its answer: exactly
// for the point count, by shape for Q1 and Q6, whose right answers move with
// the writer.
func (w *mixedInst) read(tr *tracer, kind string) error {
	root := tr.op(kind)
	defer tr.end(root)
	switch kind {
	case "q1":
		cols, err := query(tr, root, w.reader, tpch.Queries[1])
		if err == nil && (len(cols) != 10 || cols[0].len() < 1 || cols[0].len() > 4) {
			err = fmt.Errorf("Q1 gave %d columns of %d rows", len(cols), cols[0].len())
		}
		return err
	case "q6":
		cols, err := query(tr, root, w.reader, tpch.Queries[6])
		if err == nil && (len(cols) != 1 || cols[0].len() != 1 || !(cols[0].f64[0] > 0)) {
			err = fmt.Errorf("Q6 gave %v", cols)
		}
		return err
	}
	// Upper-half keys are never deleted and never appended to.
	half := len(w.keyRows) / 2
	key := half + w.pointRng.Intn(len(w.keyRows)-half)
	cols, err := query(tr, root, w.reader, fmt.Sprintf("SELECT count(*) FROM lineitem WHERE l_orderkey = %d", key))
	if err == nil && (len(cols) != 1 || len(cols[0].i64) != 1 || cols[0].i64[0] != int64(w.keyRows[key])) {
		err = fmt.Errorf("count of order %d gave %v, the host data has %d", key, cols, w.keyRows[key])
	}
	return err
}

// write runs the writer's next transaction under root.
func (w *mixedInst) write(tr *tracer, root int32, kind string) error {
	if kind == "delete" {
		key := w.delKeys[w.nextDel%len(w.delKeys)]
		w.nextDel++
		want := int64(w.keyRows[key])
		if w.nextDel > len(w.delKeys) {
			want = 0 // second time round: already gone
		}
		sp := tr.start(root, "Conn.Exec")
		n, err := w.writer.Exec(fmt.Sprintf("DELETE FROM lineitem WHERE l_orderkey = %d", key))
		tr.end(sp)
		if err == nil && n != want {
			err = fmt.Errorf("delete of order %d removed %d rows, the host data has %d", key, n, want)
		}
		if err == nil {
			w.liveRows -= n
		}
		return err
	}
	if w.nextRow+appendRows > w.streamLen {
		w.nextRow = 0
	}
	batch := make([]any, len(w.stream))
	for i, col := range w.stream {
		batch[i] = sliceOf(col, w.nextRow, w.nextRow+appendRows)
	}
	w.nextRow += appendRows
	sp := tr.start(root, "Conn.Append")
	err := w.writer.Append(w.li.Name, batch...)
	tr.end(sp)
	if err == nil {
		w.liveRows += appendRows
		n := userBytes(batch)
		w.appendedBytes += n
		w.walUserBytes += n
	}
	return err
}

func sliceOf(col any, lo, hi int) any {
	switch x := col.(type) {
	case []int32:
		return x[lo:hi]
	case []float64:
		return x[lo:hi]
	case []string:
		return x[lo:hi]
	}
	panic(fmt.Sprintf("benchmark: generator made a %T column", col))
}

func (w *mixedInst) measure(d time.Duration, tr *tracer) *recorder {
	wrec, rrec := newRecorder(), newRecorder()
	start := time.Now()
	deadline := start.Add(d)
	walPath := filepath.Join(w.env.dir, "db", "wal.log")
	walBefore := fileSize(walPath)
	var wg sync.WaitGroup
	wg.Add(2)
	// Writer: open loop. Each transaction is timed from when it was due, so a
	// stall delays the ones behind it too, as it would for independent users.
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * writeInterval)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			kind := "append"
			if w.txns++; w.txns%deleteEvery == 0 {
				kind = "delete"
			}
			root := tr.op(kind)
			w.lateMs = append(w.lateMs, float64(time.Since(due).Nanoseconds())/1e6)
			err := w.write(tr, root, kind)
			tr.end(root)
			// Appends and deletes are one op kind, "write": a write
			// transaction's latency, whichever it was. The spans keep them
			// apart.
			wrec.add("write", time.Since(due), err)
		}
	}()
	// Reader: closed loop.
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			kind := mixedReads[i%len(mixedReads)]
			t0 := time.Now()
			err := w.read(tr, kind)
			rrec.add(kind, time.Since(t0), err)
		}
	}()
	wg.Wait()
	w.walBytes += fileSize(walPath) - walBefore
	wrec.merge(rrec)
	return wrec
}

// finish closes and reopens the database: what was acknowledged must be
// there, no more and no less.
func (w *mixedInst) finish(rec *recorder) {
	dir := filepath.Join(w.env.dir, "db")
	w.retire(w.db)
	err := w.db.Close()
	rec.check("close", err)
	w.db, err = monetlite.Open(dir)
	if err != nil {
		rec.check("reopen", err)
		w.db = nil
		return
	}
	cols, err := query(nil, 0, w.db.Connect(), "SELECT count(*) FROM lineitem")
	if err == nil && (len(cols) != 1 || len(cols[0].i64) != 1 || cols[0].i64[0] != w.liveRows) {
		err = fmt.Errorf("after reopen the table has %v rows, acknowledged writes leave %d", cols, w.liveRows)
	}
	rec.check("row count after reopen", err)
}
