package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"monetlite"
	"monetlite/internal/client"
	"monetlite/internal/mtypes"
	"monetlite/internal/netproto"
	"monetlite/internal/plan"
	"monetlite/internal/server"
	"monetlite/internal/sqlparse"
	"monetlite/internal/storage"
	"monetlite/internal/tpch"
	"monetlite/internal/vec"
	"monetlite/internal/workpool"
)

// counters are the cumulative counts the engine keeps that the per-layer
// metrics take differences of.
type counters struct {
	pcHits, pcMisses int64
	merges, reads    uint64
	mergeNanos       int64
	grants, denied   int64
	totalAlloc       uint64
	at               time.Time
}

// retire adds a database's counts to the instance's before the database is
// closed, so that workloads which open many databases lose none.
func (b *base) retire(db *monetlite.Database) {
	b.retired = b.retired.plus(dbCounters(db))
}

func dbCounters(db *monetlite.Database) counters {
	var c counters
	if db == nil {
		return c
	}
	pc := db.PlanCacheStats()
	c.pcHits, c.pcMisses = pc.Hits, pc.Misses
	for _, t := range db.DeltaStats() {
		c.merges += t.Merges
		c.reads += t.ReadsWithDelta
		c.mergeNanos += t.MergeNanos
	}
	return c
}

func (c counters) plus(o counters) counters {
	c.pcHits += o.pcHits
	c.pcMisses += o.pcMisses
	c.merges += o.merges
	c.reads += o.reads
	c.mergeNanos += o.mergeNanos
	return c
}

// snapshot reads every counter now.
func (b *base) snapshot() counters {
	c := b.retired.plus(dbCounters(b.db))
	wp := workpool.Global.Stats()
	c.grants, c.denied = wp.Grants, wp.Denied
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.totalAlloc = ms.TotalAlloc
	c.at = time.Now()
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowMetrics turns the counter differences over the traced window, and the
// window's spans (those after mark), into per-layer readings.
func windowMetrics(vals map[string]float64, before, after counters, tr *tracer, mark int32, rec *recorder) {
	ops := float64(rec.timedOps())
	wall := after.at.Sub(before.at)
	vals["plancache.hit_ratio"] = ratio(float64(after.pcHits-before.pcHits),
		float64(after.pcHits-before.pcHits+after.pcMisses-before.pcMisses))
	granted, denied := float64(after.grants-before.grants), float64(after.denied-before.denied)
	vals["workpool.grant_ratio"] = 1
	if granted+denied > 0 {
		vals["workpool.grant_ratio"] = granted / (granted + denied)
	}
	vals["delta.merges"] = float64(after.merges - before.merges)
	vals["delta.reads_with_delta"] = float64(after.reads - before.reads)
	vals["delta.merge_busy_share"] = ratio(float64(after.mergeNanos-before.mergeNanos), float64(wall.Nanoseconds()))
	vals["mem.alloc_mb_per_op"] = ratio(float64(after.totalAlloc-before.totalAlloc)/1e6, ops)

	convert := 0.0
	for _, d := range tr.durationsMs(mark, "Column.") {
		convert += d
	}
	vals["result.convert_ms"] = ratio(convert, ops)
	writes := tr.durationsMs(mark, "Conn.Append", "Conn.Exec")
	vals["txn.commit_service_p50_ms"] = median(writes)
	vals["txn.commit_p99_ms"] = percentile(writes, 99)
	vals["tail.p99_ms"] = percentile(rec.all(), 99)

	vals["storage.checkpoint_ms"] = median(tr.durationsMs(0, "Database.Checkpoint"))
	vals["storage.encode_ms"] = median(tr.durationsMs(0, "Database.EncodeColumns"))
	vals["storage.open_ms"] = median(tr.durationsMs(0, "monetlite.Open"))
}

// hostCatalog is the planner's view of the generated tables, built without
// the engine: schemas from the DDL, row counts from the host columns.
type hostCatalog map[string]hostTable

type hostTable struct {
	meta *storage.TableMeta
	rows int64
}

func newHostCatalog(tables []*tpch.Table) (hostCatalog, error) {
	cat := hostCatalog{}
	for _, t := range tables {
		stmt, err := sqlparse.ParseOne(t.DDL)
		if err != nil {
			return nil, err
		}
		ct, ok := stmt.(*sqlparse.CreateTableStmt)
		if !ok {
			return nil, fmt.Errorf("DDL of %s parsed as %T", t.Name, stmt)
		}
		meta := &storage.TableMeta{Name: ct.Name}
		for _, cd := range ct.Cols {
			typ := mtypes.Type{Kind: mtypes.ParseTypeName(cd.TypeName)}
			switch typ.Kind {
			case mtypes.KDecimal:
				typ.Prec, typ.Scale = cd.Prec, cd.Scale
			case mtypes.KVarchar:
				typ.Width = cd.Width
			}
			meta.Cols = append(meta.Cols, storage.ColDef{Name: cd.Name, Typ: typ})
		}
		cat[ct.Name] = hostTable{meta, int64(t.Rows)}
	}
	return cat, nil
}

func (c hostCatalog) TableMeta(name string) (*storage.TableMeta, bool) {
	t, ok := c[name]
	return t.meta, ok
}

func (c hostCatalog) TableRows(name string) int64 { return c[name].rows }

// probeLayers times layers directly, after the window: the frontend over the
// texts, the executor with and without Parallel, the wire format and a server
// on loopback.
func probeLayers(vals map[string]float64, b *base, rec *recorder) error {
	if err := probeFrontend(vals, b); err != nil {
		return fmt.Errorf("frontend: %w", err)
	}
	embeddedMs, err := probeExec(vals, b)
	if err != nil {
		return fmt.Errorf("exec: %w", err)
	}
	// What being served costs: the hot texts over the wire against the same
	// texts on an embedded connection.
	var served []float64
	for kind, lat := range rec.latMs {
		if strings.HasSuffix(kind, ".hot") {
			served = append(served, lat...)
		}
	}
	if len(served) > 0 {
		vals["server.overhead_us"] = (median(served) - embeddedMs) * 1e3
	}
	if err := probeWire(vals, b); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	return nil
}

// timeMs returns the median wall time of reps calls of f, in ms.
func timeMs(reps int, f func() error) (float64, error) {
	samples := make([]float64, reps)
	for i := range samples {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		samples[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(samples), nil
}

// probeFrontend times the parser and the binder directly over the texts.
func probeFrontend(vals map[string]float64, b *base) error {
	const reps = 9
	cat, err := newHostCatalog(b.tables)
	if err != nil {
		return err
	}
	var parseUs, bindUs []float64
	var mallocs uint64
	for _, text := range b.texts {
		var stmt sqlparse.Statement
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ms, err := timeMs(reps, func() (err error) { stmt, err = sqlparse.ParseOne(text); return })
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		parseUs = append(parseUs, ms*1e3)
		mallocs += (after.Mallocs - before.Mallocs) / reps
		sel, ok := stmt.(*sqlparse.SelectStmt)
		if !ok {
			continue
		}
		ms, err = timeMs(reps, func() error {
			_, err := plan.BindSelectWith(cat, sel, nil, plan.OptOpts{})
			return err
		})
		if err != nil {
			return err
		}
		bindUs = append(bindUs, ms*1e3)
	}
	vals["sqlparse.parse_us"] = median(parseUs)
	vals["sqlparse.parse_allocs"] = ratio(float64(mallocs), float64(len(b.texts)))
	vals["plan.bind_us"] = median(bindUs)
	return nil
}

// probeExec runs the texts on an embedded connection: one pass with the MAL
// trace on for the exact counts, then timed passes on the database under test
// and on the Parallel-off reference beside it. It returns the median of the
// texts' embedded latencies, which the served workload's overhead is taken
// against.
func probeExec(vals map[string]float64, b *base) (embeddedP50Ms float64, err error) {
	conn := b.db.Connect()
	conn.TraceMAL = true
	var qerrs []float64
	instrs := 0
	for _, text := range b.texts {
		if _, err := conn.Query(text); err != nil {
			return 0, err
		}
		instrs += len(conn.LastTrace.Instrs)
		for _, in := range conn.LastTrace.Instrs {
			if in.Op != "optimizer.cardinality" || len(in.Args) == 0 {
				continue
			}
			var est, actual float64
			arg := in.Args[0]
			if i := strings.LastIndex(arg, ": est "); i < 0 {
				continue
			} else if _, err := fmt.Sscanf(arg[i:], ": est %f actual %f", &est, &actual); err != nil {
				continue
			}
			est, actual = max(est, 1), max(actual, 1)
			qerrs = append(qerrs, max(est, actual)/min(est, actual))
		}
	}
	vals["exec.mal_instrs"] = float64(instrs)
	vals["plan.qerror_median"] = median(qerrs)

	const reps = 3
	conn.TraceMAL = false
	serial := b.ref.Connect()
	var hot, speedup []float64
	for _, text := range b.texts {
		par, err := timeMs(reps, func() error { _, err := conn.Query(text); return err })
		if err != nil {
			return 0, err
		}
		ser, err := timeMs(reps, func() error { _, err := serial.Query(text); return err })
		if err != nil {
			return 0, err
		}
		hot = append(hot, par)
		speedup = append(speedup, ser/par)
	}
	vals["exec.query_ms"] = geomean(hot)
	vals["exec.parallel_speedup"] = geomean(speedup)
	return median(hot), nil
}

// probeWire moves lineitem through the wire format directly, then through a
// server and a client on loopback.
func probeWire(vals map[string]float64, b *base) error {
	const reps = 3
	res, err := b.db.Connect().Query("SELECT * FROM lineitem")
	if err != nil {
		return err
	}
	vecs := make([]*vec.Vector, res.NumCols())
	for i := range vecs {
		vecs[i] = monetlite.InternalVector(res.Column(i))
	}
	var payload []byte
	ms, err := timeMs(reps, func() (err error) { payload, err = netproto.EncodeColumns(res.Names(), vecs); return })
	if err != nil {
		return err
	}
	vals["netproto.encode_mb_per_s"] = float64(len(payload)) / 1e6 / (ms / 1e3)
	// The payload starts with the status line a client reads first.
	body := payload[bytes.IndexByte(payload, '\n')+1:]
	ms, err = timeMs(reps, func() error {
		_, _, err := netproto.ReadColumns(bufio.NewReader(bytes.NewReader(body)), res.NumCols(), res.NumRows())
		return err
	})
	if err != nil {
		return err
	}
	vals["netproto.decode_mb_per_s"] = float64(len(payload)) / 1e6 / (ms / 1e3)

	srv, err := server.Serve("127.0.0.1:0", server.NewColumnarBackend(b.db))
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cl.Close()
	ms, err = timeMs(reps, func() error {
		_, cols, err := cl.ReadTableBinary("lineitem")
		if err == nil && (len(cols) != res.NumCols() || cols[0].Len() != res.NumRows()) {
			err = fmt.Errorf("wire export of lineitem gave %d columns", len(cols))
		}
		return err
	})
	if err != nil {
		return err
	}
	vals["server.wire_export_mrows_per_s"] = float64(res.NumRows()) / 1e6 / (ms / 1e3)
	return nil
}
