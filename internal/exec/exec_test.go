package exec

import (
	"math"
	"strings"
	"testing"
	"time"

	"monetlite/internal/index"
	"monetlite/internal/mal"
	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
	"monetlite/internal/sqlparse"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
)

// memSource adapts an in-memory table for engine tests without the txn layer.
type memSource struct {
	tbl *storage.Table
}

func (s memSource) Meta() *storage.TableMeta { return &s.tbl.Meta }
func (s memSource) NumRows() int             { return s.tbl.Version().NRows }
func (s memSource) Col(i int) (*vec.Vector, error) {
	return s.tbl.Version().Col(i)
}
func (s memSource) LiveCands() []int32 { return s.tbl.Version().LiveCands() }
func (s memSource) HashIdx(ci int) *index.HashIndex {
	return s.tbl.HashFor(s.tbl.Version(), ci)
}
func (s memSource) OrderIdx(ci int) *index.OrderIndex {
	return s.tbl.OrderFor(s.tbl.Version(), ci)
}
func (s memSource) EncodedCol(ci int) *vec.Encoded {
	return s.tbl.EncodedFor(s.tbl.Version(), ci)
}

type memCatalog map[string]*storage.Table

func (c memCatalog) Source(name string) (TableSource, bool) {
	t, ok := c[name]
	if !ok {
		return nil, false
	}
	return memSource{t}, true
}

func (c memCatalog) TableMeta(name string) (*storage.TableMeta, bool) {
	t, ok := c[name]
	if !ok {
		return nil, false
	}
	return &t.Meta, true
}

func (c memCatalog) TableRows(name string) int64 {
	t, ok := c[name]
	if !ok {
		return 0
	}
	return int64(t.Version().NRows)
}

func buildTable(t *testing.T, n int) memCatalog {
	t.Helper()
	tbl := storage.NewMemoryTable(storage.TableMeta{Name: "nums", Cols: []storage.ColDef{
		{Name: "i", Typ: mtypes.Int},
		{Name: "grp", Typ: mtypes.Varchar},
	}})
	iv := vec.New(mtypes.Int, n)
	gv := vec.New(mtypes.Varchar, n)
	for k := 0; k < n; k++ {
		iv.I32[k] = int32(k)
		gv.Str[k] = []string{"a", "b", "c"}[k%3]
	}
	if _, err := tbl.Append([]*vec.Vector{iv, gv}, 1); err != nil {
		t.Fatal(err)
	}
	return memCatalog{"nums": tbl}
}

func planFor(t *testing.T, cat memCatalog, sql string) plan.Node {
	t.Helper()
	st, err := sqlparse.ParseOne(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := plan.BindSelect(cat, st.(*sqlparse.SelectStmt), nil)
	if err != nil {
		t.Fatal(err)
	}
	return q.Plan
}

// Mitosis plan-shape test: a large scan under the parallel engine must emit
// the optimizer.mitosis instruction and merge chunks (paper Figure 2).
func TestMitosisTraceShape(t *testing.T) {
	cat := buildTable(t, 3*mal.MinChunkRows)
	trace := &mal.Program{}
	e := &Engine{Cat: cat, Parallel: true, MaxThreads: 4, Trace: trace}
	res, err := e.Execute(planFor(t, cat, "SELECT median(sqrt(i * 2)) FROM nums"))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatal("median should yield one row")
	}
	out := trace.String()
	if trace.Count("optimizer.mitosis") == 0 {
		t.Fatalf("no mitosis in trace:\n%s", out)
	}
	if !strings.Contains(out, "aggr.MEDIAN(blocking)") {
		t.Fatalf("median not merged as a blocking step:\n%s", out)
	}
	// Parallel and serial engines agree.
	e2 := &Engine{Cat: cat, Parallel: false}
	res2, err := e2.Execute(planFor(t, cat, "SELECT median(sqrt(i * 2)) FROM nums"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols[0].F64[0] != res2.Cols[0].F64[0] {
		t.Fatalf("mitosis changed the answer: %f vs %f", res.Cols[0].F64[0], res2.Cols[0].F64[0])
	}
}

// Parallel grouped/global aggregates match serial results across agg kinds.
func TestParallelAggsMatchSerial(t *testing.T) {
	cat := buildTable(t, 3*mal.MinChunkRows)
	queries := []string{
		"SELECT sum(i), count(*), min(i), max(i), avg(i) FROM nums",
		"SELECT sum(i) FROM nums WHERE i % 7 = 0",
		"SELECT grp, sum(i) FROM nums GROUP BY grp ORDER BY grp",
	}
	for _, q := range queries {
		p := planFor(t, cat, q)
		par := &Engine{Cat: cat, Parallel: true, MaxThreads: 4}
		ser := &Engine{Cat: cat, Parallel: false}
		r1, err := par.Execute(p)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		r2, err := ser.Execute(p)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if r1.NumRows() != r2.NumRows() {
			t.Fatalf("%s: %d vs %d rows", q, r1.NumRows(), r2.NumRows())
		}
		for c := range r1.Cols {
			for i := 0; i < r1.NumRows(); i++ {
				a, b := r1.Cols[c].Value(i), r2.Cols[c].Value(i)
				if a.String() != b.String() {
					t.Fatalf("%s: cell (%d,%d) %s vs %s", q, i, c, a, b)
				}
			}
		}
	}
}

// buildNullTable creates a table large enough for grouped mitosis, with NULL
// group keys and NULL aggregate inputs sprinkled in.
func buildNullTable(t *testing.T, n int) memCatalog {
	t.Helper()
	tbl := storage.NewMemoryTable(storage.TableMeta{Name: "nums", Cols: []storage.ColDef{
		{Name: "i", Typ: mtypes.Int},
		{Name: "grp", Typ: mtypes.Varchar},
	}})
	iv := vec.New(mtypes.Int, n)
	gv := vec.New(mtypes.Varchar, n)
	for k := 0; k < n; k++ {
		if k%11 == 0 {
			iv.SetNull(k)
		} else {
			iv.I32[k] = int32(k % 1000)
		}
		if k%7 == 0 {
			gv.SetNull(k)
		} else {
			gv.Str[k] = []string{"a", "b", "c", "d"}[k%4]
		}
	}
	if _, err := tbl.Append([]*vec.Vector{iv, gv}, 1); err != nil {
		t.Fatal(err)
	}
	return memCatalog{"nums": tbl}
}

// Parallel grouped aggregation (per-chunk hash tables + keyed merge) must
// match the serial path exactly — including NULL group keys (their own
// group) and NULL inputs (skipped by SUM/AVG/COUNT, empty groups NULL).
func TestParallelGroupedAggMatchesSerial(t *testing.T) {
	cat := buildNullTable(t, 6*mal.MinChunkRows)
	queries := []string{
		"SELECT grp, sum(i), count(i), count(*), min(i), max(i), avg(i) FROM nums GROUP BY grp",
		"SELECT grp, sum(i) FROM nums WHERE i % 3 = 0 GROUP BY grp",
		"SELECT grp, i % 5, count(*) FROM nums GROUP BY grp, i % 5",
		"SELECT grp, avg(i) FROM nums WHERE i < 0 GROUP BY grp", // empty input
	}
	for _, q := range queries {
		p := planFor(t, cat, q)
		par := &Engine{Cat: cat, Parallel: true, MaxThreads: 4}
		ser := &Engine{Cat: cat, Parallel: false}
		r1, err := par.Execute(p)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		r2, err := ser.Execute(p)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if r1.NumRows() != r2.NumRows() {
			t.Fatalf("%s: %d vs %d rows", q, r1.NumRows(), r2.NumRows())
		}
		for c := range r1.Cols {
			for i := 0; i < r1.NumRows(); i++ {
				a, b := r1.Cols[c].Value(i), r2.Cols[c].Value(i)
				if a.String() != b.String() {
					t.Fatalf("%s: cell (%d,%d) %s vs %s", q, i, c, a, b)
				}
			}
		}
	}
}

// The grouped mitosis path shows up in the trace: chunked split, parallel
// merge grouping, and merged aggregates.
func TestParallelGroupedAggTraceShape(t *testing.T) {
	cat := buildTable(t, 6*mal.MinChunkRows)
	trace := &mal.Program{}
	e := &Engine{Cat: cat, Parallel: true, MaxThreads: 4, Trace: trace}
	res, err := e.Execute(planFor(t, cat, "SELECT grp, sum(i) FROM nums GROUP BY grp"))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Fatalf("want 3 groups, got %d", res.NumRows())
	}
	out := trace.String()
	if trace.Count("optimizer.mitosis") == 0 {
		t.Fatalf("no mitosis in trace:\n%s", out)
	}
	if !strings.Contains(out, "parallel merge") {
		t.Fatalf("no parallel merge grouping in trace:\n%s", out)
	}
	if !strings.Contains(out, "aggr.SUM") {
		t.Fatalf("no merged SUM in trace:\n%s", out)
	}
	// MEDIAN and DISTINCT take the same path, merged as blocking steps, and
	// agree with the serial engine.
	for _, q := range []string{
		"SELECT grp, median(i) FROM nums GROUP BY grp",
		"SELECT grp, count(distinct i) FROM nums GROUP BY grp",
	} {
		trace2 := &mal.Program{}
		e2 := &Engine{Cat: cat, Parallel: true, MaxThreads: 4, Trace: trace2}
		par, err := e2.Execute(planFor(t, cat, q))
		if err != nil {
			t.Fatal(err)
		}
		if out := trace2.String(); !strings.Contains(out, "parallel merge") || !strings.Contains(out, "(blocking)") {
			t.Fatalf("%s: not the parallel grouped path with a blocking merge:\n%s", q, out)
		}
		ser, err := (&Engine{Cat: cat}).Execute(planFor(t, cat, q))
		if err != nil {
			t.Fatal(err)
		}
		if s, p := strings.Join(resultRows(ser), "\n"), strings.Join(resultRows(par), "\n"); s != p {
			t.Fatalf("%s: serial\n%s\nparallel\n%s", q, s, p)
		}
	}
}

// Index use shows up in the trace, and disabling indexes removes it without
// changing results.
func TestIndexTraceAndEquivalence(t *testing.T) {
	cat := buildTable(t, 4096)
	q := "SELECT count(*) FROM nums WHERE i = 100"
	withIdx := &mal.Program{}
	e1 := &Engine{Cat: cat, Trace: withIdx}
	r1, err := e1.Execute(planFor(t, cat, q))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(withIdx.String(), "hashidx") {
		t.Fatalf("hash index not used:\n%s", withIdx)
	}
	noIdx := &mal.Program{}
	e2 := &Engine{Cat: cat, NoIndexes: true, Trace: noIdx}
	r2, err := e2.Execute(planFor(t, cat, q))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(noIdx.String(), "hashidx") {
		t.Fatal("NoIndexes engine still used the index")
	}
	if r1.Cols[0].I64[0] != r2.Cols[0].I64[0] {
		t.Fatal("index changed the result")
	}
}

func TestEngineTimeout(t *testing.T) {
	cat := buildTable(t, 100000)
	e := &Engine{Cat: cat, Timeout: time.Nanosecond}
	_, err := e.Execute(planFor(t, cat, "SELECT grp, sum(i) FROM nums GROUP BY grp"))
	if err == nil {
		t.Fatal("expected timeout")
	}
}

// SelectRows is what DELETE and UPDATE read: the rows passing the predicate
// through the scan, and the SET expressions evaluated over those rows.
func TestSelectRowsHelper(t *testing.T) {
	cat := buildTable(t, 100)
	e := &Engine{Cat: cat}
	st, _ := sqlparse.ParseOne("UPDATE nums SET i = i * 2 WHERE i < 10")
	up, err := plan.BindUpdate(cat, st.(*sqlparse.UpdateStmt), nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, vals, err := e.SelectRows("nums", up.Pred, up.SetExprs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 || rows[9] != 9 || len(vals) != 1 || vals[0].Len() != 10 || vals[0].I32[9] != 18 {
		t.Fatalf("select rows: %v %v", rows, vals)
	}
	all, _, err := e.SelectRows("nums", nil, nil)
	if err != nil || len(all) != 100 {
		t.Fatalf("all rows: %d %v", len(all), err)
	}
	if _, _, err := e.SelectRows("nope", nil, nil); err == nil {
		t.Fatal("no error for a missing table")
	}
}

// crossPairs and joinPairs must reject pair counts beyond int32 row
// addressing instead of silently truncating selection vectors. The guards
// run before any allocation, so the regression test can use row counts whose
// product overflows without materializing gigabytes of pairs.
func TestCrossProductOverflowGuard(t *testing.T) {
	if _, _, err := (&Engine{}).crossPairs(70000, 70000); err == nil {
		t.Fatal("70000 x 70000 cross product must be rejected (4.9e9 pairs)")
	}
	// The guard must also catch products that overflow int64 multiplication
	// ranges on the way to the check.
	if _, _, err := (&Engine{}).crossPairs(1<<31, 1<<31); err == nil {
		t.Fatal("2^31 x 2^31 cross product must be rejected")
	}
	if ls, rs, err := (&Engine{}).crossPairs(3, 2); err != nil || len(ls) != 6 || len(rs) != 6 {
		t.Fatalf("small cross product broken: %d pairs, err %v", len(ls), err)
	}
	// Degenerate sides stay legal.
	if _, _, err := (&Engine{}).crossPairs(0, 1<<40); err != nil {
		t.Fatalf("empty side rejected: %v", err)
	}
	if err := checkPairCount(math.MaxInt32); err != nil {
		t.Fatalf("MaxInt32 pairs must pass: %v", err)
	}
	if err := checkPairCount(math.MaxInt32 + 1); err == nil {
		t.Fatal("MaxInt32+1 pairs must fail")
	}
	// joinPairs applies the same guard to its pair lists; small inputs pass.
	lsel := make([]int32, 10)
	rsel := make([]int32, 10)
	if _, err := joinPairs(denseBatch(nil, 10), denseBatch(nil, 10), lsel, rsel, true, false); err != nil {
		t.Fatalf("small joinPairs: %v", err)
	}
}

// BenchmarkHashJoinParallel: end-to-end parallel join through the engine
// (partitioned build + chunked probe). Run once per CI build so wall-clock
// regressions surface in the logs.
func BenchmarkHashJoinParallel(b *testing.B) {
	n, nr := 1<<18, 1<<14
	lt := storage.NewMemoryTable(storage.TableMeta{Name: "l", Cols: []storage.ColDef{
		{Name: "k1", Typ: mtypes.Int}, {Name: "kpay", Typ: mtypes.BigInt}}})
	rt := storage.NewMemoryTable(storage.TableMeta{Name: "r", Cols: []storage.ColDef{
		{Name: "j1", Typ: mtypes.Int}, {Name: "jpay", Typ: mtypes.BigInt}}})
	lk, lp := vec.New(mtypes.Int, n), vec.New(mtypes.BigInt, n)
	for i := 0; i < n; i++ {
		lk.I32[i] = int32(i % nr)
		lp.I64[i] = int64(i)
	}
	rk, rp := vec.New(mtypes.Int, nr), vec.New(mtypes.BigInt, nr)
	for i := 0; i < nr; i++ {
		rk.I32[i] = int32(i)
		rp.I64[i] = int64(i)
	}
	lt.Append([]*vec.Vector{lk, lp}, 1)
	rt.Append([]*vec.Vector{rk, rp}, 1)
	cat := memCatalog{"l": lt, "r": rt}
	p := planForBench(b, cat, "SELECT sum(kpay), sum(jpay), count(*) FROM l, r WHERE l.k1 = r.j1")
	e := &Engine{Cat: cat, Parallel: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Execute(p)
		if err != nil {
			b.Fatal(err)
		}
		if res.NumRows() != 1 {
			b.Fatal("bad result")
		}
	}
	b.SetBytes(int64(n * 12))
}

func planForBench(b *testing.B, cat memCatalog, sql string) plan.Node {
	b.Helper()
	st, err := sqlparse.ParseOne(sql)
	if err != nil {
		b.Fatal(err)
	}
	q, err := plan.BindSelect(cat, st.(*sqlparse.SelectStmt), nil)
	if err != nil {
		b.Fatal(err)
	}
	return q.Plan
}
