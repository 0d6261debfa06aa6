package exec

import (
	"math/rand"
	"strings"
	"testing"

	"monetlite/internal/mal"
	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
	"monetlite/internal/sqlparse"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
)

// windowCatalog builds the canonical window test table:
//
//	k  v
//	a  3, a 1, a 2, b 5, b 5, b 1, c NULL, c 4
func windowCatalog(t testing.TB) memCatalog {
	t.Helper()
	ks := []string{"a", "a", "a", "b", "b", "b", "c", "c"}
	vs := []int32{3, 1, 2, 5, 5, 1, mtypes.NullInt32, 4}
	kv := vec.New(mtypes.Varchar, len(ks))
	vv := vec.New(mtypes.Int, len(vs))
	copy(kv.Str, ks)
	copy(vv.I32, vs)
	tbl := storage.NewMemoryTable(storage.TableMeta{Name: "t", Cols: []storage.ColDef{
		{Name: "k", Typ: mtypes.Varchar}, {Name: "v", Typ: mtypes.Int}}})
	if _, err := tbl.Append([]*vec.Vector{kv, vv}, 1); err != nil {
		t.Fatal(err)
	}
	return memCatalog{"t": tbl}
}

func execRows(t *testing.T, e *Engine, p plan.Node) []string {
	t.Helper()
	res, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	return resultRows(res)
}

// The acceptance query: RANK over a descending order plus a running SUM over
// the ascending one — two specs, two Window nodes — against hand-computed
// results, identical on the serial and (forced multi-group) parallel engines.
func TestWindowRankAndRunningSum(t *testing.T) {
	cat := windowCatalog(t)
	p := planFor(t, cat,
		`SELECT k, v, rank() OVER (PARTITION BY k ORDER BY v DESC), sum(v) OVER (PARTITION BY k ORDER BY v) FROM t`)
	// Partition a: v=3,1,2 -> desc ranks 1,3,2; running asc sums 6,1,3.
	// Partition b: v=5,5,1 -> desc ranks 1,1,3 (tie); running sums 11,11,1.
	// Partition c: v=NULL,4 -> desc ranks 2,1 (NULL last desc); sums NULL,4.
	want := []string{
		"a|3|1|6|", "a|1|3|1|", "a|2|2|3|",
		"b|5|1|11|", "b|5|1|11|", "b|1|3|1|",
		"c|NULL|2|NULL|", "c|4|1|4|",
	}
	for _, cfg := range []struct {
		label string
		e     *Engine
	}{
		{"serial", &Engine{Cat: cat, Parallel: false}},
		{"parallel", &Engine{Cat: cat, Parallel: true, MaxThreads: 4, testChunkRows: 2}},
	} {
		got := execRows(t, cfg.e, p)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d: %v", cfg.label, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d = %q, want %q", cfg.label, i, got[i], want[i])
			}
		}
	}
}

// Two same-spec window calls must share one Window node and therefore one
// physical sort; distinct specs sort separately.
func TestWindowSpecSharing(t *testing.T) {
	cat := windowCatalog(t)
	run := func(sql string) *mal.Program {
		trace := &mal.Program{}
		e := &Engine{Cat: cat, Trace: trace}
		if _, err := e.Execute(planFor(t, cat, sql)); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	shared := run(`SELECT rank() OVER (PARTITION BY k ORDER BY v), sum(v) OVER (PARTITION BY k ORDER BY v) FROM t`)
	if n := shared.Count("algebra.windowsort"); n != 1 {
		t.Fatalf("same-spec windows sorted %d times, want 1:\n%s", n, shared)
	}
	if n := shared.Count("algebra.window"); n != 1 {
		t.Fatalf("same-spec windows ran %d Window operators, want 1:\n%s", n, shared)
	}
	split := run(`SELECT rank() OVER (PARTITION BY k ORDER BY v DESC), sum(v) OVER (PARTITION BY k ORDER BY v) FROM t`)
	if n := split.Count("algebra.windowsort"); n != 2 {
		t.Fatalf("distinct-spec windows sorted %d times, want 2:\n%s", n, split)
	}
	// Duplicate calls of one function collapse to a single computation.
	dup := planFor(t, cat, `SELECT rank() OVER (PARTITION BY k ORDER BY v), rank() OVER (PARTITION BY k ORDER BY v) FROM t`)
	found := false
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if w, ok := n.(*plan.Window); ok {
			found = true
			if len(w.Calls) != 1 {
				t.Fatalf("duplicate calls not deduplicated: %d", len(w.Calls))
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(dup)
	if !found {
		t.Fatalf("no Window node in plan:\n%s", plan.PlanString(dup))
	}
}

// A window over input the optimizer knows is already ordered compatibly (the
// derived table's TopN keys are the window's order keys) skips its physical
// sort — and still returns exactly what the sorting path returns.
func TestWindowSortElision(t *testing.T) {
	cat := windowCatalog(t)
	p := planFor(t, cat,
		`SELECT k, v, row_number() OVER (ORDER BY k, v DESC) FROM (SELECT * FROM t ORDER BY k, v DESC LIMIT 6) d`)
	if ps := plan.PlanString(p); !strings.Contains(ps, "sortfree") {
		t.Fatalf("window sort not elided:\n%s", ps)
	}
	trace := &mal.Program{}
	e := &Engine{Cat: cat, Trace: trace}
	got := execRows(t, e, p)
	if trace.Count("algebra.windowsort") != 0 {
		t.Fatalf("elided window still sorted:\n%s", trace)
	}
	// The derived table is ordered by (k, v desc): a asc ranks rows 1..6.
	want := []string{"a|3|1|", "a|2|2|", "a|1|3|", "b|5|4|", "b|5|5|", "b|1|6|"}
	if len(got) != len(want) {
		t.Fatalf("rows: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %q, want %q", i, got[i], want[i])
		}
	}
	// A window needing a different order must NOT elide.
	p2 := planFor(t, cat,
		`SELECT k, v, row_number() OVER (ORDER BY v) FROM (SELECT * FROM t ORDER BY k LIMIT 6) d`)
	if ps := plan.PlanString(p2); strings.Contains(ps, "sortfree") {
		t.Fatalf("incompatible ordering elided:\n%s", ps)
	}
}

// COUNT accepts non-numeric arguments (counting only needs the null test —
// regression: the kernel once routed every COUNT argument through the
// integer accumulation view, which panics on VARCHAR).
func TestWindowCountNonNumericArg(t *testing.T) {
	cat := windowCatalog(t)
	p := planFor(t, cat, `SELECT k, count(k) OVER (PARTITION BY k), min(k) OVER (PARTITION BY k ORDER BY v) FROM t`)
	got := execRows(t, &Engine{Cat: cat}, p)
	want := []string{
		"a|3|a|", "a|3|a|", "a|3|a|",
		"b|3|b|", "b|3|b|", "b|3|b|",
		"c|2|c|", "c|2|c|",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

// Absurd literal frame offsets must saturate, not wrap: an offset of
// MaxInt64 FOLLOWING reads as "to the end of the partition" on every row.
func TestWindowFrameOffsetSaturates(t *testing.T) {
	cat := windowCatalog(t)
	p := planFor(t, cat, `SELECT k, v,
		count(*) OVER (PARTITION BY k ORDER BY v ROWS BETWEEN CURRENT ROW AND 9223372036854775807 FOLLOWING),
		sum(v) OVER (PARTITION BY k ORDER BY v ROWS BETWEEN 9223372036854775807 PRECEDING AND CURRENT ROW)
	FROM t`)
	// Partition a sorted 1,2,3; b sorted 1,5,5; c sorted NULL,4: the first
	// frame counts the current row to partition end, the second is a plain
	// running sum (unreachably distant PRECEDING start).
	want := []string{
		"a|3|1|6|", "a|1|3|1|", "a|2|2|3|",
		"b|5|2|6|", "b|5|1|11|", "b|1|3|1|",
		"c|NULL|2|NULL|", "c|4|1|4|",
	}
	got := execRows(t, &Engine{Cat: cat}, p)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

// Windows over aggregated output: the window's ORDER BY references an
// aggregate result, so the Window node sits above the Aggregate.
func TestWindowOverGroupBy(t *testing.T) {
	cat := windowCatalog(t)
	p := planFor(t, cat,
		`SELECT k, sum(v) AS total, rank() OVER (ORDER BY sum(v) DESC) FROM t GROUP BY k`)
	got := execRows(t, &Engine{Cat: cat}, p)
	// totals: a=6, b=11, c=4 -> desc ranks b=1, a=2, c=3 (group order a,b,c).
	want := []string{"a|6|2|", "b|11|1|", "c|4|3|"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

// LAG/LEAD offsets and defaults, plus an explicit sliding ROWS frame.
func TestWindowLagLeadAndFrames(t *testing.T) {
	cat := windowCatalog(t)
	p := planFor(t, cat, `SELECT k, v,
		lag(v) OVER (PARTITION BY k ORDER BY v),
		lead(v, 2, -1) OVER (PARTITION BY k ORDER BY v),
		sum(v) OVER (PARTITION BY k ORDER BY v ROWS BETWEEN 1 PRECEDING AND CURRENT ROW),
		count(*) OVER (PARTITION BY k)
	FROM t`)
	// Partition a sorted: 1,2,3; b: 1,5,5; c: NULL,4 (NULL first asc).
	want := []string{
		"a|3|2|-1|5|3|",          // lag(3)=2; lead2 past end -> -1; sum(2,3)=5
		"a|1|NULL|3|1|3|",        // first row: lag NULL; lead2=3; sum(1)=1
		"a|2|1|-1|3|3|",          // lag=1; lead2 past end -> -1; sum(1,2)=3
		"b|5|1|-1|6|3|",          // first 5 (input order breaks tie): lag=1, sum(1,5)=6
		"b|5|5|-1|10|3|",         // second 5: lag=first 5, sum(5,5)=10
		"b|1|NULL|5|1|3|",        // lead(1,2) = second 5
		"c|NULL|NULL|-1|NULL|2|", // NULL first: sum over {NULL} = NULL
		"c|4|NULL|-1|4|2|",       // lag = the NULL row's v; sum(NULL,4)=4
	}
	got := execRows(t, &Engine{Cat: cat}, p)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

// Window functions are rejected outside the select list.
func TestWindowPlacementErrors(t *testing.T) {
	cat := windowCatalog(t)
	for _, sql := range []string{
		`SELECT k FROM t WHERE rank() OVER (ORDER BY v) = 1`,
		`SELECT k, count(*) FROM t GROUP BY k HAVING rank() OVER (ORDER BY k) = 1`,
		`SELECT k FROM t GROUP BY rank() OVER (ORDER BY v)`,
		`SELECT median(v) OVER (PARTITION BY k) FROM t`,
		`SELECT sum(DISTINCT v) OVER (PARTITION BY k) FROM t`,
		`SELECT rank(v) OVER (ORDER BY v) FROM t`,
		`SELECT lag(v) OVER (ORDER BY v ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) FROM t`,
		// Nesting and window-inside-aggregate must be clean bind errors, not
		// leaked placeholders that crash the optimizer.
		`SELECT sum(v) OVER (ORDER BY rank() OVER (ORDER BY v)) FROM t`,
		`SELECT lag(v, 1, rank() OVER (ORDER BY v)) OVER (ORDER BY v) FROM t`,
		`SELECT sum(rank() OVER (ORDER BY v)) FROM t`,
	} {
		st, err := sqlparse.ParseOne(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, err := plan.BindSelect(cat, st.(*sqlparse.SelectStmt), nil); err == nil {
			t.Errorf("BindSelect(%q) should fail", sql)
		}
	}
}

// A window big enough for mal.Split to fan out naturally must agree
// with the serial engine row for row and emit the partition fan-out marker.
func TestParallelWindowNaturalChunking(t *testing.T) {
	n := 3 * mal.MinChunkRows
	rng := rand.New(rand.NewSource(11))
	k := vec.New(mtypes.Int, n)
	v := vec.New(mtypes.BigInt, n)
	for i := 0; i < n; i++ {
		k.I32[i] = int32(rng.Intn(257)) // many partitions spanning worker groups
		v.I64[i] = int64(rng.Intn(1000))
	}
	tbl := storage.NewMemoryTable(storage.TableMeta{Name: "w", Cols: []storage.ColDef{
		{Name: "k", Typ: mtypes.Int}, {Name: "v", Typ: mtypes.BigInt}}})
	if _, err := tbl.Append([]*vec.Vector{k, v}, 1); err != nil {
		t.Fatal(err)
	}
	cat := memCatalog{"w": tbl}
	p := planFor(t, cat,
		`SELECT k, v, row_number() OVER (PARTITION BY k ORDER BY v), sum(v) OVER (PARTITION BY k ORDER BY v) FROM w`)

	ser := execRows(t, &Engine{Cat: cat, Parallel: false}, p)
	trace := &mal.Program{}
	par := execRows(t, &Engine{Cat: cat, Parallel: true, MaxThreads: 4, Trace: trace}, p)
	if !strings.Contains(trace.String(), "chunks (window)") {
		t.Fatalf("parallel engine did not fan partitions out:\n%s", trace)
	}
	if len(ser) != len(par) {
		t.Fatalf("serial %d rows, parallel %d", len(ser), len(par))
	}
	for i := range ser {
		if ser[i] != par[i] {
			t.Fatalf("row %d differs: serial %q parallel %q", i, ser[i], par[i])
		}
	}
}

// ---------------------------------------------------------------------------
// Benchmarks (run once by CI's bench smoke step).
// ---------------------------------------------------------------------------

func benchWindowCatalog(b *testing.B, n int) memCatalog {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	k := vec.New(mtypes.Int, n)
	v := vec.New(mtypes.BigInt, n)
	for i := 0; i < n; i++ {
		k.I32[i] = int32(rng.Intn(512))
		v.I64[i] = int64(rng.Intn(1 << 20))
	}
	tbl := storage.NewMemoryTable(storage.TableMeta{Name: "w", Cols: []storage.ColDef{
		{Name: "k", Typ: mtypes.Int}, {Name: "v", Typ: mtypes.BigInt}}})
	if _, err := tbl.Append([]*vec.Vector{k, v}, 1); err != nil {
		b.Fatal(err)
	}
	return memCatalog{"w": tbl}
}

func benchmarkWindowQuery(b *testing.B, sql string, parallel bool) {
	n := 1 << 18
	cat := benchWindowCatalog(b, n)
	p := planForBench(b, cat, sql)
	e := &Engine{Cat: cat, Parallel: parallel}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(p); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(n) * 12)
}

// BenchmarkWindowRank: RANK over 512 partitions of 256k rows — the sort-code
// sort plus the rank kernel.
func BenchmarkWindowRank(b *testing.B) {
	benchmarkWindowQuery(b, `SELECT k, rank() OVER (PARTITION BY k ORDER BY v DESC) FROM w`, true)
}

func BenchmarkWindowRankSerial(b *testing.B) {
	benchmarkWindowQuery(b, `SELECT k, rank() OVER (PARTITION BY k ORDER BY v DESC) FROM w`, false)
}

// BenchmarkWindowRunningSum: the peer-inclusive running SUM (default frame).
func BenchmarkWindowRunningSum(b *testing.B) {
	benchmarkWindowQuery(b, `SELECT k, sum(v) OVER (PARTITION BY k ORDER BY v) FROM w`, true)
}

func BenchmarkWindowRunningSumSerial(b *testing.B) {
	benchmarkWindowQuery(b, `SELECT k, sum(v) OVER (PARTITION BY k ORDER BY v) FROM w`, false)
}
