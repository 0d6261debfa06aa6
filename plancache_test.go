package monetlite

import (
	"fmt"
	"strings"
	"testing"

	"monetlite/internal/plan"
)

func planCacheDB(t *testing.T) (*Database, *Conn) {
	t.Helper()
	db, err := OpenInMemory()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	c := db.Connect()
	if _, err := c.Exec(`CREATE TABLE pc (a INTEGER, b VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO pc VALUES (1, 'x'), (2, 'y'), (3, 'z')`); err != nil {
		t.Fatal(err)
	}
	return db, c
}

func TestPlanCacheHitOnRepeatedStatement(t *testing.T) {
	db, c := planCacheDB(t)
	c.TraceMAL = true
	const q = `SELECT a FROM pc WHERE a > 1`
	for i := 0; i < 2; i++ {
		res, err := c.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 2 {
			t.Fatalf("run %d: got %d rows, want 2", i, res.NumRows())
		}
	}
	// Second run must have been served from the plan cache, visible both in
	// the counters and in the MAL trace of the last execution.
	st := db.PlanCacheStats()
	if st.Hits < 1 || st.Misses < 1 {
		t.Fatalf("stats after repeat: %+v, want >=1 hit and >=1 miss", st)
	}
	if trace := c.LastTrace.String(); !strings.Contains(trace, "sql.plancache") ||
		!strings.Contains(trace, "hit") {
		t.Fatalf("expected sql.plancache hit in trace:\n%s", trace)
	}
}

func TestPlanCacheInvalidatedByDDL(t *testing.T) {
	db, c := planCacheDB(t)
	stmt, err := c.Prepare(`SELECT a, b FROM pc`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Fatalf("before DDL: %d rows", res.NumRows())
	}
	// DDL between two executions of the same prepared statement: the cached
	// plan's column ordinals would read the wrong (or missing) columns if it
	// survived. Recreate pc with the column order flipped.
	if _, err := c.Exec(`DROP TABLE pc`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`CREATE TABLE pc (b VARCHAR, a INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO pc VALUES ('new', 42)`); err != nil {
		t.Fatal(err)
	}
	res, err = stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("after DDL: %d rows", res.NumRows())
	}
	if got := res.Column(0).AsInts()[0]; got != 42 {
		t.Fatalf("after DDL: column a = %d, want 42 (stale plan executed?)", got)
	}
	if st := db.PlanCacheStats(); st.Invalidations < 1 {
		t.Fatalf("stats after DDL: %+v, want >=1 invalidation", st)
	}
}

// A cached plan embeds cost-based decisions (join order, build sides) made
// against the column statistics at bind time. A material data change moves
// the store's stats version, which must invalidate the cached plan so the
// next execution re-optimizes — before plans carried a stats stamp, this
// test failed with a hit where the invalidation is expected.
func TestPlanCacheInvalidatedByStatsChange(t *testing.T) {
	db, c := planCacheDB(t)
	const q = `SELECT a FROM pc WHERE a > 1`
	for i := 0; i < 2; i++ {
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	before := db.PlanCacheStats()
	if before.Hits < 1 {
		t.Fatalf("warmup should have cached the plan: %+v", before)
	}
	// Grow the table past the stats-epoch threshold (>=20% of the rows the
	// last epoch was stamped at), moving StatsVersion without any DDL.
	if _, err := c.Exec(`INSERT INTO pc VALUES (4, 'w'), (5, 'v'), (6, 'u')`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 5 {
		t.Fatalf("after insert: %d rows, want 5", res.NumRows())
	}
	after := db.PlanCacheStats()
	if after.Invalidations != before.Invalidations+1 {
		t.Fatalf("stats change did not invalidate the cached plan: before %+v after %+v", before, after)
	}
}

func TestPlanCacheSkipsParamsAndTransactions(t *testing.T) {
	db, c := planCacheDB(t)
	// Parameterized: params bind as plan constants, so the plan must not be
	// reused across different bindings.
	for _, want := range []int64{1, 2} {
		res, err := c.Query(`SELECT a FROM pc WHERE a = ?`, want)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 1 {
			t.Fatalf("param %d: %d rows", want, res.NumRows())
		}
		if got := res.Column(0).AsInts()[0]; got != want {
			t.Fatalf("param reuse bug: got %d, want %d", got, want)
		}
	}
	if st := db.PlanCacheStats(); st.PlanEntries != 0 {
		t.Fatalf("parameterized query cached a plan: %+v", st)
	}
	// Inside an explicit transaction plans are not cached either (the
	// snapshot may predate concurrent DDL).
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT b FROM pc`); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := db.PlanCacheStats(); st.PlanEntries != 0 {
		t.Fatalf("in-transaction query cached a plan: %+v", st)
	}
}

func TestPreparedStatementRebindsParams(t *testing.T) {
	_, c := planCacheDB(t)
	stmt, err := c.Prepare(`SELECT b FROM pc WHERE a = ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for _, tc := range []struct {
		a int64
		b string
	}{{1, "x"}, {3, "z"}, {2, "y"}} {
		res, err := stmt.Query(tc.a)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Column(0).AsStrings()[0]; got != tc.b {
			t.Fatalf("a=%d: got %q, want %q", tc.a, got, tc.b)
		}
	}
	// Prepared DML works too.
	ins, err := c.Prepare(`INSERT INTO pc VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ins.Exec(int64(9), "w")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("prepared insert: %d rows", n)
	}
}

func TestParseCacheSharedAcrossConnections(t *testing.T) {
	db, _ := planCacheDB(t)
	c2 := db.Connect()
	// Same normalized text from another connection: the parse entry (and the
	// plan entry, once warm) are database-level and shared.
	if _, err := c2.Query("  SELECT a FROM pc;  "); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Connect().Query(`SELECT a FROM pc`); err != nil {
		t.Fatal(err)
	}
	st := db.PlanCacheStats()
	if st.Hits < 1 {
		t.Fatalf("normalized texts did not share a plan entry: %+v", st)
	}
}

// A hot set that keeps being hit must survive any number of one-off
// statements flowing through a full cache: second-chance eviction recycles
// the cold entries' slots. (Evicting whichever key map iteration yields, as
// the cache once did, loses hot entries at 1/planCacheMax per cold miss.)
func TestPlanCacheHotSetSurvivesColdMisses(t *testing.T) {
	pc := newPlanCache()
	const hot = 64
	q := &plan.BoundQuery{}
	for h := 0; h < hot; h++ {
		pc.putPlan(fmt.Sprintf("hot %d", h), q, 1, 1)
		pc.putParse(fmt.Sprintf("hot %d", h), nil)
	}
	for i := 0; i < 10*planCacheMax; i++ {
		cold := fmt.Sprintf("cold %d", i)
		if _, ok := pc.getPlan(cold, 1, 1); ok {
			t.Fatalf("cold key %d hit", i)
		}
		pc.putPlan(cold, q, 1, 1)
		pc.putParse(cold, nil)
		h := fmt.Sprintf("hot %d", i%hot)
		if _, ok := pc.getPlan(h, 1, 1); !ok {
			t.Fatalf("hot plan %q evicted after %d cold misses", h, i+1)
		}
		if _, ok := pc.getParse(h); !ok {
			t.Fatalf("hot parse %q evicted after %d cold misses", h, i+1)
		}
	}
	if n := len(pc.plans.index); n != planCacheMax {
		t.Fatalf("plan entries = %d, want the cap %d", n, planCacheMax)
	}
	// An invalidated entry leaves the ring consistent: it is gone, the rest
	// still resolve, and its slot is reusable.
	if _, ok := pc.getPlan("hot 0", 2, 1); ok {
		t.Fatal("stale schema stamp served from cache")
	}
	if _, ok := pc.getPlan("hot 0", 2, 1); ok || len(pc.plans.index) != planCacheMax-1 {
		t.Fatalf("invalidated entry still present (%d entries)", len(pc.plans.index))
	}
	for h := 1; h < hot; h++ {
		if _, ok := pc.getPlan(fmt.Sprintf("hot %d", h), 1, 1); !ok {
			t.Fatalf("hot %d lost by an unrelated invalidation", h)
		}
	}
}
