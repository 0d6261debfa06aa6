package monetlite

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"monetlite/internal/mal"
)

// DELETE and UPDATE read their rows through the query executor, so a scalar
// subquery in the WHERE clause or a SET expression evaluates once, through
// the executor's subquery cache (the statements below once dereferenced a
// nil cache, or were refused), and sees the statement's own transaction.
// Each runs in autocommit, and again inside BEGIN ... COMMIT after an INSERT;
// the final rows must survive a close and reopen.
func TestDMLScalarSubquery(t *testing.T) {
	stmts := []string{
		"DELETE FROM t WHERE a = (SELECT max(a) FROM t)",
		"UPDATE t SET b = b * 2 WHERE a >= (SELECT min(a) FROM t)",
		"DELETE FROM t WHERE b > (SELECT avg(b) FROM t)",
		"UPDATE t SET b = (SELECT max(b) FROM t) WHERE a = 1",
	}
	for _, tc := range []struct {
		name      string
		inTxn     bool
		wantN     []int64
		wantFinal []string
	}{
		// (1,10) (2,20) (3,30): drop a=3; double b; drop b > 30; b = 20.
		{"autocommit", false, []int64{1, 2, 1, 1}, []string{"1|20"}},
		// The transaction also inserted (4,40): drop a=4; double b; drop
		// b > 40; b = 40.
		{"transaction", true, []int64{1, 3, 1, 1}, []string{"1|40", "2|40"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			db, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			c := db.Connect()
			mustExec(t, c, "CREATE TABLE t (a INTEGER, b INTEGER)")
			mustExec(t, c, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
			if tc.inTxn {
				mustExec(t, c, "BEGIN")
				mustExec(t, c, "INSERT INTO t VALUES (4, 40)")
			}
			for i, s := range stmts {
				if n := mustExec(t, c, s); n != tc.wantN[i] {
					t.Fatalf("%s: %d rows, want %d", s, n, tc.wantN[i])
				}
			}
			if tc.inTxn {
				mustExec(t, c, "COMMIT")
			}
			check := func(db *Database, when string) {
				t.Helper()
				got := resultGrid(mustQuery(t, db.Connect(), "SELECT a, b FROM t ORDER BY a"))
				if !slices.Equal(got, tc.wantFinal) {
					t.Fatalf("%s: rows %v, want %v", when, got, tc.wantFinal)
				}
			}
			check(db, "before close")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			check(db2, "after reopen")
		})
	}
}

// A point DELETE selects its row through the hash index, as the same WHERE
// in a SELECT would, a constant of another type included; a DELETE whose
// context is already cancelled returns context.Canceled and deletes nothing.
func TestDMLReadsThroughExecutor(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, "CREATE TABLE orders (o_orderkey INTEGER, o_custkey INTEGER)")
	var vals []string
	for k := 1; k <= 1000; k++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", k, k%37))
	}
	mustExec(t, c, "INSERT INTO orders VALUES "+strings.Join(vals, ", "))

	c.TraceMAL = true
	if n := mustExec(t, c, "DELETE FROM orders WHERE o_orderkey = 500"); n != 1 {
		t.Fatalf("point delete: %d rows", n)
	}
	if tr := c.LastTrace.String(); !strings.Contains(tr, "algebra.select(hashidx)") {
		t.Fatalf("point delete did not use the hash index:\n%s", tr)
	}
	// A constant of another type selects what the general evaluator would:
	// 7.0 is the integer 7 to the hash index, and 7.5 matches no row.
	for k, want := range map[string]int64{"7.0": 1, "7.5": 0} {
		if n := mustExec(t, c, "DELETE FROM orders WHERE o_orderkey = "+k); n != want {
			t.Fatalf("DELETE ... o_orderkey = %s: %d rows, want %d", k, n, want)
		}
	}
	c.TraceMAL = false

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.QueryContext(ctx, "DELETE FROM orders WHERE o_custkey > 3"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled delete: want context.Canceled, got %v", err)
	}
	if got := resultGrid(mustQuery(t, c, "SELECT count(*) FROM orders")); got[0] != "998" {
		t.Fatalf("cancelled delete removed rows: count %v", got)
	}
}

// DELETE and UPDATE over a table large enough to split: the scan fans out
// over mitosis workers (CI runs this under -race), and the rows each
// statement touches are exactly those a serial reading would.
func TestDMLMitosis(t *testing.T) {
	const n = 3 * mal.MinChunkRows
	db, err := OpenInMemory(Config{Parallel: true, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := db.Connect()
	mustExec(t, c, "CREATE TABLE big (k INTEGER, v INTEGER)")
	ks, vs := make([]int32, n), make([]int32, n)
	for i := range ks {
		ks[i], vs[i] = int32(i), 1
	}
	if err := c.Append("big", ks, vs); err != nil {
		t.Fatal(err)
	}
	c.TraceMAL = true
	if got := mustExec(t, c, "UPDATE big SET v = v + k % 3 WHERE k % 3 > 0"); got != n/3*2 {
		t.Fatalf("update: %d rows, want %d", got, n/3*2)
	}
	if tr := c.LastTrace.String(); !strings.Contains(tr, "chunks (scan)") {
		t.Fatalf("update did not split its scan:\n%s", tr)
	}
	if got := mustExec(t, c, "DELETE FROM big WHERE v = 2"); got != n/3 {
		t.Fatalf("delete: %d rows, want %d", got, n/3)
	}
	c.TraceMAL = false
	// Left: k % 3 = 0 with v = 1, and k % 3 = 2 with v = 3.
	if got := resultGrid(mustQuery(t, c, "SELECT count(*), sum(v), min(k % 3) FROM big")); got[0] != fmt.Sprintf("%d|%d|0", n/3*2, n/3*4) {
		t.Fatalf("after update and delete: %v", got)
	}
}
