package monetlite

import (
	"fmt"
	"strings"
	"testing"
)

// -0.0 and +0.0 are one value to SQL, and neither is NULL: grouping,
// DISTINCT, joins and the hash index must all treat them as one key.
func TestNegativeZeroKeys(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, "CREATE TABLE t (x DOUBLE, k INT)")
	mustExec(t, c, "CREATE TABLE u (y DOUBLE)")
	mustExec(t, c, "INSERT INTO t VALUES (-0e0, 1), (NULL, 2), (0e0, 3), (1e0, 4)")
	mustExec(t, c, "INSERT INTO u VALUES (0e0), (-0e0)")

	// A group is (is NULL, is zero, count): -0.0 prints as -0 or 0
	// depending on which row represents the group, so only its zeroness is
	// checked.
	kind := func(r *Result, i int) string {
		switch f := r.Column(0).AsFloats()[i]; {
		case r.Column(0).IsNull(i):
			return "NULL"
		case f == 0:
			return "zero"
		default:
			return fmt.Sprint(f)
		}
	}
	res := mustQuery(t, c, "SELECT x, count(*) FROM t GROUP BY x")
	var groups []string
	for i := 0; i < res.NumRows(); i++ {
		groups = append(groups, fmt.Sprintf("%s:%d", kind(res, i), res.Column(1).AsInts()[i]))
	}
	if got := strings.Join(groups, " "); got != "zero:2 NULL:1 1:1" {
		t.Fatalf("GROUP BY x = %s, want zero:2 NULL:1 1:1", got)
	}
	if got := mustQuery(t, c, "SELECT count(DISTINCT x) FROM t").Column(0).AsInts()[0]; got != 2 {
		t.Fatalf("count(DISTINCT x) = %d, want 2", got)
	}
	res = mustQuery(t, c, "SELECT DISTINCT x FROM t")
	var distinct []string
	for i := 0; i < res.NumRows(); i++ {
		distinct = append(distinct, kind(res, i))
	}
	if got := strings.Join(distinct, " "); got != "zero NULL 1" {
		t.Fatalf("DISTINCT x = %s, want zero NULL 1", got)
	}
	if got := mustQuery(t, c, "SELECT k FROM t JOIN u ON x = y").NumRows(); got != 4 {
		t.Fatalf("t JOIN u ON x = y: %d rows, want 4", got)
	}
	c.TraceMAL = true
	if got := mustQuery(t, c, "SELECT k FROM t WHERE x = 0e0").NumRows(); got != 2 {
		t.Fatalf("WHERE x = 0e0: %d rows, want 2", got)
	}
	if tr := c.LastTrace.String(); !strings.Contains(tr, "algebra.select(hashidx)") {
		t.Fatalf("WHERE x = 0e0 did not use the hash index:\n%s", tr)
	}
}

// A SELECT without FROM, or one whose subquery has none, returns a result
// or an error through the public API — never a panic.
func TestSelectWithoutFromNoPanic(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, "CREATE TABLE t (a INT, s VARCHAR)")
	mustExec(t, c, "INSERT INTO t VALUES (1, '1.50'), (2, 'x')")
	for _, tc := range []struct {
		sql  string
		want string // result grid, or "error"
	}{
		{"SELECT 1", "1"},
		{"SELECT (SELECT max(a) FROM t)", "2"},
		{"SELECT a FROM t WHERE a IN (SELECT 1)", "1"},
		{"SELECT cast(s AS DECIMAL(5,2)) FROM t", "error"},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s panicked: %v", tc.sql, r)
				}
			}()
			got := "error"
			if res, err := c.Query(tc.sql); err == nil {
				got = strings.Join(resultGrid(res), ";")
			}
			if got != tc.want {
				t.Fatalf("%s = %s, want %s", tc.sql, got, tc.want)
			}
		}()
	}
}
