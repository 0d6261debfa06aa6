package monetlite

import (
	"strings"
	"testing"
)

// TestAggregateContextExpressions runs every expression form over aggregate
// results (select list, HAVING, ORDER BY, a correlated scalar subquery's
// item) and correlated predicates of every shape through both engines: the
// columnar Conn.Query and the rowstore's volcano executor. The expected rows
// are computed by hand from the two tables below, not taken from either
// engine.
//
//	t(g, x, d, s): (1, -5, 1998-01-01, 'abc'), (1, 3, 1998-02-01, 'xyz'),
//	               (2, 7, 1997-05-05, 'hello')
//	u(g, y):       (1, 10), (2, 20), (3, 30)
//
// Per group: g=1 has sum(x) -2, min(x) -5, max(x) 3, count 2, min(d)
// 1998-01-01, max(d) 1998-02-01, min(s) 'abc', max(s) 'xyz'; g=2 has sum(x)
// 7 and one row.
func TestAggregateContextExpressions(t *testing.T) {
	setup := []string{
		`CREATE TABLE t (g INT, x INT, d DATE, s VARCHAR(20))`,
		`INSERT INTO t VALUES (1, -5, DATE '1998-01-01', 'abc'), (1, 3, DATE '1998-02-01', 'xyz'), (2, 7, DATE '1997-05-05', 'hello')`,
		`CREATE TABLE u (g INT, y INT)`,
		`INSERT INTO u VALUES (1, 10), (2, 20), (3, 30)`,
	}
	engines := bothEngines(t, setup)

	cases := []struct {
		q    string
		want []string
	}{
		// Scalar functions, SUBSTRING and INTERVAL arithmetic over
		// aggregates, in the select list and in HAVING.
		{`SELECT g, abs(sum(x)) FROM t GROUP BY g ORDER BY g`, []string{"1|2", "2|7"}},
		{`SELECT g, upper(max(s)) FROM t GROUP BY g ORDER BY g`, []string{"1|XYZ", "2|HELLO"}},
		{`SELECT g, sqrt(sum(x) + 2) FROM t GROUP BY g ORDER BY g`, []string{"1|0", "2|3"}},
		{`SELECT g, concat(min(s), max(s)) FROM t GROUP BY g ORDER BY g`, []string{"1|abcxyz", "2|hellohello"}},
		{`SELECT g, substring(max(s) FROM 1 FOR 2) FROM t GROUP BY g ORDER BY g`, []string{"1|xy", "2|he"}},
		{`SELECT g, max(d) + INTERVAL '1' DAY FROM t GROUP BY g ORDER BY g`, []string{"1|1998-02-02", "2|1997-05-06"}},
		{`SELECT g FROM t GROUP BY g HAVING max(d) > DATE '1998-01-01' - INTERVAL '1' DAY`, []string{"1"}},
		{`SELECT g FROM t GROUP BY g HAVING abs(sum(x)) > 5`, []string{"2"}},
		{`SELECT g, min(d) - INTERVAL '1' MONTH FROM t GROUP BY g ORDER BY g`, []string{"1|1997-12-01", "2|1997-04-05"}},
		{`SELECT abs(min(x)) + abs(max(x)) FROM t`, []string{"12"}},
		// ORDER BY under aggregation: a selected aggregate, unselected
		// aggregates (hidden sort columns), an expression over a group key,
		// and an unselected aggregate beside a window call (the Aggregate
		// output it adds lands below the Window node).
		{`SELECT g, count(*) FROM t GROUP BY g ORDER BY count(*) DESC`, []string{"1|2", "2|1"}},
		{`SELECT g FROM t GROUP BY g ORDER BY sum(x) DESC`, []string{"2", "1"}},
		{`SELECT g FROM t GROUP BY g ORDER BY g + 1 DESC`, []string{"2", "1"}},
		{`SELECT g, max(s) FROM t GROUP BY g ORDER BY min(x) DESC`, []string{"2|hello", "1|xyz"}},
		{`SELECT g, sum(sum(x)) OVER () FROM t GROUP BY g ORDER BY max(x) DESC`, []string{"2|5", "1|5"}},
		// Correlated scalar-subquery items: g=1 gives 2 (abs), 0 (CASE) and
		// 1998-02-02; g=2 gives 7, 7 and 1997-05-06; g=3 has no group.
		{`SELECT u.g FROM u WHERE u.y > (SELECT abs(sum(t.x)) * 3 FROM t WHERE t.g = u.g)`, []string{"1"}},
		{`SELECT u.g FROM u WHERE u.y < (SELECT CASE WHEN sum(t.x) > 0 THEN sum(t.x) ELSE 0 END * 3 FROM t WHERE t.g = u.g)`, []string{"2"}},
		{`SELECT u.g FROM u WHERE DATE '1998-02-01' < (SELECT max(t.d) + INTERVAL '1' DAY FROM t WHERE t.g = u.g)`, []string{"1"}},
		// DISTINCT inside the item's aggregate was dropped: g=1 counted 2.
		{`SELECT u.g FROM u WHERE 1 = (SELECT count(DISTINCT t.g) FROM t WHERE t.g = u.g) ORDER BY u.g`, []string{"1", "2"}},
		// Correlated predicates whose outer references sit under IN, LIKE
		// and CASE.
		{`SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.g = t.g AND t.x IN (3, 7)) ORDER BY x`, []string{"3", "7"}},
		{`SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.g = t.g AND t.s LIKE 'h%') ORDER BY x`, []string{"7"}},
		{`SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.g = t.g AND CASE WHEN t.x > 0 THEN u.y ELSE 0 END > 15) ORDER BY x`, []string{"7"}},
		// Shapes that already bound before the aggregate context was one
		// binder; kept so they stay right.
		{`SELECT g, -sum(x) FROM t GROUP BY g ORDER BY g`, []string{"1|2", "2|-7"}},
		{`SELECT g, CASE WHEN sum(x) > 0 THEN 'pos' ELSE 'neg' END FROM t GROUP BY g ORDER BY g`, []string{"1|neg", "2|pos"}},
		{`SELECT g, extract(YEAR FROM max(d)) FROM t GROUP BY g ORDER BY g`, []string{"1|1998", "2|1997"}},
		{`SELECT g FROM t GROUP BY g HAVING sum(x) BETWEEN -3 AND 0`, []string{"1"}},
		{`SELECT g FROM t GROUP BY g HAVING max(s) LIKE 'h%'`, []string{"2"}},
		{`SELECT g FROM t GROUP BY g HAVING count(*) IN (2, 3)`, []string{"1"}},
		{`SELECT g, sum(sum(x)) OVER () FROM t GROUP BY g ORDER BY g`, []string{"1|5", "2|5"}},
		{`SELECT g FROM t GROUP BY g HAVING sum(x) > (SELECT min(y) FROM u) - 5`, []string{"2"}},
		{`SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE t.g = u.g AND u.y IN (10, 20)) ORDER BY x`, []string{"-5", "3", "7"}},
		{`SELECT DISTINCT g FROM t ORDER BY g DESC`, []string{"2", "1"}},
		// An untyped NULL is a truth value.
		{`SELECT g FROM t GROUP BY g HAVING NULL OR count(*) > 1`, []string{"1"}},
		{`SELECT g, CASE WHEN NULL THEN 1 ELSE 2 END FROM t GROUP BY g ORDER BY g`, []string{"1|2", "2|2"}},
	}
	for name, run := range engines {
		for _, tc := range cases {
			got, err := run(tc.q)
			if err != nil {
				t.Errorf("%s: %s: %v", name, tc.q, err)
				continue
			}
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Errorf("%s: %s\n  got  %q\n  want %q", name, tc.q, got, tc.want)
			}
		}
	}

	// Statements that must be errors. Under DISTINCT a sort key that is no
	// select-list output would be a hidden column below Distinct and change
	// what is distinct (it returned 1, 1, 2).
	for _, tc := range []struct{ q, msg string }{
		{`SELECT DISTINCT g FROM t ORDER BY x`, "SELECT DISTINCT"},
		{`SELECT DISTINCT g FROM t GROUP BY g ORDER BY sum(x)`, "SELECT DISTINCT"},
		{`SELECT g, x FROM t GROUP BY g`, "must appear in GROUP BY"},
		{`SELECT g FROM t GROUP BY g ORDER BY x`, "must appear in GROUP BY"},
		{`SELECT sum(sum(x)) FROM t`, "not allowed here"},
		{`SELECT g FROM t GROUP BY g HAVING sum(x) OVER () > 1`, "only allowed in the SELECT list"},
		{`SELECT u.g FROM u WHERE u.y > (SELECT sum(t.x) + t.x FROM t WHERE t.g = u.g)`, "combine aggregates and constants"},
		// Outer references the decorrelation cannot place: they were left as
		// placeholders the executors could not evaluate.
		{`SELECT u.g FROM u WHERE u.y > (SELECT sum(t.x + u.y) FROM t WHERE t.g = u.g)`, "outer reference inside an aggregate"},
		{`SELECT g FROM u WHERE g IN (SELECT u.y FROM t WHERE t.g = u.g)`, "column of its own FROM"},
		{`SELECT g FROM u WHERE EXISTS (SELECT 1 FROM t JOIN t AS t2 ON t2.g = u.g WHERE t.g = u.g)`, "cannot reference an enclosing query"},
		// Operands of the wrong type, which the executors would index as
		// the type they expect.
		{`SELECT g FROM t GROUP BY g HAVING sum(x) OR count(*) > 1`, "not a truth value"},
		{`SELECT x FROM t WHERE s OR x > 0`, "not a truth value"},
		// A non-boolean condition: the columnar engine kept no row and the
		// rowstore every row.
		{`SELECT x FROM t WHERE x`, "not a truth value"},
		{`SELECT g FROM t GROUP BY g HAVING sum(x)`, "not a truth value"},
		// The rowstore averaged day numbers and the columnar engine failed.
		{`SELECT avg(d) FROM t`, "avg over DATE is not valid"},
		{`SELECT g, NOT max(s) FROM t GROUP BY g`, "not a truth value"},
		{`SELECT u.g FROM u WHERE u.y = (SELECT CASE WHEN count(*) THEN 1 END FROM t WHERE t.g = u.g)`, "not a truth value"},
		{`SELECT extract(YEAR FROM avg(x)) FROM t`, "EXTRACT needs a DATE"},
		{`SELECT sqrt(max(s)) FROM t`, "sqrt needs a number"},
		{`SELECT sum(sqrt()) FROM t`, "wrong number of arguments"},
	} {
		for name, run := range engines {
			if _, err := run(tc.q); err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("%s: %s: err %v, want one containing %q", name, tc.q, err, tc.msg)
			}
		}
	}
}
