package monetlite

import (
	"errors"
	"strings"
	"testing"
)

// TestArithmeticOverflow runs statements whose results leave their SQL
// type's range through both engines, the columnar Conn.Query and the
// rowstore's volcano executor: each must fail with ErrOverflow, while
// results that fit keep their values.
//
//	t(a INT, b BIGINT, d DECIMAL(18,2)):
//	  (2147483647, 9223372036854775000, 9999999999.99)
//	  (100000,     9223372036854775000, 2.50)
func TestArithmeticOverflow(t *testing.T) {
	setup := []string{
		`CREATE TABLE t (a INT, b BIGINT, d DECIMAL(18,2))`,
		`INSERT INTO t VALUES (2147483647, 9223372036854775000, 9999999999.99), (100000, 9223372036854775000, 2.50)`,
	}
	engines := bothEngines(t, setup)
	overflows := []string{
		`SELECT sum(b) FROM t`,
		`SELECT avg(b) FROM t`,
		`SELECT b + b FROM t`,
		`SELECT b * 2 FROM t`,
		`SELECT 2 * b FROM t`,
		`SELECT d * d FROM t`,
		`SELECT a + 1 FROM t`,
		`SELECT 2147483647 + 1`,
		`SELECT a * a FROM t`,
		`SELECT cast(b AS INT) FROM t`,
		`SELECT cast(a AS SMALLINT) FROM t`,
		`SELECT -b - b FROM t`,
		`SELECT a FROM t WHERE a + a > 0`,
		`SELECT sum(a + a) FROM t`,
	}
	fits := []struct {
		q    string
		want []string
	}{
		{`SELECT abs(a - 200000) FROM t ORDER BY a`, []string{"100000", "2147283647"}},
		{`SELECT d * d FROM t WHERE a = 100000`, []string{"6.2500"}},
		{`SELECT sum(a) FROM t`, []string{"2147583647"}},
		{`SELECT sum(b - 9223372036854775000) FROM t`, []string{"0"}},
		{`SELECT cast(a AS BIGINT) * 2 FROM t ORDER BY a`, []string{"200000", "4294967294"}},
		// CASE is lazy: a branch never sees the rows it does not decide.
		{`SELECT CASE WHEN a < 1000000 THEN a + a ELSE 0 END FROM t ORDER BY a`, []string{"200000", "0"}},
		{`SELECT CASE WHEN a > 1000000 THEN 0 WHEN a + a > 5 THEN 1 END FROM t ORDER BY a`, []string{"1", "0"}},
	}
	for name, run := range engines {
		for _, q := range overflows {
			rows, err := run(q)
			if !errors.Is(err, ErrOverflow) {
				t.Errorf("%s: %s = %v, %v; want ErrOverflow", name, q, rows, err)
			}
		}
		for _, f := range fits {
			rows, err := run(f.q)
			if err != nil || strings.Join(rows, ",") != strings.Join(f.want, ",") {
				t.Errorf("%s: %s = %v, %v; want %v", name, f.q, rows, err, f.want)
			}
		}
	}
}

// TestScalarKernelDifferential holds the typed kernels of SUBSTRING, unary
// minus, ABS, UPPER, LOWER, CONCAT/|| and CASE to the rowstore's row
// evaluator: both engines must return the same rows. The table has NULLs
// in every column and an empty string; the statements use constant and
// column (vector) arguments, a start before 1 and past the end, negative and
// huge lengths, and NULL arguments.
func TestScalarKernelDifferential(t *testing.T) {
	engines := bothEngines(t, []string{
		`CREATE TABLE k (id INT, s VARCHAR(20), i INT, j SMALLINT, b BIGINT, d DECIMAL(9,2), f DOUBLE)`,
		`INSERT INTO k VALUES (1, 'hello', 2, 3, 10, 1.50, 2.5), (2, '', 0, -1, -7, -2.25, -0.5),
			(3, NULL, NULL, NULL, NULL, NULL, NULL), (4, 'MiXeD cAsE', -3, 100, 9000000000, 0.00, 0),
			(5, 'abc', 10, NULL, 5, 99.99, NULL), (6, 'x', 1, 1, -1, -0.01, -1e300)`,
	})
	exprs := []string{
		// SUBSTRING: constant and vector start and length.
		`substring(s from 2 for 3)`, `substring(s from 0 for 2)`, `substring(s from -1 for 3)`,
		`substring(s from 20)`, `substring(s from 2 for -1)`, `substring(s from 2 for 0)`,
		`substring(s from i for j)`, `substring(s from i)`, `substring(s from 1 for j)`,
		`substring(s, 2)`, `substr(s, i, 2)`, `substring(s from NULL for 2)`, `substring(s from 1 for NULL)`,
		`substring('constant' from i for j)`, `substring(s from 2 for 9223372036854775807)`,
		`substring(s from 9223372036854775807 for 2)`, `substring(s from -9223372036854775807)`,
		// Unary minus and ABS over every numeric kind.
		`-i`, `-j`, `-b`, `-d`, `-f`, `-(i + 1)`, `-NULL`, `abs(i)`, `abs(j)`, `abs(b)`, `abs(d)`, `abs(f)`,
		`abs(i - 5)`, `abs(NULL)`,
		// UPPER and LOWER.
		`upper(s)`, `lower(s)`, `upper('x' || s)`, `lower(NULL)`, `upper(substring(s from 2))`,
		// CONCAT and ||: every argument cast to VARCHAR, NULL if any is.
		`s || 'x'`, `'x' || s`, `s || i`, `i || s`, `s || d`, `concat(s, i, d)`, `concat(s, 'a', 'b')`,
		`s || NULL`, `concat(j, '-', b)`, `concat('a', s)`,
		// CASE: scalar and vector results, mixed result types, no ELSE.
		`CASE WHEN i > 1 THEN s ELSE 'neg' END`,
		`CASE WHEN i IS NULL THEN -1 WHEN i > 0 THEN i * 2 END`,
		`CASE i WHEN 2 THEN d WHEN 0 THEN 1 ELSE f END`,
		`CASE WHEN s = '' THEN NULL ELSE upper(s) END`,
		`CASE WHEN f > 0 THEN b ELSE j END`,
		`CASE WHEN d < 0 THEN d * d WHEN d > 50 THEN d END`,
		`CASE WHEN TRUE THEN s END`,
	}
	for _, e := range exprs {
		q := `SELECT id, ` + e + ` FROM k ORDER BY id`
		want, wantErr := engines["rowstore"](q)
		got, err := engines["columnar"](q)
		if wantErr != nil || err != nil {
			t.Errorf("%s: rowstore %v, columnar %v", q, wantErr, err)
			continue
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s:\ncolumnar %v\nrowstore %v", q, got, want)
		}
	}
}

// TestScalarFunctionArgumentTypes: a scalar function or unary minus over an
// argument of the wrong type is a bind error in both engines (they returned
// blank strings, the string itself, or a date in 1942), and an ORDER BY
// aggregate makes the query an aggregate one.
func TestScalarFunctionArgumentTypes(t *testing.T) {
	engines := bothEngines(t, []string{
		`CREATE TABLE t (a INT, s VARCHAR(10), d DATE)`,
		`INSERT INTO t VALUES (1, 'x', DATE '2000-01-01'), (2, 'y', DATE '2000-01-02')`,
	})
	bad := []string{
		`SELECT upper(a) FROM t`, `SELECT lower(a) FROM t`, `SELECT substring(a FROM 1 FOR 2) FROM t`,
		`SELECT substring(s FROM 'a') FROM t`, `SELECT substr(s, 1, 1.5) FROM t`, `SELECT abs(s) FROM t`,
		`SELECT -s FROM t`, `SELECT -d FROM t`, `SELECT upper(d) FROM t`, `SELECT abs(d) FROM t`,
		`SELECT d * 2 FROM t`, `SELECT 1 - d FROM t`, `SELECT d + 1.5 FROM t`,
	}
	for name, run := range engines {
		for _, q := range bad {
			if rows, err := run(q); err == nil {
				t.Errorf("%s: %s = %v, want a bind error", name, q, rows)
			}
		}
		for q, want := range map[string]string{
			`SELECT 1 FROM t ORDER BY sum(a)`:        "1",
			`SELECT count(*) FROM t ORDER BY max(s)`: "2",
			`SELECT d - 1 FROM t ORDER BY a LIMIT 1`: "1999-12-31",
		} {
			rows, err := run(q)
			if err != nil || strings.Join(rows, ",") != want {
				t.Errorf("%s: %s = %v, %v; want %s", name, q, rows, err, want)
			}
		}
	}
}
