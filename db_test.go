package monetlite

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"monetlite/internal/rowstore"
	"monetlite/internal/txn"
)

func memDB(t *testing.T) *Database {
	t.Helper()
	db, err := OpenInMemory()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func mustExec(t *testing.T, c *Conn, sql string) int64 {
	t.Helper()
	n, err := c.Exec(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, c *Conn, sql string, args ...any) *Result {
	t.Helper()
	res, err := c.Query(sql, args...)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return res
}

// resultGrid renders a result as semicolon-joined rows for compact asserts.
func resultGrid(r *Result) []string {
	out := make([]string, r.NumRows())
	for i := range out {
		out[i] = strings.Join(r.RowStrings(i), "|")
	}
	return out
}

func TestCreateInsertSelect(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE t (a INTEGER, b VARCHAR, c DECIMAL(10,2), d DATE)`)
	n := mustExec(t, c, `INSERT INTO t VALUES
		(1, 'one', 1.50, DATE '1995-01-01'),
		(2, 'two', 2.25, DATE '1996-06-15'),
		(3, NULL, NULL, NULL)`)
	if n != 3 {
		t.Fatalf("inserted %d", n)
	}
	res := mustQuery(t, c, `SELECT a, b, c, d FROM t ORDER BY a`)
	grid := resultGrid(res)
	want := []string{"1|one|1.50|1995-01-01", "2|two|2.25|1996-06-15", "3|NULL|NULL|NULL"}
	for i := range want {
		if grid[i] != want[i] {
			t.Fatalf("row %d = %q want %q", i, grid[i], want[i])
		}
	}
}

func TestWhereAndExpressions(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE t (a INTEGER, c DECIMAL(10,2))`)
	mustExec(t, c, `INSERT INTO t VALUES (1, 10.00), (2, 20.00), (3, 30.00), (4, NULL)`)
	res := mustQuery(t, c, `SELECT a, c * (1 - 0.1) FROM t WHERE a BETWEEN 2 AND 3 ORDER BY a`)
	grid := resultGrid(res)
	if len(grid) != 2 || grid[0] != "2|18.000" || grid[1] != "3|27.000" {
		t.Fatalf("grid: %v", grid)
	}
	// NULL never matches.
	res = mustQuery(t, c, `SELECT count(*) FROM t WHERE c > 0`)
	if res.RowStrings(0)[0] != "3" {
		t.Fatalf("null filter: %v", resultGrid(res))
	}
	// IS NULL does.
	res = mustQuery(t, c, `SELECT a FROM t WHERE c IS NULL`)
	if res.NumRows() != 1 || res.RowStrings(0)[0] != "4" {
		t.Fatalf("is null: %v", resultGrid(res))
	}
}

func TestAggregatesEndToEnd(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE s (grp VARCHAR, v INTEGER)`)
	mustExec(t, c, `INSERT INTO s VALUES ('a', 1), ('a', 2), ('b', 10), ('a', 3), ('b', NULL)`)
	res := mustQuery(t, c, `
		SELECT grp, sum(v) AS total, count(*) AS n, count(v) AS nv, avg(v) AS mean, min(v), max(v)
		FROM s GROUP BY grp ORDER BY grp`)
	grid := resultGrid(res)
	if grid[0] != "a|6|3|3|2|1|3" {
		t.Fatalf("group a: %q", grid[0])
	}
	if grid[1] != "b|10|2|1|10|10|10" {
		t.Fatalf("group b: %q", grid[1])
	}
	// HAVING
	res = mustQuery(t, c, `SELECT grp FROM s GROUP BY grp HAVING sum(v) > 7`)
	if res.NumRows() != 1 || res.RowStrings(0)[0] != "b" {
		t.Fatalf("having: %v", resultGrid(res))
	}
	// Global aggregate over empty input yields one row.
	res = mustQuery(t, c, `SELECT count(*), sum(v) FROM s WHERE v > 1000`)
	if res.NumRows() != 1 || res.RowStrings(0)[0] != "0" || res.RowStrings(0)[1] != "NULL" {
		t.Fatalf("empty agg: %v", resultGrid(res))
	}
}

func TestJoins(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE l (id INTEGER, txt VARCHAR); CREATE TABLE r (id INTEGER, n INTEGER)`)
	mustExec(t, c, `INSERT INTO l VALUES (1,'x'), (2,'y'), (3,'z')`)
	mustExec(t, c, `INSERT INTO r VALUES (1,100), (1,101), (3,300), (9,900)`)
	res := mustQuery(t, c, `SELECT l.txt, r.n FROM l, r WHERE l.id = r.id ORDER BY r.n`)
	grid := resultGrid(res)
	want := []string{"x|100", "x|101", "z|300"}
	if len(grid) != 3 {
		t.Fatalf("join rows: %v", grid)
	}
	for i := range want {
		if grid[i] != want[i] {
			t.Fatalf("join: %v", grid)
		}
	}
	// Explicit JOIN ... ON with residual.
	res = mustQuery(t, c, `SELECT l.txt FROM l JOIN r ON l.id = r.id AND r.n > 100 ORDER BY r.n`)
	if res.NumRows() != 2 {
		t.Fatalf("on residual: %v", resultGrid(res))
	}
	// LEFT JOIN
	res = mustQuery(t, c, `SELECT l.txt, r.n FROM l LEFT JOIN r ON l.id = r.id ORDER BY l.id, r.n`)
	grid = resultGrid(res)
	if len(grid) != 4 || grid[3] != "y|NULL" && grid[1] != "y|NULL" {
		// y (id=2) must appear with NULL
		found := false
		for _, g := range grid {
			if g == "y|NULL" {
				found = true
			}
		}
		if !found {
			t.Fatalf("left join: %v", grid)
		}
	}
}

func TestSemiAntiJoinViaExists(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE o (ok INTEGER); CREATE TABLE li (ok INTEGER, cd INTEGER, rd INTEGER)`)
	mustExec(t, c, `INSERT INTO o VALUES (1), (2), (3)`)
	mustExec(t, c, `INSERT INTO li VALUES (1, 5, 9), (2, 9, 5), (1, 9, 9)`)
	res := mustQuery(t, c, `SELECT ok FROM o WHERE EXISTS (SELECT * FROM li WHERE li.ok = o.ok AND li.cd < li.rd) ORDER BY ok`)
	if len(resultGrid(res)) != 1 || res.RowStrings(0)[0] != "1" {
		t.Fatalf("exists: %v", resultGrid(res))
	}
	res = mustQuery(t, c, `SELECT ok FROM o WHERE NOT EXISTS (SELECT * FROM li WHERE li.ok = o.ok) ORDER BY ok`)
	if res.NumRows() != 1 || res.RowStrings(0)[0] != "3" {
		t.Fatalf("not exists: %v", resultGrid(res))
	}
	res = mustQuery(t, c, `SELECT ok FROM o WHERE ok IN (SELECT ok FROM li) ORDER BY ok`)
	if res.NumRows() != 2 {
		t.Fatalf("in subquery: %v", resultGrid(res))
	}
}

func TestCorrelatedScalarSubqueryQ2Pattern(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE ps (pk INTEGER, cost DECIMAL(10,2), reg VARCHAR)`)
	mustExec(t, c, `INSERT INTO ps VALUES
		(1, 10.00, 'EU'), (1, 5.00, 'EU'), (1, 7.00, 'US'),
		(2, 3.00, 'EU'), (2, 4.00, 'EU')`)
	// For each pk, the EU rows matching the per-pk EU minimum.
	res := mustQuery(t, c, `
		SELECT pk, cost FROM ps
		WHERE reg = 'EU' AND cost = (SELECT min(cost) FROM ps p2 WHERE p2.pk = ps.pk AND p2.reg = 'EU')
		ORDER BY pk`)
	grid := resultGrid(res)
	if len(grid) != 2 || grid[0] != "1|5.00" || grid[1] != "2|3.00" {
		t.Fatalf("q2 pattern: %v", grid)
	}
}

func TestUncorrelatedScalarSubqueryExec(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE t (a INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (1), (5), (9)`)
	res := mustQuery(t, c, `SELECT a FROM t WHERE a > (SELECT avg(a) FROM t) ORDER BY a`)
	if res.NumRows() != 1 || res.RowStrings(0)[0] != "9" {
		t.Fatalf("scalar subquery: %v", resultGrid(res))
	}
}

func TestDerivedTableAndCase(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE n (nm VARCHAR, vol DECIMAL(10,2))`)
	mustExec(t, c, `INSERT INTO n VALUES ('BRAZIL', 10.00), ('PERU', 20.00), ('BRAZIL', 5.00)`)
	res := mustQuery(t, c, `
		SELECT sum(CASE WHEN nm = 'BRAZIL' THEN vol ELSE 0 END) / sum(vol) AS share
		FROM (SELECT nm, vol FROM n) AS x`)
	share := res.Column(0).AsFloats()[0]
	if math.Abs(share-15.0/35.0) > 1e-9 {
		t.Fatalf("share = %v", share)
	}
}

func TestLikeAndStringOps(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE p (name VARCHAR)`)
	mustExec(t, c, `INSERT INTO p VALUES ('forest green'), ('dark red'), ('light green metal'), (NULL)`)
	res := mustQuery(t, c, `SELECT count(*) FROM p WHERE name LIKE '%green%'`)
	if res.RowStrings(0)[0] != "2" {
		t.Fatalf("like: %v", resultGrid(res))
	}
	res = mustQuery(t, c, `SELECT count(*) FROM p WHERE name NOT LIKE '%green%'`)
	if res.RowStrings(0)[0] != "1" { // NULL excluded
		t.Fatalf("not like: %v", resultGrid(res))
	}
	res = mustQuery(t, c, `SELECT count(*) FROM p WHERE name LIKE 'dark%'`)
	if res.RowStrings(0)[0] != "1" {
		t.Fatalf("prefix like: %v", resultGrid(res))
	}
	res = mustQuery(t, c, `SELECT substring(name from 1 for 4) FROM p WHERE name LIKE 'dark%'`)
	if res.RowStrings(0)[0] != "dark" {
		t.Fatalf("substring: %v", resultGrid(res))
	}
}

func TestExtractAndDateArith(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE d (dt DATE)`)
	mustExec(t, c, `INSERT INTO d VALUES (DATE '1995-03-15'), (DATE '1996-07-01')`)
	res := mustQuery(t, c, `SELECT extract(year from dt), extract(month from dt) FROM d ORDER BY dt`)
	if resultGrid(res)[0] != "1995|3" {
		t.Fatalf("extract: %v", resultGrid(res))
	}
	res = mustQuery(t, c, `SELECT count(*) FROM d WHERE dt < DATE '1996-01-01' + INTERVAL '6' MONTH`)
	if res.RowStrings(0)[0] != "1" {
		t.Fatalf("interval: %v", resultGrid(res))
	}
}

func TestOrderByLimitDistinct(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE t (a INTEGER, b VARCHAR)`)
	mustExec(t, c, `INSERT INTO t VALUES (3,'c'), (1,'a'), (2,'b'), (1,'a')`)
	res := mustQuery(t, c, `SELECT a FROM t ORDER BY a DESC LIMIT 2`)
	grid := resultGrid(res)
	if grid[0] != "3" || grid[1] != "2" {
		t.Fatalf("order/limit: %v", grid)
	}
	res = mustQuery(t, c, `SELECT DISTINCT a, b FROM t ORDER BY a`)
	if res.NumRows() != 3 {
		t.Fatalf("distinct: %v", resultGrid(res))
	}
	res = mustQuery(t, c, `SELECT a FROM t ORDER BY a LIMIT 2 OFFSET 1`)
	if res.NumRows() != 2 || res.RowStrings(0)[0] != "1" {
		t.Fatalf("offset: %v", resultGrid(res))
	}
}

func TestDeleteUpdate(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE t (a INTEGER, b VARCHAR)`)
	mustExec(t, c, `INSERT INTO t VALUES (1,'x'), (2,'y'), (3,'z')`)
	if n := mustExec(t, c, `DELETE FROM t WHERE a = 2`); n != 1 {
		t.Fatalf("delete n=%d", n)
	}
	res := mustQuery(t, c, `SELECT a FROM t ORDER BY a`)
	if res.NumRows() != 2 {
		t.Fatalf("after delete: %v", resultGrid(res))
	}
	if n := mustExec(t, c, `UPDATE t SET a = a + 10, b = 'w' WHERE a = 3`); n != 1 {
		t.Fatalf("update n=%d", n)
	}
	res = mustQuery(t, c, `SELECT a, b FROM t ORDER BY a`)
	grid := resultGrid(res)
	if grid[0] != "1|x" || grid[1] != "13|w" {
		t.Fatalf("after update: %v", grid)
	}
}

func TestTransactionsAndConflicts(t *testing.T) {
	db := memDB(t)
	c1 := db.Connect()
	c2 := db.Connect()
	mustExec(t, c1, `CREATE TABLE t (a INTEGER)`)
	mustExec(t, c1, `BEGIN; INSERT INTO t VALUES (1)`)
	// c2 doesn't see uncommitted data.
	if res := mustQuery(t, c2, `SELECT count(*) FROM t`); res.RowStrings(0)[0] != "0" {
		t.Fatal("dirty read")
	}
	// c1 sees its own writes.
	if res := mustQuery(t, c1, `SELECT count(*) FROM t`); res.RowStrings(0)[0] != "1" {
		t.Fatal("read own writes")
	}
	mustExec(t, c1, `COMMIT`)
	if res := mustQuery(t, c2, `SELECT count(*) FROM t`); res.RowStrings(0)[0] != "1" {
		t.Fatal("commit not visible")
	}
	// Concurrent INSERTs are disjoint row regions: both commit (the delta
	// store validates at region level, not table level).
	mustExec(t, c1, `BEGIN; INSERT INTO t VALUES (2)`)
	mustExec(t, c2, `BEGIN; INSERT INTO t VALUES (3)`)
	mustExec(t, c1, `COMMIT`)
	mustExec(t, c2, `COMMIT`)
	if res := mustQuery(t, c1, `SELECT count(*) FROM t`); res.RowStrings(0)[0] != "3" {
		t.Fatal("both concurrent inserts should commit")
	}
	// Same-row write-write conflict still aborts: UPDATE is delete+append,
	// so two updates of one row lose nothing silently.
	mustExec(t, c1, `BEGIN; UPDATE t SET a = 21 WHERE a = 2`)
	mustExec(t, c2, `BEGIN; UPDATE t SET a = 22 WHERE a = 2`)
	mustExec(t, c1, `COMMIT`)
	if _, err := c2.Exec(`COMMIT`); !errors.Is(err, txn.ErrWriteConflict) {
		t.Fatalf("want conflict, got %v", err)
	}
	if res := mustQuery(t, c1, `SELECT count(*) FROM t WHERE a = 21`); res.RowStrings(0)[0] != "1" {
		t.Fatal("first updater's write must survive")
	}
	// Rollback discards.
	mustExec(t, c1, `BEGIN; INSERT INTO t VALUES (4); ROLLBACK`)
	if res := mustQuery(t, c1, `SELECT count(*) FROM t`); res.RowStrings(0)[0] != "3" {
		t.Fatalf("rollback: %v", resultGrid(mustQuery(t, c1, `SELECT * FROM t`)))
	}
}

func TestPersistenceEndToEnd(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE t (a INTEGER, b VARCHAR)`)
	mustExec(t, c, `INSERT INTO t VALUES (1,'x'), (2,'y')`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustQuery(t, db2.Connect(), `SELECT a, b FROM t ORDER BY a`)
	grid := resultGrid(res)
	if len(grid) != 2 || grid[1] != "2|y" {
		t.Fatalf("persisted: %v", grid)
	}
}

func TestCrashRecoveryViaWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, _ := Open(dir)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE t (a INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (42)`)
	// Simulate crash: close WAL/file handles without checkpoint.
	db.mu.Lock()
	db.closed = true
	db.log.Close()
	db.store.Close()
	db.mu.Unlock()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustQuery(t, db2.Connect(), `SELECT a FROM t`)
	if res.NumRows() != 1 || res.RowStrings(0)[0] != "42" {
		t.Fatalf("recovered: %v", resultGrid(res))
	}
}

func TestZeroCopyResult(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE t (a INTEGER, f DOUBLE)`)
	c.Append("t", []int32{1, 2, 3}, []float64{1.5, 2.5, 3.5})
	res := mustQuery(t, c, `SELECT a, f FROM t`)
	ints, err := res.Column(0).Ints32()
	if err != nil || len(ints) != 3 || ints[2] != 3 {
		t.Fatalf("ints32: %v %v", ints, err)
	}
	floats, err := res.Column(1).Floats64()
	if err != nil || floats[0] != 1.5 {
		t.Fatalf("floats: %v %v", floats, err)
	}
	// Wrong-type access errors and points to converters.
	if _, err := res.Column(0).Floats64(); err == nil {
		t.Fatal("type mismatch should error")
	}
	// Lazy conversion works for any numeric column.
	if fs := res.Column(0).AsFloats(); fs[1] != 2 {
		t.Fatalf("as floats: %v", fs)
	}
	// Materialize yields an independent copy.
	m := res.Column(0).Materialize()
	mi, _ := m.Ints32()
	mi[0] = 99
	if ints[0] == 99 {
		t.Fatal("materialize should copy")
	}
}

func TestAppendBulk(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE t (a INTEGER, s VARCHAR, d DATE, dec DECIMAL(10,2))`)
	err := c.Append("t",
		[]int32{1, 2},
		[]string{"x", "y"},
		[]string{"1995-01-01", "1996-02-02"},
		[]float64{1.25, 2.50},
	)
	if err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, c, `SELECT a, s, d, dec FROM t ORDER BY a`)
	grid := resultGrid(res)
	if grid[0] != "1|x|1995-01-01|1.25" {
		t.Fatalf("append: %v", grid)
	}
	// Errors: arity, ragged, bad type.
	if err := c.Append("t", []int32{1}); err == nil {
		t.Fatal("arity")
	}
	if err := c.Append("t", []int32{1}, []string{"a", "b"}, []string{"1995-01-01"}, []float64{1}); err == nil {
		t.Fatal("ragged")
	}
	if err := c.Append("missing", []int32{1}); err == nil {
		t.Fatal("missing table")
	}
}

func TestQueryParams(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE t (a INTEGER, b VARCHAR)`)
	mustExec(t, c, `INSERT INTO t VALUES (1,'x'), (2,'y')`)
	res := mustQuery(t, c, `SELECT b FROM t WHERE a = ?`, int64(2))
	if res.RowStrings(0)[0] != "y" {
		t.Fatalf("param: %v", resultGrid(res))
	}
}

func TestMultipleDatabasesOneProcess(t *testing.T) {
	// The paper lists this as impossible for MonetDBLite (global state);
	// monetlite supports it — its "future directions" fixed.
	db1 := memDB(t)
	db2 := memDB(t)
	c1, c2 := db1.Connect(), db2.Connect()
	mustExec(t, c1, `CREATE TABLE t (a INTEGER)`)
	mustExec(t, c2, `CREATE TABLE t (a VARCHAR)`) // same name, different schema
	mustExec(t, c1, `INSERT INTO t VALUES (1)`)
	mustExec(t, c2, `INSERT INTO t VALUES ('x')`)
	if mustQuery(t, c1, `SELECT a FROM t`).RowStrings(0)[0] != "1" {
		t.Fatal("db1")
	}
	if mustQuery(t, c2, `SELECT a FROM t`).RowStrings(0)[0] != "x" {
		t.Fatal("db2")
	}
}

func TestInMemoryDiscardsOnClose(t *testing.T) {
	db, _ := OpenInMemory()
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE t (a INTEGER)`)
	if !db.InMemory() {
		t.Fatal("should be in-memory")
	}
	db.Close()
	if _, err := c.Query(`SELECT * FROM t`); !errors.Is(err, ErrClosed) {
		t.Fatal("closed database should reject queries")
	}
}

func TestDDLErrors(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE t (a INTEGER)`)
	if _, err := c.Exec(`CREATE TABLE t (a INTEGER)`); err == nil {
		t.Fatal("duplicate table")
	}
	if _, err := c.Exec(`DROP TABLE missing`); err == nil {
		t.Fatal("drop missing")
	}
	mustExec(t, c, `DROP TABLE IF EXISTS missing`) // no error
	if _, err := c.Exec(`SELECT nope FROM t`); err == nil {
		t.Fatal("unknown column")
	}
	if _, err := c.Exec(`CREATE TABLE u (a WIBBLE)`); err == nil {
		t.Fatal("unknown type")
	}
}

func TestOrderIndexSQL(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE t (a INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (5), (1), (9), (3)`)
	mustExec(t, c, `CREATE ORDER INDEX oi ON t (a)`)
	res := mustQuery(t, c, `SELECT a FROM t WHERE a BETWEEN 2 AND 6 ORDER BY a`)
	grid := resultGrid(res)
	if len(grid) != 2 || grid[0] != "3" || grid[1] != "5" {
		t.Fatalf("order index query: %v", grid)
	}

	// The index answers every one-sided comparison, either way round, and
	// ranges, on each ordered type: rows equal those of the same query on an
	// unindexed twin table, NULLs and constants outside the column's domain
	// included. In-domain constants must reach the index.
	c.TraceMAL = true
	rows := `('b', 2, 2.5, 2.50, DATE '1995-01-02'), ('a', 1, -1.5, 1.25, DATE '1994-12-31'),
		(NULL, NULL, NULL, NULL, NULL), ('bb', 3, 7.0, 3.00, DATE '1995-01-02'),
		('', 0, 0.0, 0.00, DATE '1970-01-01'), ('b', 2, 2.5, 2.50, DATE '1995-01-01'),
		(NULL, NULL, NULL, NULL, NULL), ('zz', 9, 1e10, 9999.99, DATE '2030-06-30')`
	for _, tbl := range []string{"v", "u"} {
		mustExec(t, c, `CREATE TABLE `+tbl+` (s VARCHAR, i INTEGER, d DOUBLE, m DECIMAL(9,2), dt DATE)`)
		mustExec(t, c, `INSERT INTO `+tbl+` VALUES `+rows)
	}
	for _, col := range []string{"s", "i", "d", "m", "dt"} {
		mustExec(t, c, `CREATE ORDER INDEX oi_`+col+` ON v (`+col+`)`)
	}
	consts := []struct {
		col, k   string
		inDomain bool
	}{
		{"s", "'b'", true}, {"s", "''", true}, {"s", "'zzz'", true},
		{"i", "2", true}, {"i", "3000000000", false}, {"i", "-3000000000", false}, {"i", "2.5", false},
		{"d", "2.5", true}, {"d", "-1e300", true}, {"d", "3000000000", true},
		{"m", "2.50", true}, {"m", "2.5", true}, {"m", "2.555", false}, {"m", "3000000000", false},
		{"dt", "DATE '1995-01-02'", true}, {"dt", "DATE '1900-01-01'", true},
	}
	for _, k := range consts {
		for _, op := range []string{"<", "<=", ">", ">="} {
			for _, where := range []string{k.col + " " + op + " " + k.k, k.k + " " + op + " " + k.col} {
				q := `SELECT ` + k.col + ` FROM %s WHERE ` + where + ` ORDER BY ` + k.col
				got := resultGrid(mustQuery(t, c, fmt.Sprintf(q, "v")))
				trace := c.LastTrace.String()
				want := resultGrid(mustQuery(t, c, fmt.Sprintf(q, "u")))
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Fatalf("%s: indexed %v, unindexed %v", where, got, want)
				}
				if k.inDomain && !strings.Contains(trace, "orderidx") {
					t.Fatalf("%s: order index not used:\n%s", where, trace)
				}
			}
		}
	}
	for _, where := range []string{"i BETWEEN 1 AND 3", "i BETWEEN 3 AND 1", "s BETWEEN 'a' AND 'b'", "m BETWEEN 2.5 AND 9999.99"} {
		q := `SELECT i, s FROM %s WHERE ` + where + ` ORDER BY i, s`
		got := resultGrid(mustQuery(t, c, fmt.Sprintf(q, "v")))
		want := resultGrid(mustQuery(t, c, fmt.Sprintf(q, "u")))
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%s: indexed %v, unindexed %v", where, got, want)
		}
	}
}

func TestMALTrace(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	c.TraceMAL = true
	mustExec(t, c, `CREATE TABLE t (a INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (1), (2), (3)`)
	mustQuery(t, c, `SELECT sum(a) FROM t WHERE a > 1`)
	trace := c.LastTrace.String()
	if !strings.Contains(trace, "sql.bind") || !strings.Contains(trace, "aggr.SUM") {
		t.Fatalf("trace:\n%s", trace)
	}
}

// CSE: the repeated (1 - disc) subexpression should be evaluated once.
func TestCommonSubexpressionElimination(t *testing.T) {
	db := memDB(t)
	c := db.Connect()
	c.TraceMAL = true
	mustExec(t, c, `CREATE TABLE t (p DECIMAL(10,2), disc DECIMAL(10,2), tax DECIMAL(10,2))`)
	mustExec(t, c, `INSERT INTO t VALUES (100.00, 0.10, 0.05)`)
	mustQuery(t, c, `SELECT sum(p * (1 - disc)), sum(p * (1 - disc) * (1 + tax)) FROM t`)
	if c.LastTrace.Count("cse.reuse") == 0 {
		t.Fatalf("expected CSE reuse in trace:\n%s", c.LastTrace)
	}
}

// bothEngines runs the setup statements in a fresh in-memory database and a
// fresh rowstore, and returns a query function per engine that renders
// each result row as its cells joined by "|".
func bothEngines(t *testing.T, setup []string) map[string]func(q string) ([]string, error) {
	t.Helper()
	c := memDB(t).Connect()
	rdb, err := rowstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdb.Close() })
	for _, q := range setup {
		mustExec(t, c, q)
		if _, err := rdb.Exec(q); err != nil {
			t.Fatalf("rowstore %s: %v", q, err)
		}
	}
	return map[string]func(q string) ([]string, error){
		"columnar": func(q string) ([]string, error) {
			res, err := c.Query(q)
			if err != nil {
				return nil, err
			}
			rows := make([]string, res.NumRows())
			for i := range rows {
				rows[i] = strings.Join(res.RowStrings(i), "|")
			}
			return rows, nil
		},
		"rowstore": func(q string) ([]string, error) {
			res, err := rdb.Query(q)
			if err != nil {
				return nil, err
			}
			rows := make([]string, len(res.Rows))
			for i, r := range res.Rows {
				cells := make([]string, len(r))
				for k, v := range r {
					cells[k] = v.String()
				}
				rows[i] = strings.Join(cells, "|")
			}
			return rows, nil
		},
	}
}
