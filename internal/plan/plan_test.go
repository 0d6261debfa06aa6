package plan

import (
	"strings"
	"testing"

	"monetlite/internal/mtypes"
	"monetlite/internal/sqlparse"
	"monetlite/internal/storage"
)

// testCatalog is a static catalog for binder tests.
type testCatalog struct {
	tables map[string]*storage.TableMeta
	rows   map[string]int64
}

func (c *testCatalog) TableMeta(name string) (*storage.TableMeta, bool) {
	m, ok := c.tables[name]
	return m, ok
}

func (c *testCatalog) TableRows(name string) int64 { return c.rows[name] }

func newTestCatalog() *testCatalog {
	mk := func(name string, rows int64, cols ...storage.ColDef) (*storage.TableMeta, int64) {
		return &storage.TableMeta{Name: name, Cols: cols}, rows
	}
	c := &testCatalog{tables: map[string]*storage.TableMeta{}, rows: map[string]int64{}}
	add := func(m *storage.TableMeta, rows int64) {
		c.tables[m.Name] = m
		c.rows[m.Name] = rows
	}
	add(mk("t", 1000,
		storage.ColDef{Name: "a", Typ: mtypes.Int},
		storage.ColDef{Name: "b", Typ: mtypes.Varchar},
		storage.ColDef{Name: "c", Typ: mtypes.Decimal(15, 2)},
		storage.ColDef{Name: "d", Typ: mtypes.Date},
	))
	add(mk("u", 10,
		storage.ColDef{Name: "a", Typ: mtypes.Int},
		storage.ColDef{Name: "x", Typ: mtypes.Varchar},
		storage.ColDef{Name: "e", Typ: mtypes.Date},
	))
	add(mk("big", 1000000,
		storage.ColDef{Name: "k", Typ: mtypes.Int},
		storage.ColDef{Name: "v", Typ: mtypes.Double},
	))
	return c
}

func bindQuery(t *testing.T, src string) *BoundQuery {
	t.Helper()
	st, err := sqlparse.ParseOne(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	q, err := BindSelect(newTestCatalog(), st.(*sqlparse.SelectStmt), nil)
	if err != nil {
		t.Fatalf("bind %q: %v", src, err)
	}
	return q
}

func TestBindSimpleProjection(t *testing.T) {
	q := bindQuery(t, "SELECT a, c FROM t")
	sch := q.Plan.Schema()
	if len(sch) != 2 || sch[0].Name != "a" || sch[1].Typ.Kind != mtypes.KDecimal {
		t.Fatalf("schema: %+v", sch)
	}
}

func TestBindStar(t *testing.T) {
	q := bindQuery(t, "SELECT * FROM t")
	if len(q.Plan.Schema()) != 4 {
		t.Fatalf("star schema: %+v", q.Plan.Schema())
	}
}

func TestBindUnknownColumnAndTable(t *testing.T) {
	cat := newTestCatalog()
	st, _ := sqlparse.ParseOne("SELECT zzz FROM t")
	if _, err := BindSelect(cat, st.(*sqlparse.SelectStmt), nil); err == nil {
		t.Fatal("unknown column should fail")
	}
	st, _ = sqlparse.ParseOne("SELECT 1 FROM missing")
	if _, err := BindSelect(cat, st.(*sqlparse.SelectStmt), nil); err == nil {
		t.Fatal("unknown table should fail")
	}
	st, _ = sqlparse.ParseOne("SELECT a FROM t, u")
	if _, err := BindSelect(cat, st.(*sqlparse.SelectStmt), nil); err == nil {
		t.Fatal("ambiguous column should fail")
	}
}

func TestFilterPushdownIntoScan(t *testing.T) {
	q := bindQuery(t, "SELECT a FROM t WHERE a > 5 AND b = 'x'")
	ps := PlanString(q.Plan)
	if !strings.Contains(ps, "SCAN t") || !strings.Contains(ps, "filter=") {
		t.Fatalf("filters not pushed into scan:\n%s", ps)
	}
	// No standalone FILTER node should remain.
	if strings.Contains(ps, "\nFILTER") || strings.HasPrefix(ps, "FILTER") {
		t.Fatalf("residual filter node:\n%s", ps)
	}
}

func TestProjectionPruning(t *testing.T) {
	q := bindQuery(t, "SELECT a FROM t WHERE c > 1")
	// Scan should read only columns a (0) and c (2) — not b or d.
	var scan *Scan
	var walk func(n Node)
	walk = func(n Node) {
		if s, ok := n.(*Scan); ok {
			scan = s
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(q.Plan)
	if scan == nil {
		t.Fatal("no scan")
	}
	if len(scan.Cols) != 2 || scan.Cols[0] != 0 || scan.Cols[1] != 2 {
		t.Fatalf("pruned cols: %v", scan.Cols)
	}
}

func TestJoinOrderSmallestFirst(t *testing.T) {
	q := bindQuery(t, "SELECT u.x FROM big, t, u WHERE big.k = t.a AND t.a = u.a")
	ps := PlanString(q.Plan)
	// The greedy order should start from u (10 rows) or t (1000), never big.
	idxBig := strings.Index(ps, "SCAN big")
	idxU := strings.Index(ps, "SCAN u")
	if idxBig < 0 || idxU < 0 {
		t.Fatalf("missing scans:\n%s", ps)
	}
	if !strings.Contains(ps, "INNER JOIN") {
		t.Fatalf("no joins:\n%s", ps)
	}
	// big must be joined last: it appears as the right child of the outermost
	// join, i.e. AFTER u in the printed left-deep tree.
	if idxBig < idxU {
		t.Fatalf("big joined too early:\n%s", ps)
	}
}

func TestAggregateBinding(t *testing.T) {
	q := bindQuery(t, "SELECT b, sum(c) AS total, count(*) AS n FROM t GROUP BY b ORDER BY total DESC")
	sch := q.Plan.Schema()
	if len(sch) != 3 || sch[1].Name != "total" || sch[1].Typ.Kind != mtypes.KDecimal || sch[2].Typ.Kind != mtypes.KBigInt {
		t.Fatalf("agg schema: %+v", sch)
	}
	ps := PlanString(q.Plan)
	if !strings.Contains(ps, "AGGREGATE groups=1 aggs=2") || !strings.Contains(ps, "SORT") {
		t.Fatalf("plan:\n%s", ps)
	}
}

func TestAggregateAliasAndOrdinalGroup(t *testing.T) {
	// GROUP BY via alias.
	q := bindQuery(t, "SELECT b AS flag, count(*) FROM t GROUP BY flag")
	if q.Plan.Schema()[0].Name != "flag" {
		t.Fatal("alias group")
	}
	// GROUP BY via ordinal.
	q = bindQuery(t, "SELECT b, count(*) FROM t GROUP BY 1")
	if len(q.Plan.Schema()) != 2 {
		t.Fatal("ordinal group")
	}
	// Expression group matched structurally in the select list.
	q = bindQuery(t, "SELECT extract(year from d), sum(a) FROM t GROUP BY extract(year from d)")
	if q.Plan.Schema()[0].Typ.Kind != mtypes.KInt {
		t.Fatal("expr group")
	}
}

func TestAggregateValidation(t *testing.T) {
	cat := newTestCatalog()
	for _, bad := range []string{
		"SELECT a, sum(c) FROM t GROUP BY b", // a not grouped
		"SELECT sum(*) FROM t",
		"SELECT b, count(*) FROM t GROUP BY 9",
	} {
		st, err := sqlparse.ParseOne(bad)
		if err != nil {
			continue
		}
		if _, err := BindSelect(cat, st.(*sqlparse.SelectStmt), nil); err == nil {
			t.Errorf("bind(%q) should fail", bad)
		}
	}
}

func TestGlobalAggregate(t *testing.T) {
	q := bindQuery(t, "SELECT sum(a), avg(c) FROM t")
	sch := q.Plan.Schema()
	if len(sch) != 2 || sch[0].Typ.Kind != mtypes.KBigInt || sch[1].Typ.Kind != mtypes.KDouble {
		t.Fatalf("global agg schema: %+v", sch)
	}
}

func TestHavingBinds(t *testing.T) {
	q := bindQuery(t, "SELECT b, sum(a) FROM t GROUP BY b HAVING sum(a) > 10")
	ps := PlanString(q.Plan)
	if !strings.Contains(ps, "FILTER") {
		t.Fatalf("HAVING should become a filter over the aggregate:\n%s", ps)
	}
}

func TestExistsBecomesSemiJoin(t *testing.T) {
	q := bindQuery(t, `SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.a = t.a AND u.x < t.b)`)
	ps := PlanString(q.Plan)
	if !strings.Contains(ps, "SEMI JOIN") {
		t.Fatalf("expected semi join:\n%s", ps)
	}
	if !strings.Contains(ps, "residual=") {
		t.Fatalf("expected residual for non-equi correlation:\n%s", ps)
	}
	q = bindQuery(t, `SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE u.a = t.a)`)
	if !strings.Contains(PlanString(q.Plan), "ANTI JOIN") {
		t.Fatal("expected anti join")
	}
}

func TestInSubqueryBecomesSemiJoin(t *testing.T) {
	q := bindQuery(t, `SELECT a FROM t WHERE a IN (SELECT a FROM u)`)
	if !strings.Contains(PlanString(q.Plan), "SEMI JOIN") {
		t.Fatal("IN subquery should be a semi join")
	}
	q = bindQuery(t, `SELECT a FROM t WHERE a NOT IN (SELECT a FROM u)`)
	if !strings.Contains(PlanString(q.Plan), "ANTI JOIN") {
		t.Fatal("NOT IN subquery should be an anti join")
	}
}

func TestCorrelatedScalarSubquery(t *testing.T) {
	// The Q2 pattern: equality with a correlated MIN.
	q := bindQuery(t, `SELECT a FROM t WHERE c = (SELECT min(c) FROM t t2 WHERE t2.a = t.a)`)
	ps := PlanString(q.Plan)
	if !strings.Contains(ps, "AGGREGATE") || !strings.Contains(ps, "INNER JOIN") {
		t.Fatalf("expected grouped-join decorrelation:\n%s", ps)
	}
	// Output schema must stay the outer projection.
	if len(q.Plan.Schema()) != 1 || q.Plan.Schema()[0].Name != "a" {
		t.Fatalf("schema: %+v", q.Plan.Schema())
	}
}

func TestUncorrelatedScalarSubquery(t *testing.T) {
	q := bindQuery(t, `SELECT a FROM t WHERE a > (SELECT max(a) FROM u)`)
	found := false
	var walk func(n Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Scan:
			for _, f := range x.Filters {
				WalkExpr(f, func(e Expr) bool {
					if _, ok := e.(*SubplanExpr); ok {
						found = true
					}
					return true
				})
			}
		case *Filter:
			WalkExpr(x.Pred, func(e Expr) bool {
				if _, ok := e.(*SubplanExpr); ok {
					found = true
				}
				return true
			})
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(q.Plan)
	if !found {
		t.Fatalf("expected subplan expr:\n%s", PlanString(q.Plan))
	}
}

func TestDerivedTable(t *testing.T) {
	q := bindQuery(t, `SELECT y FROM (SELECT a AS y FROM t WHERE a > 1) AS sub WHERE y < 10`)
	sch := q.Plan.Schema()
	if len(sch) != 1 || sch[0].Name != "y" {
		t.Fatalf("derived schema: %+v", sch)
	}
}

func TestExplicitJoinOn(t *testing.T) {
	q := bindQuery(t, `SELECT t.a FROM t JOIN u ON t.a = u.a WHERE u.x = 'q'`)
	ps := PlanString(q.Plan)
	if !strings.Contains(ps, "INNER JOIN") {
		t.Fatalf("plan:\n%s", ps)
	}
}

func TestOrderByVariants(t *testing.T) {
	// ordinal
	bindQuery(t, "SELECT a, b FROM t ORDER BY 2 DESC")
	// alias
	bindQuery(t, "SELECT a AS z FROM t ORDER BY z")
	// hidden column (not in select list)
	q := bindQuery(t, "SELECT a FROM t ORDER BY c")
	if len(q.Plan.Schema()) < 1 {
		t.Fatal("schema")
	}
}

func TestDistinct(t *testing.T) {
	q := bindQuery(t, "SELECT DISTINCT b FROM t")
	if !strings.Contains(PlanString(q.Plan), "DISTINCT") {
		t.Fatal("distinct node missing")
	}
}

func TestConstantFolding(t *testing.T) {
	q := bindQuery(t, "SELECT a FROM t WHERE d <= date '1998-12-01' - interval '90' day")
	ps := PlanString(q.Plan)
	if !strings.Contains(ps, "1998-09-02") {
		t.Fatalf("interval not folded:\n%s", ps)
	}
	q = bindQuery(t, "SELECT 1+2*3 FROM t")
	proj := q.Plan.(*Project)
	if c, ok := proj.Exprs[0].(*Const); !ok || c.Val.I != 7 {
		t.Fatalf("arith not folded: %s", ExprString(proj.Exprs[0]))
	}
}

func TestBindInsertValues(t *testing.T) {
	st, _ := sqlparse.ParseOne("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
	ins, err := BindInsert(newTestCatalog(), st.(*sqlparse.InsertStmt), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Values) != 4 || ins.Values[0].Len() != 2 {
		t.Fatalf("values: %d cols", len(ins.Values))
	}
	if ins.Values[0].I32[1] != 2 || !ins.Values[1].IsNull(1) || !ins.Values[2].IsNull(0) {
		t.Fatal("insert defaults/nulls wrong")
	}
	// Coercion: int literal into decimal column.
	st, _ = sqlparse.ParseOne("INSERT INTO t (c) VALUES (5)")
	ins, err = BindInsert(newTestCatalog(), st.(*sqlparse.InsertStmt), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Values[2].I64[0] != 500 {
		t.Fatalf("decimal coercion: %d", ins.Values[2].I64[0])
	}
}

func TestBindDeleteUpdate(t *testing.T) {
	st, _ := sqlparse.ParseOne("DELETE FROM t WHERE a = 3")
	del, err := BindDelete(newTestCatalog(), st.(*sqlparse.DeleteStmt), nil)
	if err != nil || del.Pred == nil {
		t.Fatal(err)
	}
	st, _ = sqlparse.ParseOne("UPDATE t SET a = a + 1 WHERE b = 'x'")
	up, err := BindUpdate(newTestCatalog(), st.(*sqlparse.UpdateStmt), nil)
	if err != nil || len(up.SetCols) != 1 || up.SetCols[0] != 0 {
		t.Fatalf("update: %+v err %v", up, err)
	}
}

func TestBindParams(t *testing.T) {
	st, _ := sqlparse.ParseOne("SELECT a FROM t WHERE a = ?")
	q, err := BindSelect(newTestCatalog(), st.(*sqlparse.SelectStmt), []mtypes.Value{mtypes.NewInt(mtypes.Int, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(PlanString(q.Plan), "7") {
		t.Fatal("param not substituted")
	}
	if _, err := BindSelect(newTestCatalog(), st.(*sqlparse.SelectStmt), nil); err == nil {
		t.Fatal("missing param should fail")
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"BRASS STEEL", "%BRASS", false},
		{"LARGE BRASS", "%BRASS", true},
		{"abcabc", "%abc", true},
		{"promo burnished", "promo%", true},
		{"forest green metallic", "%green%", true},
		{"x", "", false},
		{"", "", true},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v", c.s, c.p, got)
		}
	}
}

func TestLikePrefix(t *testing.T) {
	if p, ok := LikePrefix("abc%"); !ok || p != "abc" {
		t.Fatal("prefix pattern")
	}
	for _, notPrefix := range []string{"%abc", "a%c", "a_c%", "abc"} {
		if _, ok := LikePrefix(notPrefix); ok {
			t.Errorf("LikePrefix(%q) should be false", notPrefix)
		}
	}
}

func TestRowEvalBasics(t *testing.T) {
	// (a + 1) * 2 where a = 5  ->  12
	e := &BinOp{Kind: BinArith, Arith: 2, Typ: mtypes.Int,
		L: &BinOp{Kind: BinArith, Arith: 0, Typ: mtypes.Int,
			L: &ColRef{Slot: 0, Typ: mtypes.Int}, R: &Const{Val: mtypes.NewInt(mtypes.Int, 1)}},
		R: &Const{Val: mtypes.NewInt(mtypes.Int, 2)}}
	v, err := EvalRow(e, &EvalCtx{Row: []mtypes.Value{mtypes.NewInt(mtypes.Int, 5)}})
	if err != nil || v.I != 12 {
		t.Fatalf("eval: %v %v", v, err)
	}
	// CASE evaluation
	ce := &CaseExpr{Typ: mtypes.Int, Whens: []WhenClause{{
		Cond:   &BinOp{Kind: BinCmp, Cmp: 4, Typ: mtypes.Bool, L: &ColRef{Slot: 0, Typ: mtypes.Int}, R: &Const{Val: mtypes.NewInt(mtypes.Int, 3)}},
		Result: &Const{Val: mtypes.NewInt(mtypes.Int, 1)},
	}}}
	v, _ = EvalRow(ce, &EvalCtx{Row: []mtypes.Value{mtypes.NewInt(mtypes.Int, 5)}})
	if v.I != 1 {
		t.Fatal("case then")
	}
	v, _ = EvalRow(ce, &EvalCtx{Row: []mtypes.Value{mtypes.NewInt(mtypes.Int, 2)}})
	if !v.Null {
		t.Fatal("case without else should be NULL")
	}
}

// ORDER BY … LIMIT must fuse into a single TopN node — including the shape
// with hidden sort columns, where the binder interposes a strip-Project
// between Limit and Sort. OFFSET-only and un-sorted LIMITs must not fuse.
func TestTopNFusion(t *testing.T) {
	q := bindQuery(t, "SELECT a, b FROM t ORDER BY a DESC LIMIT 7")
	ps := PlanString(q.Plan)
	if !strings.Contains(ps, "TOPN 7 OFFSET 0 keys=1") {
		t.Fatalf("Limit(Sort) did not fuse to TopN:\n%s", ps)
	}
	if strings.Contains(ps, "SORT") || strings.Contains(ps, "LIMIT") {
		t.Fatalf("fused plan still has SORT/LIMIT:\n%s", ps)
	}

	// Hidden sort column: ORDER BY a column not in the projection puts a
	// strip-Project between Limit and Sort; the fusion pushes through it.
	q = bindQuery(t, "SELECT b FROM t ORDER BY a LIMIT 3 OFFSET 2")
	ps = PlanString(q.Plan)
	if !strings.Contains(ps, "TOPN 3 OFFSET 2") {
		t.Fatalf("Limit(Project(Sort)) did not fuse:\n%s", ps)
	}

	// OFFSET without LIMIT: a TopN heap would hold the whole input — no fusion.
	q = bindQuery(t, "SELECT a FROM t ORDER BY a OFFSET 4")
	ps = PlanString(q.Plan)
	if strings.Contains(ps, "TOPN") || !strings.Contains(ps, "SORT") {
		t.Fatalf("OFFSET-only query should keep Sort+Limit:\n%s", ps)
	}

	// LIMIT without ORDER BY: nothing to fuse.
	q = bindQuery(t, "SELECT a FROM t LIMIT 5")
	ps = PlanString(q.Plan)
	if strings.Contains(ps, "TOPN") {
		t.Fatalf("unsorted LIMIT fused:\n%s", ps)
	}
}

// Pairs of one-sided range conjuncts over the same column must fuse into a
// single BetweenExpr (half-open via LoExcl/HiExcl) so the executor — and an
// order index — see both bounds in one probe. Same-direction pairs, pairs over
// different columns, and non-constant bounds must not fuse.
func TestRangeConjunctFusion(t *testing.T) {
	q := bindQuery(t, "SELECT a FROM t WHERE a >= 5 AND a < 10")
	ps := PlanString(q.Plan)
	if !strings.Contains(ps, "RANGE >= 5, < 10") {
		t.Fatalf(">=/< pair did not fuse:\n%s", ps)
	}
	if strings.Count(ps, "filter=") != 1 {
		t.Fatalf("fused scan should carry one filter:\n%s", ps)
	}

	// Constant on the left flips; strict lower + inclusive upper.
	q = bindQuery(t, "SELECT a FROM t WHERE 5 < a AND a <= 10")
	ps = PlanString(q.Plan)
	if !strings.Contains(ps, "RANGE > 5, <= 10") {
		t.Fatalf("flipped </<= pair did not fuse:\n%s", ps)
	}

	// Both inclusive: plain BETWEEN (the zero-value flags).
	q = bindQuery(t, "SELECT a FROM t WHERE a >= 5 AND a <= 10")
	ps = PlanString(q.Plan)
	if !strings.Contains(ps, "BETWEEN 5 AND 10") {
		t.Fatalf(">=/<= pair did not fuse to BETWEEN:\n%s", ps)
	}

	// Same-direction bounds stay separate conjuncts.
	q = bindQuery(t, "SELECT a FROM t WHERE a >= 5 AND a > 10")
	ps = PlanString(q.Plan)
	if strings.Contains(ps, "RANGE") || strings.Contains(ps, "BETWEEN") {
		t.Fatalf("same-direction bounds fused:\n%s", ps)
	}

	// Equality and inequality conjuncts are not range bounds: fusing
	// `a >= 5 AND a <> 7` into BETWEEN 5 AND 7 would change results.
	q = bindQuery(t, "SELECT a FROM t WHERE a >= 5 AND a <> 7")
	ps = PlanString(q.Plan)
	if strings.Contains(ps, "RANGE") || strings.Contains(ps, "BETWEEN") {
		t.Fatalf("inequality conjunct fused as a range bound:\n%s", ps)
	}
	q = bindQuery(t, "SELECT a FROM t WHERE a >= 5 AND a = 7")
	ps = PlanString(q.Plan)
	if strings.Contains(ps, "RANGE") || strings.Contains(ps, "BETWEEN") {
		t.Fatalf("equality conjunct fused as a range bound:\n%s", ps)
	}

	// Different columns stay separate.
	q = bindQuery(t, "SELECT a FROM t WHERE a >= 5 AND c < 10")
	ps = PlanString(q.Plan)
	if strings.Contains(ps, "RANGE") {
		t.Fatalf("bounds on different columns fused:\n%s", ps)
	}

	// A third bound on the same column pairs once; the leftover stays.
	q = bindQuery(t, "SELECT a FROM t WHERE a >= 5 AND a < 10 AND a < 8")
	ps = PlanString(q.Plan)
	if !strings.Contains(ps, "RANGE >= 5, < 10") || !strings.Contains(ps, "(#0(a) < 8)") {
		t.Fatalf("triple bound mishandled:\n%s", ps)
	}
}

// The row evaluator (the rowstore engine's oracle) must honor the half-open
// flags the fusion pass introduces, with SQL three-valued NULL semantics.
func TestRowEvalHalfOpenRange(t *testing.T) {
	rng := &BetweenExpr{
		E:      &ColRef{Slot: 0, Typ: mtypes.Int},
		Lo:     &Const{Val: mtypes.NewInt(mtypes.Int, 5)},
		Hi:     &Const{Val: mtypes.NewInt(mtypes.Int, 10)},
		LoExcl: false, HiExcl: true, // 5 <= a < 10
	}
	cases := []struct {
		in   int64
		want bool
	}{{4, false}, {5, true}, {9, true}, {10, false}}
	for _, c := range cases {
		v, err := EvalRow(rng, &EvalCtx{Row: []mtypes.Value{mtypes.NewInt(mtypes.Int, c.in)}})
		if err != nil {
			t.Fatal(err)
		}
		if v.Null || (v.I == 1) != c.want {
			t.Fatalf("a=%d: got %v, want %v", c.in, v, c.want)
		}
	}
	v, err := EvalRow(rng, &EvalCtx{Row: []mtypes.Value{mtypes.NullValue(mtypes.Int)}})
	if err != nil || !v.Null {
		t.Fatalf("NULL input must yield NULL, got %v (%v)", v, err)
	}
}
