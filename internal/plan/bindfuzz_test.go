package plan

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"monetlite/internal/sqlparse"
)

// CheckBoundPlan walks a bound plan, the plans of its scalar subqueries
// included, and reports the first binder placeholder that survived (any
// expression of an unexported type, such as outerRef or windowRef) or the
// first ColRef/AggRef that lies outside the schema its node reads.
func CheckBoundPlan(n Node) error {
	if n == nil {
		return nil
	}
	width := func(in Node) int {
		if in == nil {
			return 0
		}
		return len(in.Schema())
	}
	check := func(w int, es ...Expr) error {
		var err error
		for _, e := range es {
			WalkExpr(e, func(x Expr) bool {
				switch y := x.(type) {
				case *ColRef:
					if y.Slot < 0 || y.Slot >= w {
						err = fmt.Errorf("%s in %T reads slot %d of %d", ExprString(y), n, y.Slot, w)
					}
				case *AggRef:
					if y.Slot < 0 || y.Slot >= w {
						err = fmt.Errorf("%s in %T reads slot %d of %d", ExprString(y), n, y.Slot, w)
					}
				case *SubplanExpr:
					err = CheckBoundPlan(y.Plan)
				}
				if name := reflect.TypeOf(x).Elem().Name(); err == nil && !unicode.IsUpper(rune(name[0])) {
					err = fmt.Errorf("placeholder %T survived in %T", x, n)
				}
				return err == nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	keyExprs := func(keys []SortSpec) []Expr {
		es := make([]Expr, len(keys))
		for i, k := range keys {
			es[i] = k.E
		}
		return es
	}
	var err error
	switch x := n.(type) {
	case *Scan:
		err = check(len(x.Out), x.Filters...)
	case *Filter:
		err = check(width(x.Input), x.Pred)
	case *Project:
		err = check(width(x.Input), x.Exprs...)
	case *Join:
		if err = check(width(x.Left), x.EquiL...); err == nil {
			if err = check(width(x.Right), x.EquiR...); err == nil {
				err = check(width(x.Left)+width(x.Right), x.Residual)
			}
		}
	case *Aggregate:
		es := append([]Expr(nil), x.GroupBy...)
		for _, a := range x.Aggs {
			es = append(es, a.Arg)
		}
		err = check(width(x.Input), es...)
	case *Sort:
		err = check(width(x.Input), keyExprs(x.Keys)...)
	case *TopN:
		err = check(width(x.Input), keyExprs(x.Keys)...)
	case *Window:
		es := append(append([]Expr(nil), x.PartitionBy...), keyExprs(x.OrderBy)...)
		for _, c := range x.Calls {
			es = append(es, c.Arg, c.Default)
		}
		err = check(width(x.Input), es...)
	}
	if err != nil {
		return err
	}
	for _, c := range n.Children() {
		if err := CheckBoundPlan(c); err != nil {
			return err
		}
	}
	return nil
}

// bindTokens is FuzzBindSelectList's vocabulary: every input byte but the
// segment separator 0xFF picks one token. Its columns are testCatalog's
// t(a INT, b VARCHAR, c DECIMAL(15,2), d DATE) and u(a INT, x VARCHAR,
// e DATE).
var bindTokens = []string{
	"a", "b", "c", "d", "t.a", "u.a", "u.x", "u.e", "k",
	"1", "2", "0.5", "'x'", "DATE '1998-01-01'", "NULL",
	"sum(", "count(", "min(", "max(", "avg(", "count(*)", "count(DISTINCT",
	"abs(", "upper(", "sqrt(", "concat(", "substring(", "FROM 1 FOR 2)",
	"extract(YEAR FROM", "CAST(", "AS DOUBLE)", "(", ")", ",",
	"+", "-", "*", "/", "=", "<", ">", "<>", "AND", "OR", "NOT", "||",
	"INTERVAL '1' DAY", "INTERVAL '1' MONTH", "INTERVAL '2' YEAR",
	"CASE", "WHEN", "THEN", "ELSE", "END", "BETWEEN", "IN (1, 2)", "LIKE 'a%'", "IS NULL",
	"OVER ()", "OVER (PARTITION BY a)", "OVER (ORDER BY", "row_number()", "rank()",
	"(SELECT max(a) FROM u)", "(SELECT", "FROM u WHERE u.a = t.a)",
	"EXISTS (SELECT 1 FROM u WHERE u.a = t.a AND", "DESC", "AS k",
}

// decodeBindSelect turns fuzz bytes into a SELECT over t. The first byte's
// low bit asks for DISTINCT; the rest splits on 0xFF into the select list,
// WHERE, GROUP BY, HAVING and ORDER BY, each a run of bindTokens (an empty
// segment omits its clause, an empty select list selects a).
func decodeBindSelect(data []byte) string {
	if len(data) > 96 {
		data = data[:96]
	}
	var flags byte
	if len(data) > 0 {
		flags, data = data[0], data[1:]
	}
	var segs [5][]string
	seg := 0
	for _, c := range data {
		if c == 0xFF {
			seg = min(seg+1, len(segs)-1)
			continue
		}
		segs[seg] = append(segs[seg], bindTokens[int(c)%len(bindTokens)])
	}
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if flags&1 != 0 {
		sb.WriteString("DISTINCT ")
	}
	if len(segs[0]) == 0 {
		segs[0] = []string{"a"}
	}
	sb.WriteString(strings.Join(segs[0], " "))
	sb.WriteString(" FROM t")
	for i, kw := range []string{"", " WHERE ", " GROUP BY ", " HAVING ", " ORDER BY "} {
		if i > 0 && len(segs[i]) > 0 {
			sb.WriteString(kw)
			sb.WriteString(strings.Join(segs[i], " "))
		}
	}
	return sb.String()
}

// encodeBindSelect is decodeBindSelect's inverse for seeds: segments of
// bindTokens, in clause order.
func encodeBindSelect(distinct bool, segs ...[]string) []byte {
	out := []byte{0}
	if distinct {
		out[0] = 1
	}
	for i, seg := range segs {
		if i > 0 {
			out = append(out, 0xFF)
		}
		for _, tok := range seg {
			k := -1
			for j, v := range bindTokens {
				if v == tok {
					k = j
				}
			}
			if k < 0 {
				panic("encodeBindSelect: no token " + tok)
			}
			out = append(out, byte(k))
		}
	}
	return out
}

// aggContextSeeds are the aggregate-context statements of the root test
// TestAggregateContextExpressions, written over testCatalog (g, x, s, d as
// a, c, b, d; u's y as u.a, its date as u.e), plus the shapes that bound
// before. Each is a file of FuzzBindSelectList's committed corpus. Only
// distinct-hidden-sort must fail to bind.
var aggContextSeeds = func() map[string][]byte {
	T := func(s ...string) []string { return s }
	ex := "EXISTS (SELECT 1 FROM u WHERE u.a = t.a AND"
	plain := map[string][][]string{
		"select-abs-sum":           {T("a", ",", "abs(", "sum(", "c", ")", ")"), nil, T("a")},
		"select-upper-max":         {T("a", ",", "upper(", "max(", "b", ")", ")"), nil, T("a")},
		"select-sqrt-sum":          {T("a", ",", "sqrt(", "sum(", "c", ")", "+", "2", ")"), nil, T("a")},
		"select-concat-min-max":    {T("a", ",", "concat(", "min(", "b", ")", ",", "max(", "b", ")", ")"), nil, T("a")},
		"select-substring-max":     {T("a", ",", "substring(", "max(", "b", ")", "FROM 1 FOR 2)"), nil, T("a")},
		"select-max-plus-interval": {T("a", ",", "max(", "d", ")", "+", "INTERVAL '1' DAY"), nil, T("a")},
		"having-max-interval":      {T("a"), nil, T("a"), T("max(", "d", ")", ">", "DATE '1998-01-01'", "-", "INTERVAL '1' DAY")},
		"having-abs-sum":           {T("a"), nil, T("a"), T("abs(", "sum(", "c", ")", ")", ">", "2")},
		"select-min-minus-month":   {T("a", ",", "min(", "d", ")", "-", "INTERVAL '1' MONTH"), nil, T("a")},
		"select-global-abs":        {T("abs(", "min(", "c", ")", ")", "+", "abs(", "max(", "c", ")", ")")},
		"order-count-star":         {T("a", ",", "count(*)"), nil, T("a"), nil, T("count(*)", "DESC")},
		"order-sum":                {T("a"), nil, T("a"), nil, T("sum(", "c", ")", "DESC")},
		"order-group-plus-one":     {T("a"), nil, T("a"), nil, T("a", "+", "1", "DESC")},
		"order-min-unselected":     {T("a", ",", "max(", "b", ")"), nil, T("a"), nil, T("min(", "c", ")", "DESC")},
		"order-agg-under-window":   {T("a", ",", "sum(", "sum(", "c", ")", ")", "OVER ()"), nil, T("a"), nil, T("max(", "c", ")", "DESC")},
		"corr-item-abs-sum":        {T("a"), T("c", ">", "(SELECT", "abs(", "sum(", "u.a", ")", ")", "*", "2", "FROM u WHERE u.a = t.a)")},
		"corr-item-case":           {T("a"), T("c", "<", "(SELECT", "CASE", "WHEN", "sum(", "u.a", ")", ">", "0.5", "THEN", "sum(", "u.a", ")", "ELSE", "1", "END", "FROM u WHERE u.a = t.a)")},
		"corr-item-interval":       {T("a"), T("d", "<", "(SELECT", "max(", "u.e", ")", "+", "INTERVAL '1' DAY", "FROM u WHERE u.a = t.a)")},
		"corr-pred-in":             {T("a"), T(ex, "c", "IN (1, 2)", ")")},
		"corr-pred-like":           {T("a"), T(ex, "b", "LIKE 'a%'", ")")},
		"corr-pred-case":           {T("a"), T(ex, "CASE", "WHEN", "c", ">", "0.5", "THEN", "u.a", "ELSE", "2", "END", ">", "1", ")")},
		"select-neg-sum":           {T("a", ",", "-", "sum(", "c", ")"), nil, T("a")},
		"select-case-over-aggs":    {T("a", ",", "CASE", "WHEN", "sum(", "c", ")", ">", "1", "THEN", "max(", "b", ")", "ELSE", "'x'", "END"), nil, T("a")},
		"select-extract-max":       {T("a", ",", "extract(YEAR FROM", "max(", "d", ")", ")"), nil, T("a")},
		"having-between-like-in":   {T("a"), nil, T("a"), T("sum(", "c", ")", "BETWEEN", "1", "AND", "2", "OR", "max(", "b", ")", "LIKE 'a%'", "OR", "count(*)", "IN (1, 2)")},
		"select-window-over-agg":   {T("a", ",", "sum(", "sum(", "c", ")", ")", "OVER ()"), nil, T("a")},
		"having-scalar-subquery":   {T("a"), nil, T("a"), T("sum(", "c", ")", ">", "(SELECT max(a) FROM u)")},
	}
	seeds := map[string][]byte{"distinct-hidden-sort": encodeBindSelect(true, T("a"), nil, nil, nil, T("c"))}
	for name, segs := range plain {
		seeds[name] = encodeBindSelect(false, segs...)
	}
	return seeds
}()

// TestAggregateContextPlans binds every aggContextSeeds statement, checks its
// plan with CheckBoundPlan, and checks that the committed corpus holds it.
func TestAggregateContextPlans(t *testing.T) {
	cat := newTestCatalog()
	for name, data := range aggContextSeeds {
		src := decodeBindSelect(data)
		st, err := sqlparse.ParseOne(src)
		if err != nil {
			t.Fatalf("%s: parse %s: %v", name, src, err)
		}
		q, err := BindSelect(cat, st.(*sqlparse.SelectStmt), nil)
		switch {
		case name == "distinct-hidden-sort":
			if err == nil {
				t.Errorf("%s: %s bound:\n%s", name, src, PlanString(q.Plan))
			}
		case err != nil:
			t.Errorf("%s: %s: %v", name, src, err)
		default:
			if err := CheckBoundPlan(q.Plan); err != nil {
				t.Errorf("%s: %s: %v\n%s", name, src, err, PlanString(q.Plan))
			}
		}
		file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzBindSelectList", name))
		if want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"; err != nil || string(file) != want {
			t.Errorf("%s: corpus file is not %q (%v)", name, want, err)
		}
	}
}

// FuzzBindSelectList binds SELECTs over testCatalog whose select list, WHERE,
// GROUP BY, HAVING and ORDER BY are decoded from the input (decodeBindSelect):
// group columns, aggregate calls, constants, INTERVAL arithmetic, scalar
// functions, CASE, BETWEEN, IN, window calls and subqueries in every clause.
// The contract: binding (which optimizes) returns a plan or an error, never
// panics, and its plan passes CheckBoundPlan. testdata/fuzz/FuzzBindSelectList
// holds the committed corpus: aggContextSeeds and the inputs that found
// faults.
func FuzzBindSelectList(f *testing.F) {
	cat := newTestCatalog()
	f.Fuzz(func(t *testing.T, data []byte) {
		src := decodeBindSelect(data)
		st, err := sqlparse.ParseOne(src)
		if err != nil {
			return
		}
		sel, ok := st.(*sqlparse.SelectStmt)
		if !ok {
			return
		}
		q, err := BindSelect(cat, sel, nil)
		if err != nil {
			return
		}
		if err := CheckBoundPlan(q.Plan); err != nil {
			t.Fatalf("%s: %v\n%s", src, err, PlanString(q.Plan))
		}
	})
}
