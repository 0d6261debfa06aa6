package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
	"monetlite/internal/rowstore"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
)

// OR-of-AND join differential: random disjunctions over two or three joined
// tables holding NULLs, the shape from which the optimizer derives per-table
// filters (TPC-H Q7 and Q19). Each query runs on the columnar engine (serial
// and chunked) and on the rowstore engine, and once more on both with the OR
// wrapped in CASE WHEN … THEN 1 ELSE 0 END = 1 — the same WHERE semantics in
// a form the optimizer neither factors nor derives filters from, so the four
// results check the rewrite as well as the two executors. Rows compare as
// sorted multisets. Every trial derives its own seed; a failure names it.

const orFuzzBaseSeed = 20261016

func TestOrImpliedFilterDifferential(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 12
	}
	derived := 0
	for trial := 0; trial < trials; trial++ {
		if runOrFuzzTrial(t, orFuzzBaseSeed+int64(trial)) {
			derived++
		}
	}
	// The rewrite must actually have fired for the comparison to mean much.
	if derived < trials/4 {
		t.Errorf("per-table filters derived in only %d of %d trials", derived, trials)
	}
}

var orFuzzWords = []string{"ant", "bee", "cat", "dog"}

// buildOrFuzzTables creates k tables t1..tk(a INT, b INT, s VARCHAR) with
// small domains and about 15% NULLs per column, in a columnar catalog and a
// rowstore database.
func buildOrFuzzTables(t *testing.T, rng *rand.Rand, k int) (memCatalog, *rowstore.DB) {
	t.Helper()
	cat := memCatalog{}
	rdb, err := rowstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	for ti := 1; ti <= k; ti++ {
		meta := storage.TableMeta{Name: fmt.Sprintf("t%d", ti), Cols: []storage.ColDef{
			{Name: "a", Typ: mtypes.Int}, {Name: "b", Typ: mtypes.Int}, {Name: "s", Typ: mtypes.Varchar},
		}}
		n := rng.Intn(30)
		cols := []*vec.Vector{vec.New(mtypes.Int, n), vec.New(mtypes.Int, n), vec.New(mtypes.Varchar, n)}
		for i := 0; i < n; i++ {
			for c := 0; c < 2; c++ {
				if rng.Intn(7) == 0 {
					cols[c].SetNull(i)
				} else {
					cols[c].I32[i] = int32(rng.Intn(6))
				}
			}
			if rng.Intn(7) == 0 {
				cols[2].SetNull(i)
			} else {
				cols[2].Str[i] = orFuzzWords[rng.Intn(len(orFuzzWords))]
			}
		}
		tbl := storage.NewMemoryTable(meta)
		if n > 0 {
			if _, err := tbl.Append(cols, 1); err != nil {
				t.Fatal(err)
			}
		}
		cat[meta.Name] = tbl
		if err := rdb.CreateTable(meta); err != nil {
			t.Fatal(err)
		}
		row := make([]mtypes.Value, len(cols))
		for r := 0; r < n; r++ {
			for ci, v := range cols {
				row[ci] = v.Value(r)
			}
			if err := rdb.InsertRow(meta.Name, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cat, rdb
}

// orFuzzConjunct draws one conjunct: mostly on a single table, sometimes
// comparing two tables.
func orFuzzConjunct(rng *rand.Rand, k int) string {
	tbl := func() string { return fmt.Sprintf("t%d", 1+rng.Intn(k)) }
	num := func() string {
		if rng.Intn(10) == 0 {
			return "NULL"
		}
		return fmt.Sprint(rng.Intn(6))
	}
	word := func() string { return "'" + orFuzzWords[rng.Intn(len(orFuzzWords))] + "'" }
	col := []string{"a", "b"}[rng.Intn(2)]
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf("%s.%s = %s.%s", tbl(), col, tbl(), []string{"a", "b"}[rng.Intn(2)])
	case 1:
		return fmt.Sprintf("%s.%s IN (%s, %s)", tbl(), col, num(), num())
	case 2:
		return fmt.Sprintf("%s.%s NOT IN (%s, %s)", tbl(), col, num(), num())
	case 3:
		return fmt.Sprintf("%s.%s IS NULL", tbl(), col)
	case 4:
		return fmt.Sprintf("%s.s = %s", tbl(), word())
	case 5:
		return fmt.Sprintf("%s.s LIKE '%%%c%%'", tbl(), "aeiot"[rng.Intn(5)])
	case 6:
		return fmt.Sprintf("(%s.%s < %s OR %s.s IS NULL)", tbl(), col, num(), tbl())
	default:
		return fmt.Sprintf("%s.%s >= %s", tbl(), col, num())
	}
}

// runOrFuzzTrial runs one seed and reports whether the optimizer derived a
// per-table filter from the trial's OR.
func runOrFuzzTrial(t *testing.T, seed int64) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := 2 + rng.Intn(2)
	cat, rdb := buildOrFuzzTables(t, rng, k)
	defer rdb.Close()

	var joins []string
	for ti := 2; ti <= k; ti++ {
		if rng.Intn(3) > 0 {
			joins = append(joins, fmt.Sprintf("t%d.a = t%d.a", ti-1, ti))
		}
	}
	var common []string
	for i := rng.Intn(2); i > 0; i-- {
		common = append(common, orFuzzConjunct(rng, k))
	}
	branches := make([]string, 2+rng.Intn(2))
	for i := range branches {
		conjs := append([]string(nil), common...)
		for j := 1 + rng.Intn(3); j > 0; j-- {
			conjs = append(conjs, orFuzzConjunct(rng, k))
		}
		rng.Shuffle(len(conjs), func(x, y int) { conjs[x], conjs[y] = conjs[y], conjs[x] })
		branches[i] = "(" + strings.Join(conjs, " AND ") + ")"
	}
	or := strings.Join(branches, " OR ")
	from := make([]string, k)
	sel := make([]string, 0, 2*k)
	for ti := 1; ti <= k; ti++ {
		from[ti-1] = fmt.Sprintf("t%d", ti)
		sel = append(sel, fmt.Sprintf("t%d.a", ti), fmt.Sprintf("t%d.s", ti))
	}
	query := func(pred string) string {
		where := strings.Join(append(append([]string(nil), joins...), pred), " AND ")
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s", strings.Join(sel, ", "), strings.Join(from, ", "), where)
	}
	orQ := query("(" + or + ")")
	caseQ := query("CASE WHEN " + or + " THEN 1 ELSE 0 END = 1")

	orPlan := planFor(t, cat, orQ)
	derived := false
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if sc, ok := n.(*plan.Scan); ok {
			for _, f := range sc.Filters {
				if bo, ok := f.(*plan.BinOp); ok && bo.Kind == plan.BinOr {
					derived = true
				}
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(orPlan)

	sorted := func(rows []string) string {
		sort.Strings(rows)
		return strings.Join(rows, "\n")
	}
	columnar := func(q string, e *Engine) string {
		e.Cat = cat
		res, err := e.Execute(planFor(t, cat, q))
		if err != nil {
			t.Fatalf("seed %d: columnar %s: %v", seed, q, err)
		}
		return sorted(resultRows(res))
	}
	rows := func(q string) string {
		res, err := rdb.Query(q)
		if err != nil {
			t.Fatalf("seed %d: rowstore %s: %v", seed, q, err)
		}
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			var sb strings.Builder
			for _, v := range r {
				sb.WriteString(v.String())
				sb.WriteByte('|')
			}
			out[i] = sb.String()
		}
		return sorted(out)
	}
	oracle := columnar(caseQ, &Engine{})
	for _, got := range []struct {
		label, rows string
	}{
		{"columnar OR", columnar(orQ, &Engine{})},
		{"columnar OR chunked", columnar(orQ, &Engine{Parallel: true, MaxThreads: 4, testChunkRows: 1 + rng.Intn(8)})},
		{"rowstore OR", rows(orQ)},
		{"rowstore CASE", rows(caseQ)},
	} {
		if got.rows != oracle {
			t.Fatalf("seed %d: %s differs from the CASE oracle\n query: %s\n plan:\n%s\n got:\n%s\n oracle:\n%s",
				seed, got.label, orQ, plan.PlanString(orPlan), got.rows, oracle)
		}
	}
	return derived
}
