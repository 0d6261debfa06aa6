package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
)

// Randomized differential filter/project harness, same shrinking convention
// as joinfuzz_test.go and sortfuzz_test.go: for random single-table
// SELECT … WHERE queries over NULL-riddled int/double/varchar columns
// (including non-canonical NaN payloads), the candidate-list pipeline —
// serial, and parallel with forcibly small scan chunks — must match
// the old gather-per-conjunct execution row for row. The oracle replays the
// pre-candidate-list semantics on the same optimized plan: every conjunct
// evaluates as a full-width boolean vector and gathers every column, exactly
// what exec.execFilter and stacked Filter nodes used to do. Corpora cover
// empty tables, single rows, all-pass and all-fail predicates, and
// multi-conjunct chains (which exercise range fusion and the dense
// under-candidate-list evaluation of later conjuncts). Every trial derives
// its own seed from the base seed; failures print that seed and the query so
// one trial can be replayed and shrunk in isolation.

const filterFuzzBaseSeed = 20260730

func TestFilterFuzzDifferential(t *testing.T) {
	trials := 80
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		runFilterFuzzTrial(t, filterFuzzBaseSeed+int64(trial))
	}
}

// Re-run one seed here when shrinking a fuzzer failure.
func TestFilterFuzzRegressions(t *testing.T) {
	for _, seed := range []int64{filterFuzzBaseSeed} {
		runFilterFuzzTrial(t, seed)
	}
}

// randFilterTable builds the fuzz table: i INTEGER (small domain, ~10%
// NULL), d DOUBLE (~15% NULL, half of those via non-canonical NaN payloads),
// s VARCHAR (shared prefixes, ~10% NULL).
func randFilterTable(rng *rand.Rand, n int) *storage.Table {
	tbl := storage.NewMemoryTable(storage.TableMeta{Name: "fz", Cols: []storage.ColDef{
		{Name: "i", Typ: mtypes.Int},
		{Name: "d", Typ: mtypes.Double},
		{Name: "s", Typ: mtypes.Varchar},
	}})
	if n == 0 {
		return tbl
	}
	iv := vec.New(mtypes.Int, n)
	dv := vec.New(mtypes.Double, n)
	sv := vec.New(mtypes.Varchar, n)
	prefixes := []string{"ab", "ax", "b", "zz"}
	for k := 0; k < n; k++ {
		if rng.Intn(10) == 0 {
			iv.SetNull(k)
		} else {
			iv.I32[k] = int32(rng.Intn(200) - 100)
		}
		switch rng.Intn(13) {
		case 0:
			dv.SetNull(k)
		case 1:
			dv.F64[k] = math.Float64frombits(0x7ff8_0000_0000_0001 + uint64(rng.Intn(9)))
		case 2:
			dv.F64[k] = math.Copysign(0, -1)
		default:
			dv.F64[k] = float64(rng.Intn(100)) / 4
		}
		if rng.Intn(10) == 0 {
			sv.SetNull(k)
		} else {
			sv.Str[k] = prefixes[rng.Intn(len(prefixes))] + string(rune('a'+rng.Intn(4)))
		}
	}
	if _, err := tbl.Append([]*vec.Vector{iv, dv, sv}, 1); err != nil {
		panic(err)
	}
	return tbl
}

// randConjunct draws one WHERE conjunct, biased toward shapes with dedicated
// selection kernels but covering general expressions, NULL tests, IN lists,
// LIKE, constants (all-pass / all-fail) and range pairs that the optimizer
// fuses.
func randConjunct(rng *rand.Rand) string {
	k := func(span int) int { return rng.Intn(span) - span/2 }
	switch rng.Intn(16) {
	case 0:
		return fmt.Sprintf("i < %d", k(200))
	case 1:
		return fmt.Sprintf("i >= %d", k(200))
	case 2:
		lo := k(200)
		return fmt.Sprintf("i >= %d AND i < %d", lo, lo+rng.Intn(80))
	case 3:
		return fmt.Sprintf("d > %d.5", rng.Intn(20))
	case 4:
		return fmt.Sprintf("d BETWEEN %d AND %d", rng.Intn(10), 10+rng.Intn(15))
	case 5:
		return fmt.Sprintf("i %% %d = %d", 2+rng.Intn(5), rng.Intn(2))
	case 6:
		return "i IS NULL"
	case 7:
		return "i IS NOT NULL"
	case 8:
		return fmt.Sprintf("s LIKE '%s%%'", []string{"ab", "a", "z"}[rng.Intn(3)])
	case 9:
		return fmt.Sprintf("s < '%s'", []string{"ax", "b", "zz"}[rng.Intn(3)])
	case 10:
		return fmt.Sprintf("i IN (%d, %d, %d)", k(60), k(60), k(60))
	case 11:
		return fmt.Sprintf("i + 1 < %d", k(200)) // general shape: no kernel
	case 12:
		return "1 = 1" // all-pass
	case 13:
		return "1 = 0" // all-fail
	case 14:
		// Inequality next to a bound: must never fuse as a range side.
		return fmt.Sprintf("i <> %d", k(200))
	default:
		return fmt.Sprintf("i = %d", k(60))
	}
}

var filterFuzzProjections = []string{"i", "d", "s", "i * 2 + 1", "d / 2", "i % 7"}

func runFilterFuzzTrial(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{0, 1, 17, 400, 3000}
	n := sizes[rng.Intn(len(sizes))]
	cat := memCatalog{"fz": randFilterTable(rng, n)}

	nproj := 1 + rng.Intn(3)
	projs := make([]string, nproj)
	for i := range projs {
		projs[i] = filterFuzzProjections[rng.Intn(len(filterFuzzProjections))]
	}
	var conjs []string
	for i := rng.Intn(5); i > 0; i-- {
		conjs = append(conjs, randConjunct(rng))
	}
	sql := "SELECT " + strings.Join(projs, ", ") + " FROM fz"
	if len(conjs) > 0 {
		sql += " WHERE " + strings.Join(conjs, " AND ")
	}
	fail := func(format string, args ...any) {
		t.Fatalf("seed %d, n %d, query %q: %s", seed, n, sql, fmt.Sprintf(format, args...))
	}

	p := planFor(t, cat, sql)
	ser := &Engine{Cat: cat}
	serRes, err := ser.Execute(p)
	if err != nil {
		fail("serial: %v", err)
	}
	oracle, err := gatherOracle(ser, cat, p)
	if err != nil {
		fail("oracle: %v", err)
	}
	if msg := diffResultRows(serRes, oracle); msg != "" {
		fail("serial candidate path vs gather oracle: %s", msg)
	}
	par := &Engine{Cat: cat, Parallel: true, MaxThreads: 4, testChunkRows: 257}
	parRes, err := par.Execute(p)
	if err != nil {
		fail("parallel: %v", err)
	}
	if msg := diffResultRows(parRes, oracle); msg != "" {
		fail("parallel candidate path vs gather oracle: %s", msg)
	}
}

// gatherOracle executes a single-table Project(Scan{Filters}) / Scan plan
// with the pre-candidate-list semantics this PR replaced: per conjunct, a
// full-width boolean vector is materialized and every scanned column is
// gathered at the survivors; projections evaluate over the fully gathered
// batch. It is the executable specification the fuzz harness and the
// BenchmarkScanFilterProject comparison hold the selection-view pipeline
// against.
func gatherOracle(e *Engine, cat Catalog, p plan.Node) (*Result, error) {
	proj, _ := p.(*plan.Project)
	var scan *plan.Scan
	switch x := p.(type) {
	case *plan.Project:
		s, ok := x.Input.(*plan.Scan)
		if !ok {
			return nil, fmt.Errorf("oracle: unsupported plan %T", x.Input)
		}
		scan = s
	case *plan.Scan:
		scan = x
	default:
		return nil, fmt.Errorf("oracle: unsupported plan %T", p)
	}
	src, ok := cat.Source(scan.Table)
	if !ok {
		return nil, fmt.Errorf("oracle: no such table %q", scan.Table)
	}
	nrows := src.NumRows()
	cols := make([]*vec.Vector, len(scan.Cols))
	for i, ci := range scan.Cols {
		full, err := src.Col(ci)
		if err != nil {
			return nil, err
		}
		cols[i] = full.Slice(0, nrows)
	}
	cur := newBatch(cols)
	cur.n = nrows
	gatherAll := func(b *batch, keep []int32) *batch {
		out := make([]*vec.Vector, len(b.cols))
		for i, c := range b.cols {
			out[i] = vec.Gather(c, keep)
		}
		nb := newBatch(out)
		nb.n = len(keep)
		return nb
	}
	if live := src.LiveCands(); live != nil {
		cur = gatherAll(cur, live)
	}
	for _, f := range scan.Filters {
		m := newMemo(e)
		bv, err := m.evalVec(f, cur)
		if err != nil {
			return nil, err
		}
		cur = gatherAll(cur, vec.SelTrue(bv, nil, false))
	}
	out := cur.cols
	sch := scan.Out
	if proj != nil {
		m := newMemo(e)
		out = make([]*vec.Vector, len(proj.Exprs))
		for i, ex := range proj.Exprs {
			v, err := m.evalVecN(ex, cur, cur.n)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		sch = proj.Out
	}
	res := &Result{Cols: out}
	for _, c := range sch {
		res.Names = append(res.Names, c.Name)
	}
	return res, nil
}

// diffResultRows compares two results cell by cell (boxed-value rendering,
// so NULLs and NaN payloads canonicalize identically); empty string = equal.
func diffResultRows(a, b *Result) string {
	if a.NumRows() != b.NumRows() {
		return fmt.Sprintf("%d vs %d rows", a.NumRows(), b.NumRows())
	}
	if len(a.Cols) != len(b.Cols) {
		return fmt.Sprintf("%d vs %d cols", len(a.Cols), len(b.Cols))
	}
	for c := range a.Cols {
		for i := 0; i < a.NumRows(); i++ {
			av, bv := a.Cols[c].Value(i), b.Cols[c].Value(i)
			if av.String() != bv.String() {
				return fmt.Sprintf("cell (row %d, col %d): %s vs %s", i, c, av, bv)
			}
		}
	}
	return ""
}

func compareResultRows(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if msg := diffResultRows(a, b); msg != "" {
		t.Fatalf("%s: %s", label, msg)
	}
}
