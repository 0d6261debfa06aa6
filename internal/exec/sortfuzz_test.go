package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"monetlite/internal/mal"
	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
)

// Randomized differential sort-test harness, same shrinking convention as
// joinfuzz_test.go: for random tables with duplicate keys, NULL keys, NaN
// doubles, signed zeros, empty inputs and skewed distributions, the parallel
// merge sort (typed code kernels, per-chunk runs + k-way merge) and the
// fused TopN operator must both be permutation-identical to the serial
// vec.SortOrder oracle — asserted through a distinct row-id payload column,
// so a stable-order violation on tied keys cannot hide. Every trial derives
// its own seed from the base seed; failures print that seed and the tables,
// so one trial can be replayed and shrunk in isolation.

const sortFuzzBaseSeed = 20260729

func TestSortFuzzDifferential(t *testing.T) {
	trials := 80
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		runSortFuzzTrial(t, sortFuzzBaseSeed+int64(trial))
	}
}

// Re-run one seed here when shrinking a fuzzer failure.
func TestSortFuzzRegressions(t *testing.T) {
	for _, seed := range []int64{sortFuzzBaseSeed} {
		runSortFuzzTrial(t, seed)
	}
}

// fuzzSortKeyTypes: every key kind the sort kernels encode.
var fuzzSortKeyTypes = []mtypes.Type{
	mtypes.Int, mtypes.BigInt, mtypes.SmallInt, mtypes.Double,
	mtypes.Varchar, mtypes.Decimal(9, 2), mtypes.Date, mtypes.Bool,
}

// randSortColumn draws one key column: small domain (lots of ties, so
// stability matters), ~20% NULLs, for doubles non-canonical NaN payloads and
// signed zeros, for varchars shared prefixes past the 8-byte code.
func randSortColumn(rng *rand.Rand, typ mtypes.Type, n int, skew bool) *vec.Vector {
	v := vec.New(typ, n)
	domain := 2 + rng.Intn(8)
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 {
			if typ.Kind == mtypes.KDouble && rng.Intn(2) == 0 {
				v.F64[i] = math.Float64frombits(0x7ff8_0000_0000_0001 + uint64(rng.Intn(9)))
			} else {
				v.SetNull(i)
			}
			continue
		}
		x := int64(rng.Intn(domain)) - 2
		if skew && rng.Intn(3) > 0 {
			x = 1 // hot value: long runs of ties
		}
		switch typ.Kind {
		case mtypes.KDouble:
			switch rng.Intn(8) {
			case 0:
				v.F64[i] = math.Copysign(0, -1)
			case 1:
				v.F64[i] = 0
			default:
				v.F64[i] = float64(x) + 0.5
			}
		case mtypes.KVarchar:
			if rng.Intn(4) == 0 {
				v.Str[i] = fmt.Sprintf("shared-prefix-%d", x)
			} else {
				v.Str[i] = fmt.Sprintf("k%d", x)
			}
		case mtypes.KBigInt, mtypes.KDecimal:
			v.I64[i] = x
		case mtypes.KInt, mtypes.KDate:
			v.I32[i] = int32(x)
		case mtypes.KSmallInt:
			v.I16[i] = int16(x)
		default:
			v.I8[i] = int8((x + 2) % 2)
		}
	}
	return v
}

func runSortFuzzTrial(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(250)
	if rng.Intn(8) == 0 {
		n = 0 // empty input
	}
	nkeys := 1 + rng.Intn(3)
	skew := rng.Intn(3) == 0

	cols := make([]storage.ColDef, 0, nkeys+1)
	vecs := make([]*vec.Vector, 0, nkeys+1)
	keys := make([]vec.SortKey, nkeys)
	orderBy := make([]string, nkeys)
	for i := 0; i < nkeys; i++ {
		typ := fuzzSortKeyTypes[rng.Intn(len(fuzzSortKeyTypes))]
		kv := randSortColumn(rng, typ, n, skew)
		desc := rng.Intn(2) == 0
		keys[i] = vec.SortKey{Vec: kv, Desc: desc}
		dir := "ASC"
		if desc {
			dir = "DESC"
		}
		orderBy[i] = fmt.Sprintf("k%d %s", i+1, dir)
		cols = append(cols, storage.ColDef{Name: fmt.Sprintf("k%d", i+1), Typ: typ})
		vecs = append(vecs, kv)
	}
	// Distinct row ids make permutation identity observable under key ties.
	pay := vec.New(mtypes.BigInt, n)
	for i := 0; i < n; i++ {
		pay.I64[i] = int64(i)
	}
	cols = append(cols, storage.ColDef{Name: "pay", Typ: mtypes.BigInt})
	vecs = append(vecs, pay)
	tbl := storage.NewMemoryTable(storage.TableMeta{Name: "s", Cols: cols})
	if n > 0 {
		if _, err := tbl.Append(vecs, 1); err != nil {
			panic(err)
		}
	}
	cat := memCatalog{"s": tbl}

	// The oracle permutation: serial stable closure-comparator sort.
	oracle := vec.SortOrder(keys, n)

	limit := rng.Intn(n + 3)
	offset := 0
	if rng.Intn(2) == 0 {
		offset = rng.Intn(n + 2)
	}

	queries := []struct {
		kind    string
		sql     string
		lo, hi  int // oracle slice
		wantTop bool
	}{
		{"sort", fmt.Sprintf("SELECT * FROM s ORDER BY %s", strings.Join(orderBy, ", ")), 0, n, false},
		{"topn", fmt.Sprintf("SELECT * FROM s ORDER BY %s LIMIT %d OFFSET %d",
			strings.Join(orderBy, ", "), limit, offset),
			min(offset, n), min(offset+limit, n), true},
	}
	for _, q := range queries {
		p := planFor(t, cat, q.sql)
		if q.wantTop {
			if ps := plan.PlanString(p); !strings.Contains(ps, "TOPN") {
				t.Fatalf("seed %d: LIMIT query did not fuse to TopN:\n%s", seed, ps)
			}
		}
		ser := &Engine{Cat: cat, Parallel: false}
		serRes, err := ser.Execute(p)
		if err != nil {
			t.Fatalf("seed %d %s: serial: %v", seed, q.kind, err)
		}
		// Force multi-run parallel sorts / multi-heap TopN at fuzz scale.
		par := &Engine{Cat: cat, Parallel: true, MaxThreads: 4}
		par.testChunkRows = 1 + rng.Intn(24)
		parRes, err := par.Execute(p)
		if err != nil {
			t.Fatalf("seed %d %s: parallel: %v", seed, q.kind, err)
		}

		want := make([]string, 0, q.hi-q.lo)
		for _, row := range oracle[q.lo:q.hi] {
			var sb strings.Builder
			for _, kv := range vecs {
				sb.WriteString(kv.Value(int(row)).String())
				sb.WriteByte('|')
			}
			want = append(want, sb.String())
		}
		for _, res := range []struct {
			label string
			r     *Result
		}{{"serial", serRes}, {"parallel", parRes}} {
			got := resultRows(res.r)
			if len(got) != len(want) {
				dumpSortTable(t, vecs, n)
				t.Fatalf("seed %d %s: %s returned %d rows, oracle %d\n sql: %s",
					seed, q.kind, res.label, len(got), len(want), q.sql)
			}
			for i := range got {
				if got[i] != want[i] {
					dumpSortTable(t, vecs, n)
					t.Fatalf("seed %d %s: %s row %d differs\n got:    %s\n oracle: %s\n sql: %s",
						seed, q.kind, res.label, i, got[i], want[i], q.sql)
				}
			}
		}
	}
}

func dumpSortTable(t *testing.T, vecs []*vec.Vector, n int) {
	t.Helper()
	if n > 40 {
		t.Logf("s: %d rows (too big to dump)", n)
		return
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "s (%d rows):\n", n)
	for i := 0; i < n; i++ {
		for _, v := range vecs {
			fmt.Fprintf(&sb, "%s\t", v.Value(i))
		}
		fmt.Fprintf(&sb, "#%d\n", i)
	}
	t.Log(sb.String())
}

// A sort big enough for mal.Split to cut into runs naturally (no test
// override) must agree with the serial engine row for row and emit the
// multi-run trace markers; the TopN form must emit the bounded-heap marker
// and never materialize more than k rows.
func TestParallelSortNaturalChunking(t *testing.T) {
	n := 3 * mal.MinChunkRows
	rng := rand.New(rand.NewSource(42))
	k := vec.New(mtypes.Int, n)
	pay := vec.New(mtypes.BigInt, n)
	for i := 0; i < n; i++ {
		k.I32[i] = int32(rng.Intn(1000)) // heavy ties: stability must hold
		pay.I64[i] = int64(i)
	}
	tbl := storage.NewMemoryTable(storage.TableMeta{Name: "s", Cols: []storage.ColDef{
		{Name: "k1", Typ: mtypes.Int}, {Name: "pay", Typ: mtypes.BigInt}}})
	if _, err := tbl.Append([]*vec.Vector{k, pay}, 1); err != nil {
		t.Fatal(err)
	}
	cat := memCatalog{"s": tbl}

	for _, q := range []struct {
		sql, marker string
	}{
		{"SELECT * FROM s ORDER BY k1 DESC", "algebra.sort"},
		{"SELECT * FROM s ORDER BY k1 DESC LIMIT 25", "algebra.topn"},
	} {
		p := planFor(t, cat, q.sql)
		ser := &Engine{Cat: cat, Parallel: false}
		serRes, err := ser.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		trace := &mal.Program{}
		par := &Engine{Cat: cat, Parallel: true, MaxThreads: 4, Trace: trace}
		parRes, err := par.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		serRows, parRows := resultRows(serRes), resultRows(parRes)
		if len(serRows) != len(parRows) {
			t.Fatalf("%s: serial %d rows, parallel %d", q.sql, len(serRows), len(parRows))
		}
		for i := range serRows {
			if serRows[i] != parRows[i] {
				t.Fatalf("%s: row %d differs\n serial:   %s\n parallel: %s", q.sql, i, serRows[i], parRows[i])
			}
		}
		out := trace.String()
		if !strings.Contains(out, "chunks (sort)") {
			t.Fatalf("%s: parallel engine did not chunk the sort:\n%s", q.sql, out)
		}
		if !strings.Contains(out, q.marker) {
			t.Fatalf("%s: trace missing %s:\n%s", q.sql, q.marker, out)
		}
	}
}

func benchSortCatalog(b *testing.B, n int) memCatalog {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	k1 := vec.New(mtypes.Int, n)
	k2 := vec.New(mtypes.Varchar, n)
	pay := vec.New(mtypes.BigInt, n)
	for i := 0; i < n; i++ {
		k1.I32[i] = rng.Int31()
		k2.Str[i] = fmt.Sprintf("c-%06d", rng.Intn(n))
		pay.I64[i] = int64(i)
	}
	tbl := storage.NewMemoryTable(storage.TableMeta{Name: "s", Cols: []storage.ColDef{
		{Name: "k1", Typ: mtypes.Int}, {Name: "k2", Typ: mtypes.Varchar},
		{Name: "pay", Typ: mtypes.BigInt}}})
	if _, err := tbl.Append([]*vec.Vector{k1, k2, pay}, 1); err != nil {
		b.Fatal(err)
	}
	return memCatalog{"s": tbl}
}

func benchmarkOrderedQuery(b *testing.B, sql string, parallel bool) {
	n := 1 << 18
	cat := benchSortCatalog(b, n)
	p := planForBench(b, cat, sql)
	e := &Engine{Cat: cat, Parallel: parallel}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(p); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(n) * 4)
}

// BenchmarkSortParallel / BenchmarkSortSerial: full ORDER BY through the
// engine — typed-kernel chunked merge sort vs the serial closure-comparator
// oracle. Run once per CI build so wall-clock regressions surface in logs.
func BenchmarkSortSerial(b *testing.B) {
	benchmarkOrderedQuery(b, "SELECT * FROM s ORDER BY k1", false)
}

func BenchmarkSortParallel(b *testing.B) {
	benchmarkOrderedQuery(b, "SELECT * FROM s ORDER BY k1", true)
}

// BenchmarkTopN / BenchmarkTopNSerial: the fused bounded-heap ORDER BY …
// LIMIT on both engines. Compare against BenchmarkSort* to see what the same
// ordered query costs as a full sort plus slice (the pre-fusion plan).
func BenchmarkTopN(b *testing.B) {
	benchmarkOrderedQuery(b, "SELECT * FROM s ORDER BY k1 LIMIT 10", true)
}

func BenchmarkTopNSerial(b *testing.B) {
	benchmarkOrderedQuery(b, "SELECT * FROM s ORDER BY k1 LIMIT 10", false)
}

// ORDER BY … LIMIT 0 keeps no row on every chunk count: the one-chunk run
// once returned the empty heap as a nil selection, which gathers every row.
func TestTopNLimitZero(t *testing.T) {
	cat := buildTable(t, 600)
	p := planFor(t, cat, "SELECT i FROM nums ORDER BY i DESC LIMIT 0")
	for _, e := range []*Engine{
		{Cat: cat},
		{Cat: cat, Parallel: true, MaxThreads: 4, testChunkRows: 100},
	} {
		e.Trace = &mal.Program{}
		res, err := e.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 0 || e.Trace.Count("algebra.topn") != 1 {
			t.Fatalf("parallel=%v: %d rows\n%s", e.Parallel, res.NumRows(), e.Trace)
		}
	}
}
