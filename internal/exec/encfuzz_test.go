package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"monetlite/internal/mal"
	"monetlite/internal/mtypes"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
)

// Encoded-execution differential fuzzer: the same logical table is built
// twice — once compressed (Table.EncodeColumns), once raw — and every query
// must return identical results from both, under both the serial and the
// parallel engine. The raw table is the oracle; the encoded runs exercise
// filters on FOR/dict codes, dict-code group-by keys and dict-code sort keys.

var encFuzzCities = []string{
	"amsterdam", "berlin", "cairo", "denver", "eindhoven", "florence",
	"geneva", "hamburg",
}

// buildEncFuzzPair returns (encoded, raw) catalogs over identical data:
//
//	id INT      0..n-1                      → FOR
//	a  INT      small domain, 10% NULL      → FOR
//	b  BIGINT   huge base + small range     → FOR
//	s  VARCHAR  8 cities, 10% NULL          → dict
//	d  DOUBLE   random                      → stays raw (mixed-batch case)
func buildEncFuzzPair(t *testing.T, rng *rand.Rand, n int, allowDeletes bool) (memCatalog, memCatalog, int) {
	t.Helper()
	meta := storage.TableMeta{Name: "t", Cols: []storage.ColDef{
		{Name: "id", Typ: mtypes.Int},
		{Name: "a", Typ: mtypes.Int},
		{Name: "b", Typ: mtypes.BigInt},
		{Name: "s", Typ: mtypes.Varchar},
		{Name: "d", Typ: mtypes.Double},
	}}
	idv := vec.New(mtypes.Int, n)
	av := vec.New(mtypes.Int, n)
	bv := vec.New(mtypes.BigInt, n)
	sv := vec.New(mtypes.Varchar, n)
	dv := vec.New(mtypes.Double, n)
	for i := 0; i < n; i++ {
		idv.I32[i] = int32(i)
		if rng.Intn(10) == 0 {
			av.SetNull(i)
		} else {
			av.I32[i] = int32(rng.Intn(20))
		}
		bv.I64[i] = 1_000_000_000_000 + int64(rng.Intn(5000))
		if rng.Intn(10) == 0 {
			sv.SetNull(i)
		} else {
			sv.Str[i] = encFuzzCities[rng.Intn(len(encFuzzCities))]
		}
		dv.F64[i] = float64(rng.Intn(1000)) / 8
	}
	cols := []*vec.Vector{idv, av, bv, sv, dv}
	mkTable := func() *storage.Table {
		tbl := storage.NewMemoryTable(meta)
		clones := make([]*vec.Vector, len(cols))
		for i, c := range cols {
			clones[i] = c.Clone()
		}
		if _, err := tbl.Append(clones, 1); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	encTbl, rawTbl := mkTable(), mkTable()
	// Sometimes delete a random slice of rows (from both tables): encoded
	// kernels must respect candidate lists exactly like the raw kernels.
	if allowDeletes && n > 10 && rng.Intn(2) == 0 {
		var dead []int32
		for i := 0; i < n; i++ {
			if rng.Intn(6) == 0 {
				dead = append(dead, int32(i))
			}
		}
		if _, _, err := encTbl.Delete(dead, 2); err != nil {
			t.Fatal(err)
		}
		if _, _, err := rawTbl.Delete(dead, 2); err != nil {
			t.Fatal(err)
		}
	}
	nEnc, err := encTbl.EncodeColumns()
	if err != nil {
		t.Fatal(err)
	}
	return memCatalog{"t": encTbl}, memCatalog{"t": rawTbl}, nEnc
}

// encFuzzQueries renders the query set with fresh random constants.
func encFuzzQueries(rng *rand.Rand, n int) []string {
	city := encFuzzCities[rng.Intn(len(encFuzzCities))]
	lo, hi := rng.Intn(20), rng.Intn(20)
	if lo > hi {
		lo, hi = hi, lo
	}
	idLo := rng.Intn(n + 1)
	idHi := idLo + rng.Intn(n+1-idLo)
	return []string{
		fmt.Sprintf("SELECT id, a, s FROM t WHERE a < %d", rng.Intn(22)),
		fmt.Sprintf("SELECT count(*), sum(b), min(id), max(a) FROM t WHERE a BETWEEN %d AND %d", lo, hi),
		"SELECT s, count(*), sum(a), avg(d) FROM t GROUP BY s ORDER BY s",
		"SELECT s, count(*) FROM t GROUP BY s", // group order itself must match
		"SELECT id, s FROM t ORDER BY s, id LIMIT 25",
		"SELECT s FROM t ORDER BY s DESC, id LIMIT 17",
		fmt.Sprintf("SELECT s, count(*) FROM t WHERE b >= %d GROUP BY s ORDER BY s", 1_000_000_000_000+rng.Intn(5000)),
		fmt.Sprintf("SELECT id FROM t WHERE s = '%s' ORDER BY id", city),
		fmt.Sprintf("SELECT id FROM t WHERE s > '%s' ORDER BY id DESC LIMIT 30", city),
		fmt.Sprintf("SELECT a, count(*) FROM t WHERE id BETWEEN %d AND %d GROUP BY a ORDER BY a", idLo, idHi),
		fmt.Sprintf("SELECT d FROM t WHERE a = %d ORDER BY id", rng.Intn(20)),
		fmt.Sprintf("SELECT count(*) FROM t WHERE a <> %d AND id >= %d", rng.Intn(20), idLo),
	}
}

func runEncFuzzQuery(t *testing.T, cat memCatalog, q string, parallel bool) [][]string {
	t.Helper()
	e := &Engine{Cat: cat, Parallel: parallel, MaxThreads: 4}
	res, err := e.Execute(planFor(t, cat, q))
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	rows := make([][]string, res.NumRows())
	for i := range rows {
		row := make([]string, len(res.Cols))
		for c := range res.Cols {
			row[c] = res.Cols[c].Value(i).String()
		}
		rows[i] = row
	}
	return rows
}

func TestEncodedExecutionDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 12; iter++ {
		n := []int{1, 7, 60, 500, 1500, 2500}[rng.Intn(6)]
		encCat, rawCat, nEnc := buildEncFuzzPair(t, rng, n, true)
		if n >= 60 && nEnc < 4 {
			t.Fatalf("iter %d n=%d: only %d columns encoded, want ≥4 (id,a,b,s)", iter, n, nEnc)
		}
		for _, q := range encFuzzQueries(rng, n) {
			oracle := runEncFuzzQuery(t, rawCat, q, false)
			for _, mode := range []struct {
				cat      memCatalog
				parallel bool
				name     string
			}{
				{encCat, false, "encoded-serial"},
				{encCat, true, "encoded-parallel"},
				{rawCat, true, "raw-parallel"},
			} {
				got := runEncFuzzQuery(t, mode.cat, q, mode.parallel)
				if len(got) != len(oracle) {
					t.Fatalf("iter %d n=%d %s %q: %d rows vs oracle %d",
						iter, n, mode.name, q, len(got), len(oracle))
				}
				for r := range got {
					for c := range got[r] {
						if got[r][c] != oracle[r][c] {
							t.Fatalf("iter %d n=%d %s %q: cell (%d,%d) %q vs oracle %q",
								iter, n, mode.name, q, r, c, got[r][c], oracle[r][c])
						}
					}
				}
			}
		}
	}
}

// TestEncodedExecutionTrace proves the encoded paths actually fire — results
// matching the oracle is not enough if the engine silently decoded
// everything. Each encoded kernel leaves a distinct MAL-trace marker.
func TestEncodedExecutionTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// No deletes: a candidate-list scan densifies at the projection below
	// the sort, which (correctly) drops the dict sort-key fast path.
	encCat, rawCat, nEnc := buildEncFuzzPair(t, rng, 2048, false)
	if nEnc < 4 {
		t.Fatalf("only %d columns encoded", nEnc)
	}
	run := func(cat memCatalog, q string) string {
		trace := &mal.Program{}
		e := &Engine{Cat: cat, Parallel: true, MaxThreads: 4, Trace: trace}
		if _, err := e.Execute(planFor(t, cat, q)); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return trace.String()
	}
	cases := []struct {
		q    string
		want []string
	}{
		// Scan announces which columns are compressed; a comparison on a
		// FOR column runs once per code (20 values plus NULL).
		{"SELECT count(*) FROM t WHERE a < 10",
			[]string{"optimizer.encoding", "a=for(", "algebra.select", "encoded for(", "domain 21"}},
		// So does BETWEEN.
		{"SELECT count(*) FROM t WHERE a BETWEEN 3 AND 9",
			[]string{"algebra.select", "encoded for(", "domain 21"}},
		// Varchar equality runs once per dictionary entry.
		{"SELECT count(*) FROM t WHERE s = 'berlin'",
			[]string{"algebra.select", "encoded dict(", "domain 9"}},
		// GROUP BY on a dict varchar feeds codes to the grouping kernel.
		{"SELECT s, count(*) FROM t GROUP BY s",
			[]string{"group.group", "dict codes"}},
		// ORDER BY on a dict varchar sorts codes, not strings.
		{"SELECT id, s FROM t ORDER BY s, id LIMIT 10",
			[]string{"sort keys: 1 dict codes"}},
		// IN on a dict column is decided once per dictionary entry (8 cities
		// plus NULL), never by hashing each row's string.
		{"SELECT count(*) FROM t WHERE s IN ('berlin', 'cairo')",
			[]string{"algebra.select", "encoded dict(8,", "domain 9"}},
		// So are LIKE and an OR of comparisons on one FOR column.
		{"SELECT count(*) FROM t WHERE s NOT LIKE '%er%'",
			[]string{"encoded dict(8,", "domain 9"}},
		{"SELECT count(*) FROM t WHERE a = 3 OR a > 17",
			[]string{"encoded for(", "domain 21"}},
	}
	for _, tc := range cases {
		out := run(encCat, tc.q)
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Fatalf("%q: marker %q missing from trace:\n%s", tc.q, w, out)
			}
		}
		for _, w := range []string{"algebra.inselect", "algebra.likeselect"} {
			if strings.Contains(out, w) {
				t.Fatalf("%q: encoded table trace reached the per-row kernel %q:\n%s", tc.q, w, out)
			}
		}
		// The raw oracle table must not take any encoded path.
		rawOut := run(rawCat, tc.q)
		for _, w := range []string{"encoded ", "dict codes"} {
			if strings.Contains(rawOut, w) {
				t.Fatalf("%q: raw table trace has encoded marker %q:\n%s", tc.q, w, rawOut)
			}
		}
	}
}

// TestEncodedSelectOrder pins where a comparison on an encoded column runs:
// over the value domain only when that has no more entries than the rows
// tested, else through the hash index as on a raw column. b is FOR-encoded over
// about 5000 codes in 2048 rows, a over 20 codes plus NULL.
func TestEncodedSelectOrder(t *testing.T) {
	encCat, _, _ := buildEncFuzzPair(t, rand.New(rand.NewSource(7)), 2048, false)
	src, _ := encCat.Source("t")
	if en := src.EncodedCol(2); en == nil || en.Enc != vec.EncFOR || en.CodeMax <= 2048 {
		t.Fatalf("column b encoded as %+v, want FOR over more codes than rows", en)
	}
	cases := []struct {
		q          string
		chunkRows  int
		want, deny string
	}{
		// A point lookup on the wide column reaches the hash index.
		{"SELECT count(*) FROM t WHERE b = 1000000000042", 0, "algebra.select(hashidx)", "domain"},
		// The small domain still wins over the rows, in a chunk too.
		{"SELECT count(*) FROM t WHERE a = 3", 0, "algebra.select(encoded for(base=0,5b), domain 21)", "hashidx"},
	}
	for _, tc := range cases {
		e := &Engine{Trace: &mal.Program{}, Parallel: tc.chunkRows > 0, MaxThreads: 4, testChunkRows: tc.chunkRows}
		runEngine(t, encCat, tc.q, e)
		out := e.Trace.String()
		if !strings.Contains(out, tc.want) || strings.Contains(out, tc.deny) {
			t.Fatalf("%q (chunk rows %d): want %q and no %q in trace:\n%s", tc.q, tc.chunkRows, tc.want, tc.deny, out)
		}
	}
}

// Domain-evaluation differential: one-column conjuncts the scan decides once
// per value of an encoded column's domain (IN, NOT IN, LIKE, NOT LIKE, ORs of
// comparisons, IS [NOT] NULL, CASE) must select exactly the rows the raw
// engine does — on dict, FOR and RLE columns holding NULLs, with the encoding
// covering every row or only a prefix (a pending append tail), serial and
// chunked. Every trial derives its own seed; a failure names it.

const domainFuzzBaseSeed = 20261015

// buildDomainFuzzPair returns (encoded, raw) catalogs over identical rows:
//
//	id INT            0..n-1                       → FOR
//	a  INT            0..19, 10% NULL              → FOR
//	m  DECIMAL(9,2)   0.25 steps up to 5, NULLs    → FOR
//	s  VARCHAR        8 cities, 10% NULL           → dict
//	r  INT            runs of 0..6 and NULL        → RLE
//	c  VARCHAR        runs of cities and NULL      → RLE
//
// With tail > 0 the last tail rows are appended after encoding, so the
// encodings stop short of the snapshot.
func buildDomainFuzzPair(t *testing.T, rng *rand.Rand, n, tail int) (memCatalog, memCatalog) {
	t.Helper()
	meta := storage.TableMeta{Name: "t", Cols: []storage.ColDef{
		{Name: "id", Typ: mtypes.Int},
		{Name: "a", Typ: mtypes.Int},
		{Name: "m", Typ: mtypes.Decimal(9, 2)},
		{Name: "s", Typ: mtypes.Varchar},
		{Name: "r", Typ: mtypes.Int},
		{Name: "c", Typ: mtypes.Varchar},
	}}
	cols := make([]*vec.Vector, len(meta.Cols))
	for i, cd := range meta.Cols {
		cols[i] = vec.New(cd.Typ, n)
	}
	runLeft, runVal := 0, 0
	for i := 0; i < n; i++ {
		cols[0].I32[i] = int32(i)
		if rng.Intn(10) == 0 {
			cols[1].SetNull(i)
		} else {
			cols[1].I32[i] = int32(rng.Intn(20))
		}
		if rng.Intn(8) == 0 {
			cols[2].SetNull(i)
		} else {
			cols[2].I64[i] = int64(25 * rng.Intn(21))
		}
		if rng.Intn(10) == 0 {
			cols[3].SetNull(i)
		} else {
			cols[3].Str[i] = encFuzzCities[rng.Intn(len(encFuzzCities))]
		}
		if runLeft == 0 {
			runLeft, runVal = 1+rng.Intn(80), rng.Intn(8) // 7 = a NULL run
		}
		runLeft--
		if runVal == 7 {
			cols[4].SetNull(i)
			cols[5].SetNull(i)
		} else {
			cols[4].I32[i] = int32(runVal)
			cols[5].Str[i] = encFuzzCities[runVal]
		}
	}
	slice := func(lo, hi int) []*vec.Vector {
		out := make([]*vec.Vector, len(cols))
		for i, c := range cols {
			out[i] = c.Slice(lo, hi).Clone()
		}
		return out
	}
	encTbl, rawTbl := storage.NewMemoryTable(meta), storage.NewMemoryTable(meta)
	if _, err := rawTbl.Append(slice(0, n), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := encTbl.Append(slice(0, n-tail), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := encTbl.EncodeColumns(); err != nil {
		t.Fatal(err)
	}
	if tail > 0 {
		if _, err := encTbl.Append(slice(n-tail, n), 2); err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(3) == 0 {
		var dead []int32
		for i := 0; i < n; i++ {
			if rng.Intn(5) == 0 {
				dead = append(dead, int32(i))
			}
		}
		for _, tbl := range []*storage.Table{encTbl, rawTbl} {
			if _, _, err := tbl.Delete(dead, 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	return memCatalog{"t": encTbl}, memCatalog{"t": rawTbl}
}

// domainFuzzPredicates draws one-column predicates over a, m, s, r and c.
func domainFuzzPredicates(rng *rand.Rand) []string {
	city := func() string { return "'" + encFuzzCities[rng.Intn(len(encFuzzCities))] + "'" }
	num := func() int { return rng.Intn(22) - 1 }
	maybeNull := func() string {
		if rng.Intn(3) == 0 {
			return ", NULL"
		}
		return ""
	}
	likes := []string{"%er%", "b%", "%n", "_a%", "%a%e%", "%", "cairo", "%r%r%"}
	var out []string
	for _, col := range []string{"a", "r"} {
		out = append(out,
			fmt.Sprintf("%s IN (%d, %d%s)", col, num(), num(), maybeNull()),
			fmt.Sprintf("%s NOT IN (%d, %d%s)", col, num(), num(), maybeNull()),
			fmt.Sprintf("NOT (%s IN (%d%s))", col, num(), maybeNull()),
			fmt.Sprintf("(%s = %d OR %s > %d)", col, num(), col, num()),
			fmt.Sprintf("(%s < %d OR %s IS NULL)", col, num(), col),
			fmt.Sprintf("%s IS NULL", col),
			fmt.Sprintf("%s IS NOT NULL", col),
			fmt.Sprintf("CASE WHEN %s > %d THEN 1 ELSE 0 END = 1", col, num()),
			fmt.Sprintf("%s + 1 <> %d", col, num()),
		)
	}
	for _, col := range []string{"s", "c"} {
		out = append(out,
			fmt.Sprintf("%s IN (%s, %s%s)", col, city(), city(), maybeNull()),
			fmt.Sprintf("%s NOT IN (%s%s)", col, city(), maybeNull()),
			fmt.Sprintf("%s LIKE '%s'", col, likes[rng.Intn(len(likes))]),
			fmt.Sprintf("%s NOT LIKE '%s'", col, likes[rng.Intn(len(likes))]),
			fmt.Sprintf("(%s = %s OR %s > %s)", col, city(), col, city()),
			fmt.Sprintf("%s IS NULL", col),
			fmt.Sprintf("%s IS NOT NULL", col),
		)
	}
	m := func() string { return fmt.Sprintf("%d.%02d", rng.Intn(6), 25*rng.Intn(4)) }
	return append(out,
		fmt.Sprintf("m IN (%s, %s%s)", m(), m(), maybeNull()),
		fmt.Sprintf("m NOT IN (%s%s)", m(), maybeNull()),
		fmt.Sprintf("(m > %s OR m IS NULL)", m()),
	)
}

func TestEncodedDomainDifferential(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 8
	}
	fired := map[string]bool{}
	for trial := 0; trial < trials; trial++ {
		runDomainFuzzTrial(t, domainFuzzBaseSeed+int64(trial), fired)
	}
	// The trials must have exercised the path they check.
	for _, enc := range []string{"dict", "for", "rle"} {
		for _, cover := range []string{"full", "partial"} {
			if !fired[enc+" "+cover] {
				t.Errorf("domain evaluation never ran on a %s column with %s coverage", enc, cover)
			}
		}
	}
}

// runDomainFuzzTrial runs one seed's predicates and records in fired which
// encoding kinds and coverages ("rle partial") the serial scans evaluated
// over their domain.
func runDomainFuzzTrial(t *testing.T, seed int64, fired map[string]bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := []int{1, 9, 120, 700, 1800}[rng.Intn(5)]
	tail := 0
	if n > 1 && rng.Intn(2) == 0 {
		tail = 1 + rng.Intn(n/2)
	}
	encCat, rawCat := buildDomainFuzzPair(t, rng, n, tail)
	if n >= 700 {
		src, _ := encCat.Source("t")
		for ci, want := range []vec.Encoding{vec.EncFOR, vec.EncFOR, vec.EncFOR, vec.EncDict, vec.EncRLE, vec.EncRLE} {
			en := src.EncodedCol(ci)
			if en == nil || en.Enc != want || en.N != n-tail {
				t.Fatalf("seed %d: column %d encoded as %+v, want %s over %d rows", seed, ci, en, want, n-tail)
			}
		}
	}
	for _, pred := range domainFuzzPredicates(rng) {
		idLo := rng.Intn(n)
		for _, q := range []string{
			fmt.Sprintf("SELECT id FROM t WHERE %s ORDER BY id", pred),
			fmt.Sprintf("SELECT count(*) FROM t WHERE id >= %d AND %s", idLo, pred),
		} {
			oracle := resultRows(runEngine(t, rawCat, q, &Engine{}))
			serial := &Engine{Trace: &mal.Program{}}
			chunked := &Engine{Parallel: true, MaxThreads: 4, testChunkRows: 16 + rng.Intn(400)}
			for _, mode := range []struct {
				name string
				e    *Engine
			}{{"serial", serial}, {fmt.Sprintf("chunked(%d)", chunked.testChunkRows), chunked}} {
				got := resultRows(runEngine(t, encCat, q, mode.e))
				if strings.Join(got, "\n") != strings.Join(oracle, "\n") {
					t.Fatalf("seed %d (n=%d tail=%d) %s %q:\n got    %v\n oracle %v",
						seed, n, tail, mode.name, q, got, oracle)
				}
			}
			cover := "full"
			if tail > 0 {
				cover = "partial"
			}
			for _, in := range serial.Trace.Instrs {
				if in.Op == "algebra.select" && len(in.Args) == 2 && strings.HasPrefix(in.Args[1], "domain ") {
					enc, _, _ := strings.Cut(strings.TrimPrefix(in.Args[0], "encoded "), "(")
					fired[enc+" "+cover] = true
				}
			}
		}
	}
}

func runEngine(t *testing.T, cat memCatalog, q string, e *Engine) *Result {
	t.Helper()
	e.Cat = cat
	res, err := e.Execute(planFor(t, cat, q))
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}
