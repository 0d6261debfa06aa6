package exec

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"monetlite/internal/mal"
	"monetlite/internal/mtypes"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
)

// buildDistinctTable builds a randomized table for the parallel aggregate
// differential: small-cardinality keys (so groups straddle every chunk),
// NULLs in both keys and aggregate arguments, and a double column with NaN
// nulls whose values are multiples of 1/4 — exactly representable, so
// partial float sums are exact in any order and the parallel result must
// equal the serial one bit for bit. With encode the varchar key grp is
// dictionary-coded (and then grouped on its codes).
func buildDistinctTable(t *testing.T, rng *rand.Rand, n int, encode bool) memCatalog {
	t.Helper()
	tbl := storage.NewMemoryTable(storage.TableMeta{Name: "nums", Cols: []storage.ColDef{
		{Name: "i", Typ: mtypes.Int},
		{Name: "k", Typ: mtypes.Int},
		{Name: "grp", Typ: mtypes.Varchar},
		{Name: "d", Typ: mtypes.Double},
	}})
	iv := vec.New(mtypes.Int, n)
	kv := vec.New(mtypes.Int, n)
	gv := vec.New(mtypes.Varchar, n)
	dv := vec.New(mtypes.Double, n)
	groups := []string{"a", "b", "c", "dd", "ee"}
	for r := 0; r < n; r++ {
		iv.I32[r] = rng.Int31n(40)
		if rng.Intn(20) == 0 {
			iv.SetNull(r)
		}
		kv.I32[r] = rng.Int31n(4)
		if rng.Intn(15) == 0 {
			kv.SetNull(r)
		}
		gv.Str[r] = groups[rng.Intn(len(groups))]
		if rng.Intn(12) == 0 {
			gv.SetNull(r)
		}
		dv.F64[r] = float64(rng.Intn(25)) / 4
		if rng.Intn(10) == 0 {
			dv.SetNull(r)
		}
	}
	if _, err := tbl.Append([]*vec.Vector{iv, kv, gv, dv}, 1); err != nil {
		t.Fatal(err)
	}
	if encode {
		if _, err := tbl.EncodeColumns(); err != nil {
			t.Fatal(err)
		}
	}
	return memCatalog{"nums": tbl}
}

// aggDiffQueries covers the global and grouped forms of every aggregate kind
// — the mergeable ones (SUM, COUNT, COUNT(*), MIN, MAX, AVG) and the blocking
// ones (MEDIAN, DISTINCT) — alone and mixed, over NULL keys and values and
// over filters that leave chunks, or the whole input, empty.
var aggDiffQueries = []string{
	"SELECT grp, count(distinct i) FROM nums GROUP BY grp",
	"SELECT grp, sum(distinct i), count(*) FROM nums GROUP BY grp",
	"SELECT grp, k, count(distinct d), avg(i) FROM nums GROUP BY grp, k",
	"SELECT grp, count(distinct i), sum(d) FROM nums WHERE i > 10 GROUP BY grp",
	"SELECT k, count(distinct grp), min(d), max(i) FROM nums GROUP BY k",
	"SELECT grp, avg(distinct d), count(distinct k) FROM nums GROUP BY grp",
	"SELECT grp, median(i), median(d), sum(i), count(i), count(*), min(grp), max(d), avg(d) FROM nums GROUP BY grp",
	"SELECT k, median(d), count(distinct i), sum(distinct d), min(distinct i) FROM nums GROUP BY k",
	"SELECT grp, sum(i), median(i), count(distinct d), count(*) FROM nums WHERE i < 0 GROUP BY grp",
	"SELECT count(*), count(i), sum(i), sum(d), min(i), max(grp), avg(i), avg(d), median(d) FROM nums",
	"SELECT count(distinct i), sum(distinct d), avg(distinct i), count(*), median(i) FROM nums",
	"SELECT count(distinct grp), min(d), median(d) FROM nums WHERE k = 2",
	"SELECT count(*), sum(i), median(d), count(distinct i), avg(d) FROM nums WHERE i < 0",
}

// The serial and the chunked aggregate must both equal the brute-force
// reference row-for-row — including row ORDER, with no ORDER BY in the query:
// groups are numbered in first-appearance order. Chunks are forced small
// (1..24 rows, a per-trial seed picks the size and the data) so every query
// crosses many chunk boundaries; half the trials group on dictionary codes.
func TestParallelDistinctAggDifferential(t *testing.T) {
	for trial := 0; trial < 24; trial++ {
		seed := int64(7700 + trial)
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(400)
		if trial == 0 {
			n = 0
		}
		encode := trial%2 == 1
		cat := buildDistinctTable(t, rng, n, encode)
		chunk := 1 + rng.Intn(24)
		tbl := cat["nums"]
		dictKey := false
		if en := tbl.EncodedFor(tbl.Version(), 2); en != nil && en.Enc == vec.EncDict {
			dictKey = true
		}
		for _, q := range aggDiffQueries {
			want, inRows := aggReference(t, cat, q)
			ser, err := (&Engine{Cat: cat, Parallel: false}).Execute(planFor(t, cat, q))
			if err != nil {
				t.Fatalf("seed %d %s serial: %v", seed, q, err)
			}
			trace := &mal.Program{}
			par, err := (&Engine{Cat: cat, Parallel: true, MaxThreads: 4, Trace: trace, testChunkRows: chunk}).Execute(planFor(t, cat, q))
			if err != nil {
				t.Fatalf("seed %d %s parallel: %v", seed, q, err)
			}
			out := trace.String()
			grouped := strings.Contains(q, "GROUP BY")
			if inRows > chunk {
				if !strings.Contains(out, "chunks (grouped)") && !strings.Contains(out, "chunks);") ||
					!strings.Contains(out, "(merged)") && !strings.Contains(out, "(blocking)") {
					t.Fatalf("seed %d %s: did not take the chunked aggregate:\n%s", seed, q, out)
				}
				if grouped && !strings.Contains(out, "(parallel merge)") {
					t.Fatalf("seed %d %s: no keyed merge:\n%s", seed, q, out)
				}
				if grouped && dictKey && strings.HasPrefix(q, "SELECT grp,") && !strings.Contains(out, "dict codes") {
					t.Fatalf("seed %d %s: dictionary-coded key not grouped on codes:\n%s", seed, q, out)
				}
			}
			for _, run := range []struct {
				name string
				res  *Result
			}{{"serial", ser}, {"chunked", par}} {
				got := resultRows(run.res)
				if len(got) != len(want) {
					t.Fatalf("seed %d %s %s: %d rows, reference %d", seed, q, run.name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d (chunk %d, n %d) %s: %s row %d differs\n got:       %s\n reference: %s",
							seed, chunk, n, q, run.name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// aggReference is the brute-force oracle for aggDiffQueries. It interprets
// their one shape — SELECT group columns and aggregates FROM nums, an
// optional WHERE <column> <op> <integer> and an optional GROUP BY — row by
// row: a map from key tuple to the group's accumulated values, rendered in
// first-appearance order as resultRows renders a result. It is exact for the
// table's inputs, integers and doubles that are multiples of 1/4. It also
// returns the number of rows the aggregate reads (the rows WHERE keeps).
func aggReference(t *testing.T, cat memCatalog, q string) ([]string, int) {
	t.Helper()
	src, _ := cat.Source("nums")
	col := func(name string) *vec.Vector {
		v, err := src.Col(src.Meta().ColIndex(name))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	sel, rest, _ := strings.Cut(strings.TrimPrefix(q, "SELECT "), " FROM nums")
	where, groupBy, _ := strings.Cut(rest, " GROUP BY ")
	keep := func(int) bool { return true }
	if w, ok := strings.CutPrefix(where, " WHERE "); ok {
		f := strings.Fields(w)
		v := col(f[0])
		c, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		keep = func(r int) bool {
			if v.IsNull(r) {
				return false
			}
			switch x := v.Value(r).I; f[1] {
			case "<":
				return x < c
			case ">":
				return x > c
			default:
				return x == c
			}
		}
	}
	var keys []*vec.Vector
	if groupBy != "" {
		for _, k := range strings.Split(groupBy, ", ") {
			keys = append(keys, col(k))
		}
	}
	// One accumulator per group: the first row, the row count, and per
	// select item the non-NULL argument values (each once for DISTINCT).
	type acc struct {
		first, rows int
		vals        [][]mtypes.Value
		seen        []map[string]bool
	}
	items := strings.Split(sel, ", ")
	groups := map[string]*acc{}
	var order []*acc
	inRows := 0
	for r := 0; r < src.NumRows(); r++ {
		if !keep(r) {
			continue
		}
		inRows++
		var tuple []string
		for _, k := range keys {
			tuple = append(tuple, k.Value(r).String())
		}
		g := groups[strings.Join(tuple, "\x00")]
		if g == nil {
			g = &acc{first: r, vals: make([][]mtypes.Value, len(items)), seen: make([]map[string]bool, len(items))}
			groups[strings.Join(tuple, "\x00")] = g
			order = append(order, g)
		}
		g.rows++
		for i, it := range items {
			_, arg, ok := strings.Cut(strings.TrimSuffix(it, ")"), "(")
			if !ok || arg == "*" {
				continue
			}
			arg, distinct := strings.CutPrefix(arg, "distinct ")
			v := col(arg).Value(r)
			if v.Null {
				continue
			}
			if distinct {
				if g.seen[i] == nil {
					g.seen[i] = map[string]bool{}
				}
				if g.seen[i][v.String()] {
					continue
				}
				g.seen[i][v.String()] = true
			}
			g.vals[i] = append(g.vals[i], v)
		}
	}
	if len(keys) == 0 && len(order) == 0 {
		order = append(order, &acc{vals: make([][]mtypes.Value, len(items))}) // a global aggregate has one row
	}
	var rows []string
	for _, g := range order {
		var sb strings.Builder
		for i, it := range items {
			fn, arg, ok := strings.Cut(strings.TrimSuffix(it, ")"), "(")
			if !ok {
				sb.WriteString(col(it).Value(g.first).String() + "|")
				continue
			}
			typ := mtypes.BigInt
			if arg != "*" {
				typ = col(strings.TrimPrefix(arg, "distinct ")).Typ
			}
			sb.WriteString(refAggregate(fn, arg, g.rows, g.vals[i], typ).String() + "|")
		}
		rows = append(rows, sb.String())
	}
	return rows, inRows
}

// refAggregate finalizes one aggregate of aggReference from a group's row
// count and non-NULL argument values (argument type typ).
func refAggregate(fn, arg string, rows int, vals []mtypes.Value, typ mtypes.Type) mtypes.Value {
	if fn == "count" {
		if arg == "*" {
			return mtypes.NewInt(mtypes.BigInt, int64(rows))
		}
		return mtypes.NewInt(mtypes.BigInt, int64(len(vals)))
	}
	resTyp := typ
	switch fn {
	case "avg", "median":
		resTyp = mtypes.Double
	case "sum":
		if typ.Kind != mtypes.KDouble {
			resTyp = mtypes.BigInt
		}
	}
	if len(vals) == 0 {
		return mtypes.NullValue(resTyp)
	}
	fs := make([]float64, len(vals))
	isum, fsum := int64(0), 0.0
	for i, v := range vals {
		fs[i] = float64(v.I)
		if typ.Kind == mtypes.KDouble {
			fs[i] = v.F
		}
		isum += v.I
		fsum += fs[i]
	}
	switch fn {
	case "sum":
		if typ.Kind == mtypes.KDouble {
			return mtypes.NewDouble(fsum)
		}
		return mtypes.NewInt(mtypes.BigInt, isum)
	case "avg":
		return mtypes.NewDouble(fsum / float64(len(vals)))
	case "median":
		sort.Float64s(fs)
		if m := len(fs) / 2; len(fs)%2 == 0 {
			return mtypes.NewDouble((fs[m-1] + fs[m]) / 2)
		} else {
			return mtypes.NewDouble(fs[m])
		}
	}
	best := vals[0]
	for _, v := range vals[1:] {
		if c := mtypes.Compare(v, best); fn == "min" && c < 0 || fn == "max" && c > 0 {
			best = v
		}
	}
	return best
}

// Trace shape: a DISTINCT aggregate takes the one parallel path — range
// chunks, a keyed merge of the chunks' group representatives, and the dedup
// plus aggregate as one blocking merge step — and the serial engine emits
// none of it. The chunk count is pinned above one so a silent fall-through
// to a single chunk (a serial run in disguise) fails loudly.
func TestParallelDistinctAggTraceShape(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cat := buildDistinctTable(t, rng, 6*mal.MinChunkRows, false)
	q := "SELECT grp, count(distinct i) FROM nums GROUP BY grp"

	trace := &mal.Program{}
	if _, err := (&Engine{Cat: cat, Parallel: true, MaxThreads: 4, Trace: trace}).Execute(planFor(t, cat, q)); err != nil {
		t.Fatal(err)
	}
	out := trace.String()
	for _, want := range []string{"chunks (grouped)", "groups (parallel merge)", "aggr.COUNT(blocking)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "mitosis(1 chunks") {
		t.Fatalf("degenerate single chunk:\n%s", out)
	}

	serTrace := &mal.Program{}
	if _, err := (&Engine{Cat: cat, Parallel: false, Trace: serTrace}).Execute(planFor(t, cat, q)); err != nil {
		t.Fatal(err)
	}
	if s := serTrace.String(); strings.Contains(s, "parallel merge") || strings.Contains(s, "blocking") {
		t.Fatalf("serial engine emitted parallel-merge markers:\n%s", s)
	}
}

// AVG has one formula — SUM and COUNT, divided once — so a serial AVG over
// DECIMAL equals the chunked one bit for bit (summing the values as floats
// row by row would round differently from the exact decimal sum), and both
// equal the exact sum divided by the count. AVG(DISTINCT) takes the same
// formula over its deduplicated values.
func TestAvgOneFormula(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(91))
	tbl := storage.NewMemoryTable(storage.TableMeta{Name: "prices", Cols: []storage.ColDef{
		{Name: "g", Typ: mtypes.Int},
		{Name: "p", Typ: mtypes.Decimal(15, 2)},
	}})
	gv, pv := vec.New(mtypes.Int, n), vec.New(mtypes.Decimal(15, 2), n)
	sum := int64(0)
	for r := 0; r < n; r++ {
		gv.I32[r] = rng.Int31n(3)
		pv.I64[r] = rng.Int63n(100_000_000)
		sum += pv.I64[r]
	}
	if _, err := tbl.Append([]*vec.Vector{gv, pv}, 1); err != nil {
		t.Fatal(err)
	}
	cat := memCatalog{"prices": tbl}
	for _, q := range []string{
		"SELECT avg(p) FROM prices",
		"SELECT g, avg(p) FROM prices GROUP BY g",
		"SELECT g, avg(distinct p), avg(p) FROM prices GROUP BY g",
	} {
		ser, err := (&Engine{Cat: cat}).Execute(planFor(t, cat, q))
		if err != nil {
			t.Fatal(err)
		}
		trace := &mal.Program{}
		par, err := (&Engine{Cat: cat, Parallel: true, MaxThreads: 4, Trace: trace, testChunkRows: 333}).Execute(planFor(t, cat, q))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(trace.String(), "aggr.AVG(merged)") {
			t.Fatalf("%s: AVG not merged from chunks:\n%s", q, trace)
		}
		for c := range ser.Cols {
			for i := 0; i < ser.NumRows(); i++ {
				if s, p := ser.Cols[c].Value(i), par.Cols[c].Value(i); s != p {
					t.Fatalf("%s: row %d column %d: serial %v, chunked %v", q, i, c, s, p)
				}
			}
		}
	}
	res, err := (&Engine{Cat: cat}).Execute(planFor(t, cat, "SELECT avg(p) FROM prices"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Cols[0].F64[0], float64(sum)/100/n; got != want {
		t.Fatalf("avg(p) = %v, want the exact sum over the count, %v", got, want)
	}
}
