package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"monetlite/internal/mal"
	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
)

// Randomized differential join-test harness: for random table pairs with
// duplicate keys, NULL keys, NaN doubles, empty sides and skewed key
// distributions, the parallel partitioned join must equal the serial join
// row-for-row, and both must equal a brute-force nested-loop oracle as a
// row multiset — for inner, left outer, semi (EXISTS) and anti (NOT EXISTS)
// joins. Every trial derives its own seed from the base seed, and failures
// report that seed plus the full (small) tables, so a failing case can be
// shrunk by re-running a single trial.

const joinFuzzBaseSeed = 20260728

func TestJoinFuzzDifferential(t *testing.T) {
	trials := 80
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		runJoinFuzzTrial(t, joinFuzzBaseSeed+int64(trial))
	}
}

// Re-run one seed here when shrinking a fuzzer failure.
func TestJoinFuzzRegressions(t *testing.T) {
	for _, seed := range []int64{joinFuzzBaseSeed} {
		runJoinFuzzTrial(t, seed)
	}
}

type fuzzTable struct {
	name string
	keys []*vec.Vector // key columns (k1..kn / j1..jn)
	pay  *vec.Vector   // payload: distinct row ids, BIGINT
	n    int
}

// fuzzKeyTypes: every join-key kind the engine canonicalizes.
var fuzzKeyTypes = []mtypes.Type{
	mtypes.Int, mtypes.BigInt, mtypes.SmallInt, mtypes.Double,
	mtypes.Varchar, mtypes.Decimal(9, 2),
}

// randJoinKey draws one key column: small domain (duplicates), ~20% NULLs,
// optional skew (a hot value), and for doubles a mix of NaN payloads (every
// NaN is SQL NULL and must never join).
func randJoinKey(rng *rand.Rand, typ mtypes.Type, n int, skew bool) *vec.Vector {
	v := vec.New(typ, n)
	domain := 2 + rng.Intn(8)
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 {
			if typ.Kind == mtypes.KDouble && rng.Intn(2) == 0 {
				// A non-canonical NaN payload instead of the stock sentinel.
				v.F64[i] = math.Float64frombits(0x7ff8_0000_0000_0001 + uint64(rng.Intn(9)))
			} else {
				v.SetNull(i)
			}
			continue
		}
		x := int64(rng.Intn(domain))
		if skew && rng.Intn(3) > 0 {
			x = 1 // hot key
		}
		switch typ.Kind {
		case mtypes.KDouble:
			v.F64[i] = float64(x) + 0.5
		case mtypes.KVarchar:
			v.Str[i] = fmt.Sprintf("key-%d", x)
		case mtypes.KBigInt, mtypes.KDecimal:
			v.I64[i] = x
		case mtypes.KInt, mtypes.KDate:
			v.I32[i] = int32(x)
		case mtypes.KSmallInt:
			v.I16[i] = int16(x)
		default:
			v.I8[i] = int8(x)
		}
	}
	return v
}

func makeFuzzTable(rng *rand.Rand, name, keyPrefix string, types []mtypes.Type, n int, skew bool) (fuzzTable, *storage.Table) {
	ft := fuzzTable{name: name, n: n}
	cols := make([]storage.ColDef, 0, len(types)+1)
	vecs := make([]*vec.Vector, 0, len(types)+1)
	for i, typ := range types {
		k := randJoinKey(rng, typ, n, skew)
		ft.keys = append(ft.keys, k)
		cols = append(cols, storage.ColDef{Name: fmt.Sprintf("%s%d", keyPrefix, i+1), Typ: typ})
		vecs = append(vecs, k)
	}
	ft.pay = vec.New(mtypes.BigInt, n)
	for i := 0; i < n; i++ {
		ft.pay.I64[i] = int64(i)
	}
	cols = append(cols, storage.ColDef{Name: keyPrefix + "pay", Typ: mtypes.BigInt})
	vecs = append(vecs, ft.pay)
	tbl := storage.NewMemoryTable(storage.TableMeta{Name: name, Cols: cols})
	if n > 0 {
		if _, err := tbl.Append(vecs, 1); err != nil {
			panic(err)
		}
	}
	return ft, tbl
}

// keyNull / keyEq give the oracle's view of one key column.
func keyNull(v *vec.Vector, i int) bool { return v.IsNull(i) }

func keyEq(a *vec.Vector, i int, b *vec.Vector, j int) bool {
	if keyNull(a, i) || keyNull(b, j) {
		return false
	}
	return a.Value(i).String() == b.Value(j).String()
}

func rowsMatch(l, r fuzzTable, i, j int) bool {
	for c := range l.keys {
		if !keyEq(l.keys[c], i, r.keys[c], j) {
			return false
		}
	}
	return true
}

// resultRows renders each result row as one canonical string.
func resultRows(res *Result) []string {
	out := make([]string, res.NumRows())
	var sb strings.Builder
	for i := range out {
		sb.Reset()
		for c := range res.Cols {
			sb.WriteString(res.Cols[c].Value(i).String())
			sb.WriteByte('|')
		}
		out[i] = sb.String()
	}
	return out
}

// rowString renders the oracle's expected row for table positions (i, j);
// j < 0 renders the right side as NULLs (left outer non-match), width = the
// right column count to render. rightOnly=false includes left columns.
func oracleRow(l, r fuzzTable, i, j int, includeRight bool) string {
	var sb strings.Builder
	for _, k := range l.keys {
		sb.WriteString(k.Value(i).String())
		sb.WriteByte('|')
	}
	sb.WriteString(l.pay.Value(i).String())
	sb.WriteByte('|')
	if !includeRight {
		return sb.String()
	}
	if j < 0 {
		for range r.keys {
			sb.WriteString("NULL|")
		}
		sb.WriteString("NULL|")
		return sb.String()
	}
	for _, k := range r.keys {
		sb.WriteString(k.Value(j).String())
		sb.WriteByte('|')
	}
	sb.WriteString(r.pay.Value(j).String())
	sb.WriteByte('|')
	return sb.String()
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	insertionSortStr(out)
	return out
}

func insertionSortStr(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func dumpFuzzTables(t *testing.T, l, r fuzzTable) {
	t.Helper()
	dump := func(ft fuzzTable) string {
		if ft.n > 40 {
			return fmt.Sprintf("%s: %d rows (too big to dump)", ft.name, ft.n)
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s (%d rows):\n", ft.name, ft.n)
		for i := 0; i < ft.n; i++ {
			for _, k := range ft.keys {
				fmt.Fprintf(&sb, "%s\t", k.Value(i))
			}
			fmt.Fprintf(&sb, "#%d\n", i)
		}
		return sb.String()
	}
	t.Log(dump(l))
	t.Log(dump(r))
}

func runJoinFuzzTrial(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nl, nr := rng.Intn(160), rng.Intn(160)
	switch rng.Intn(8) {
	case 0:
		nl = 0 // empty probe side
	case 1:
		nr = 0 // empty build side
	}
	nkeys := 1 + rng.Intn(2)
	types := make([]mtypes.Type, nkeys)
	for i := range types {
		types[i] = fuzzKeyTypes[rng.Intn(len(fuzzKeyTypes))]
	}
	skew := rng.Intn(3) == 0
	l, lt := makeFuzzTable(rng, "l", "k", types, nl, skew)
	r, rt := makeFuzzTable(rng, "r", "j", types, nr, skew)
	cat := memCatalog{"l": lt, "r": rt}

	on := make([]string, nkeys)
	for i := range on {
		on[i] = fmt.Sprintf("l.k%d = r.j%d", i+1, i+1)
	}
	cond := strings.Join(on, " AND ")

	// Each case is one join flavor with its full match condition: key
	// equality plus, for the residual variants, a predicate over the payloads
	// (distinct row ids) — mixed (both sides), right-only (which the optimizer
	// moves into the right input of a LEFT join) or left-only (which it must
	// not move). The oracle derives the expected rows from match alone.
	keys := func(i, j int) bool { return rowsMatch(l, r, i, j) }
	mixed := func(i, j int) bool { return keys(i, j) && j < i }
	cases := []struct {
		kind  string // inner | left | semi | anti
		sql   string
		match func(i, j int) bool
	}{
		{"inner", fmt.Sprintf("SELECT * FROM l, r WHERE %s", cond), keys},
		{"inner", fmt.Sprintf("SELECT * FROM l, r WHERE %s AND r.jpay < l.kpay", cond), mixed},
		{"left", fmt.Sprintf("SELECT * FROM l LEFT JOIN r ON %s", cond), keys},
		{"left", fmt.Sprintf("SELECT * FROM l LEFT JOIN r ON %s AND r.jpay < l.kpay", cond), mixed},
		{"left", fmt.Sprintf("SELECT * FROM l LEFT JOIN r ON %s AND r.jpay %% 2 = 0", cond),
			func(i, j int) bool { return keys(i, j) && j%2 == 0 }},
		{"left", fmt.Sprintf("SELECT * FROM l LEFT JOIN r ON %s AND l.kpay %% 3 <> 0", cond),
			func(i, j int) bool { return keys(i, j) && i%3 != 0 }},
		{"semi", fmt.Sprintf("SELECT * FROM l WHERE EXISTS (SELECT * FROM r WHERE %s)", cond), keys},
		{"semi", fmt.Sprintf("SELECT * FROM l WHERE EXISTS (SELECT * FROM r WHERE %s AND r.jpay < l.kpay)", cond), mixed},
		{"anti", fmt.Sprintf("SELECT * FROM l WHERE NOT EXISTS (SELECT * FROM r WHERE %s)", cond), keys},
		{"anti", fmt.Sprintf("SELECT * FROM l WHERE NOT EXISTS (SELECT * FROM r WHERE %s AND r.jpay < l.kpay)", cond), mixed},
		// [NOT] IN binds to the same semi/anti joins: a NULL key on either
		// side never matches, so NOT IN keeps NULL-keyed left rows and ignores
		// NULLs in the subquery (NOT EXISTS semantics, the engine's documented
		// reading), whichever side the table is built on.
		{"semi", "SELECT * FROM l WHERE l.k1 IN (SELECT j1 FROM r)",
			func(i, j int) bool { return keyEq(l.keys[0], i, r.keys[0], j) }},
		{"anti", "SELECT * FROM l WHERE l.k1 NOT IN (SELECT j1 FROM r)",
			func(i, j int) bool { return keyEq(l.keys[0], i, r.keys[0], j) }},
	}

	for _, c := range cases {
		var want []string
		for i := 0; i < l.n; i++ {
			matched := false
			for j := 0; j < r.n; j++ {
				if !c.match(i, j) {
					continue
				}
				matched = true
				if c.kind == "inner" || c.kind == "left" {
					want = append(want, oracleRow(l, r, i, j, true))
				}
			}
			switch {
			case c.kind == "left" && !matched:
				want = append(want, oracleRow(l, r, i, -1, true))
			case c.kind == "semi" && matched, c.kind == "anti" && !matched:
				want = append(want, oracleRow(l, r, i, -1, false))
			}
		}
		want = sortedCopy(want)

		p := planFor(t, cat, c.sql)
		fail := func(format string, args ...any) {
			t.Helper()
			dumpFuzzTables(t, l, r)
			t.Fatalf("seed %d %s: %s\n sql: %s", seed, c.kind, fmt.Sprintf(format, args...), c.sql)
		}
		sameRows := func(what string, a, b []string) {
			t.Helper()
			if len(a) != len(b) {
				fail("%s: %d rows vs %d", what, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					fail("%s: row %d differs\n %s\n %s", what, i, a[i], b[i])
				}
			}
		}
		// Every flavor runs with each build side forced, serial and with
		// multi-chunk partitioned probes at fuzz scale.
		chunk := 1 + rng.Intn(24)
		var bySide [2][]string
		for si, side := range []int{+1, -1} {
			ser := &Engine{Cat: cat, Parallel: false, testBuildSide: side}
			serRes, err := ser.Execute(p)
			if err != nil {
				fail("serial side %+d: %v", side, err)
			}
			par := &Engine{Cat: cat, Parallel: true, MaxThreads: 4, testBuildSide: side, testChunkRows: chunk}
			parRes, err := par.Execute(p)
			if err != nil {
				fail("parallel side %+d: %v", side, err)
			}
			// Parallel == serial, row-for-row (chunk-order concatenation keeps
			// the serial pair order); serial == brute-force oracle, as a row
			// multiset.
			bySide[si] = resultRows(serRes)
			sameRows(fmt.Sprintf("side %+d serial vs parallel", side), bySide[si], resultRows(parRes))
			sameRows(fmt.Sprintf("side %+d engine vs oracle (sorted)", side), sortedCopy(bySide[si]), want)
		}
		// Only inner pairs come out in probe order; every other flavor emits
		// left rows in left order whichever side was built.
		if c.kind != "inner" {
			sameRows("build=left vs build=right", bySide[0], bySide[1])
		}
	}
}

// A join big enough for mal.Split to cut the probe naturally (no test
// override) must agree with the serial engine and emit the partitioned-probe
// trace markers. Keys drawn from [0, 5000) are dense for the 4 000-row build
// side, which becomes a positional table; spread 10 007-fold, they span more
// than the key filter takes, and the build is radix-partitioned.
func TestParallelJoinNaturalChunking(t *testing.T) {
	for _, tc := range []struct {
		spread int32
		table  string
	}{{1, "positional"}, {10007, "partitioned"}} {
		n := 3 * 16384 // > 2*MinChunkRows probe side
		lt := storage.NewMemoryTable(storage.TableMeta{Name: "l", Cols: []storage.ColDef{
			{Name: "k1", Typ: mtypes.Int}, {Name: "kpay", Typ: mtypes.BigInt}}})
		rt := storage.NewMemoryTable(storage.TableMeta{Name: "r", Cols: []storage.ColDef{
			{Name: "j1", Typ: mtypes.Int}, {Name: "jpay", Typ: mtypes.BigInt}}})
		rng := rand.New(rand.NewSource(99))
		lk, lp := vec.New(mtypes.Int, n), vec.New(mtypes.BigInt, n)
		for i := 0; i < n; i++ {
			lk.I32[i] = int32(rng.Intn(5000)) * tc.spread
			lp.I64[i] = int64(i)
		}
		nr := 4000
		rk, rp := vec.New(mtypes.Int, nr), vec.New(mtypes.BigInt, nr)
		for i := 0; i < nr; i++ {
			rk.I32[i] = int32(rng.Intn(5000)) * tc.spread
			rp.I64[i] = int64(i)
		}
		lt.Append([]*vec.Vector{lk, lp}, 1)
		rt.Append([]*vec.Vector{rk, rp}, 1)
		cat := memCatalog{"l": lt, "r": rt}

		q := "SELECT sum(kpay), sum(jpay), count(*) FROM l, r WHERE l.k1 = r.j1"
		p := planFor(t, cat, q)
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
		for c := range serRes.Cols {
			a, b := serRes.Cols[c].Value(0), parRes.Cols[c].Value(0)
			if a.String() != b.String() {
				t.Fatalf("spread %d col %d: serial %s parallel %s", tc.spread, c, a, b)
			}
		}
		out := trace.String()
		if !strings.Contains(out, "probe chunks (join)") {
			t.Fatalf("spread %d: parallel join did not chunk the probe side:\n%s", tc.spread, out)
		}
		if !strings.Contains(out, tc.table) {
			t.Fatalf("spread %d: parallel join did not build a %s table:\n%s", tc.spread, tc.table, out)
		}
	}
}

// TestJoinFuzzShapes runs the join fuzzer's tables through multi-operator
// shapes, against nested-loop oracles: joins over selection views (WHERE on
// each side's payload, a filter above a left outer join, a semi join), a
// 3-table chain with a Project and a Filter between the joins (a computed
// column beside joined ones, column comparisons across sources), and a left
// outer join above an inner join, plain and filtered on its outer side. Each
// runs serial and with multi-chunk probes, with each build side forced.
func TestJoinFuzzShapes(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		runJoinShapeTrial(t, joinFuzzBaseSeed+int64(trial))
	}
}

// shapeRow renders an oracle row of the given cells ("NULL" for a NULL) as
// resultRows renders an engine row.
func shapeRow(cells ...any) string {
	var sb strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&sb, "%v|", c)
	}
	return sb.String()
}

func runJoinShapeTrial(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	nl, nr, nm := rng.Intn(80), rng.Intn(80), rng.Intn(40)
	nkeys := 1 + rng.Intn(2)
	types := make([]mtypes.Type, nkeys)
	for i := range types {
		types[i] = fuzzKeyTypes[rng.Intn(len(fuzzKeyTypes))]
	}
	skew := rng.Intn(3) == 0
	l, lt := makeFuzzTable(rng, "l", "k", types, nl, skew)
	r, rt := makeFuzzTable(rng, "r", "j", types, nr, skew)
	m, mt := makeFuzzTable(rng, "m", "m", types[:1], nm, skew)
	cat := memCatalog{"l": lt, "r": rt, "m": mt}

	on := make([]string, nkeys)
	for i := range on {
		on[i] = fmt.Sprintf("l.k%d = r.j%d", i+1, i+1)
	}
	cond := strings.Join(on, " AND ")
	keys := func(i, j int) bool { return rowsMatch(l, r, i, j) }
	// mRows lists m's rows that agree with l's row i on the first key and
	// satisfy keep.
	mRows := func(i int, keep func(p int) bool) []int {
		var ps []int
		for p := 0; p < m.n; p++ {
			if keyEq(l.keys[0], i, m.keys[0], p) && keep(p) {
				ps = append(ps, p)
			}
		}
		return ps
	}

	// The oracles walk the tables in nested loops.
	var viewsInner, viewsLeft, viewsSemi, chain, outerAbove, outerFiltered []string
	for i := 0; i < l.n; i++ {
		viewMatched := false
		for j := 0; j < r.n; j++ {
			if !keys(i, j) {
				continue
			}
			if i%3 != 0 && j%2 == 0 {
				viewsInner = append(viewsInner, oracleRow(l, r, i, j, true))
				viewsLeft = append(viewsLeft, oracleRow(l, r, i, j, true))
				viewMatched = true
			}
			if i != j && (i+j)%3 != 1 && i > 0 {
				for _, p := range mRows(i, func(p int) bool { return i < p }) {
					chain = append(chain, shapeRow(i, j, i+j, p))
				}
			}
			if i > j {
				even := mRows(i, func(p int) bool { return p%2 == 0 })
				for _, p := range even {
					outerAbove = append(outerAbove, shapeRow(i, j, p))
				}
				if len(even) == 0 {
					outerAbove = append(outerAbove, shapeRow(i, j, "NULL"))
				}
				// WHERE over the outer join's rows: a non-match (NULL)
				// passes, a match passes when mpay > jpay.
				all := mRows(i, func(int) bool { return true })
				for _, p := range all {
					if p > j {
						outerFiltered = append(outerFiltered, shapeRow(i, j, p))
					}
				}
				if len(all) == 0 {
					outerFiltered = append(outerFiltered, shapeRow(i, j, "NULL"))
				}
			}
		}
		if i%3 != 0 && !viewMatched {
			viewsLeft = append(viewsLeft, oracleRow(l, r, i, -1, true))
		}
		if i%3 != 0 && viewMatched {
			viewsSemi = append(viewsSemi, oracleRow(l, r, i, -1, false))
		}
	}

	derived := fmt.Sprintf("SELECT * FROM l, r WHERE %s AND l.kpay > r.jpay", cond)
	cases := []struct {
		label string
		sql   string
		want  []string
	}{
		{"views inner", fmt.Sprintf("SELECT * FROM l, r WHERE %s AND l.kpay %% 3 <> 0 AND r.jpay %% 2 = 0", cond), viewsInner},
		{"views left", fmt.Sprintf("SELECT * FROM l LEFT JOIN r ON %s AND r.jpay %% 2 = 0 WHERE l.kpay %% 3 <> 0", cond), viewsLeft},
		{"views semi", fmt.Sprintf("SELECT * FROM l WHERE l.kpay %% 3 <> 0 AND EXISTS (SELECT * FROM r WHERE %s AND r.jpay %% 2 = 0)", cond), viewsSemi},
		{"chain", fmt.Sprintf(`SELECT x.kpay, x.jpay, x.s, m.mpay FROM
			(SELECT l.kpay, r.jpay, l.kpay + r.jpay AS s, l.k1 AS k FROM l, r WHERE %s AND l.kpay <> r.jpay) x, m
			WHERE x.k = m.m1 AND x.s > x.jpay AND x.s %% 3 <> 1 AND x.kpay < m.mpay`, cond), chain},
		{"outer above inner", fmt.Sprintf("SELECT x.kpay, x.jpay, m.mpay FROM (%s) x LEFT JOIN m ON x.k1 = m.m1 AND m.mpay %% 2 = 0", derived), outerAbove},
		{"outer above inner, filtered", fmt.Sprintf("SELECT x.kpay, x.jpay, m.mpay FROM (%s) x LEFT JOIN m ON x.k1 = m.m1 WHERE m.mpay IS NULL OR m.mpay > x.jpay", derived), outerFiltered},
	}
	for _, c := range cases {
		p := planFor(t, cat, c.sql)
		want := slices.Sorted(slices.Values(c.want))
		fail := func(format string, args ...any) {
			t.Helper()
			dumpFuzzTables(t, l, r)
			t.Fatalf("seed %d %s: %s\n sql: %s\n plan:\n%s", seed, c.label, fmt.Sprintf(format, args...), c.sql, plan.PlanString(p))
		}
		sameRows := func(what string, a, b []string) {
			t.Helper()
			if len(a) != len(b) {
				fail("%s: %d rows vs %d", what, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					fail("%s: row %d differs\n %s\n %s", what, i, a[i], b[i])
				}
			}
		}
		chunk := 1 + rng.Intn(24)
		for _, side := range []int{+1, -1} {
			serRes, err := (&Engine{Cat: cat, testBuildSide: side}).Execute(p)
			if err != nil {
				fail("serial side %+d: %v", side, err)
			}
			parRes, err := (&Engine{Cat: cat, Parallel: true, MaxThreads: 4, testBuildSide: side, testChunkRows: chunk}).Execute(p)
			if err != nil {
				fail("parallel side %+d: %v", side, err)
			}
			ser := resultRows(serRes)
			sameRows(fmt.Sprintf("side %+d serial vs parallel", side), ser, resultRows(parRes))
			sameRows(fmt.Sprintf("side %+d engine vs oracle (sorted)", side), slices.Sorted(slices.Values(ser)), want)
		}
	}
}
