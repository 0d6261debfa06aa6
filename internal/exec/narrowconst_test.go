package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
)

// buildNarrowPair returns (encoded, raw) catalogs over identical rows of
// narrow integer columns, whose comparison constants may lie outside the
// column type's range:
//
//	id INT        0..n-1
//	a  TINYINT    -5..10, NULLs             → FOR
//	b  SMALLINT   -3..300, NULLs            → FOR
//	c  INT        -1000..1000, NULLs        → FOR
//	r  TINYINT    runs of 1, 100, -5, NULL  → RLE
//	q  SMALLINT   runs of 1, 30000, -3, NULL → RLE
//	m  DECIMAL(9,2) -5.00..5.00, NULLs
func buildNarrowPair(t *testing.T, n int) (memCatalog, memCatalog) {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	meta := storage.TableMeta{Name: "t", Cols: []storage.ColDef{
		{Name: "id", Typ: mtypes.Int},
		{Name: "a", Typ: mtypes.TinyInt},
		{Name: "b", Typ: mtypes.SmallInt},
		{Name: "c", Typ: mtypes.Int},
		{Name: "r", Typ: mtypes.TinyInt},
		{Name: "q", Typ: mtypes.SmallInt},
		{Name: "m", Typ: mtypes.Decimal(9, 2)},
	}}
	cols := make([]*vec.Vector, len(meta.Cols))
	for i, cd := range meta.Cols {
		cols[i] = vec.New(cd.Typ, n)
	}
	runLeft, run := 0, 0
	for i := 0; i < n; i++ {
		cols[0].I32[i] = int32(i)
		null := rng.Intn(10) == 0
		for _, c := range []struct {
			ci  int
			set func()
		}{
			{1, func() { cols[1].I8[i] = int8(rng.Intn(16) - 5) }},
			{2, func() { cols[2].I16[i] = int16(rng.Intn(304) - 3) }},
			{3, func() { cols[3].I32[i] = int32(rng.Intn(2001) - 1000) }},
			{6, func() { cols[6].I64[i] = int64(rng.Intn(1001) - 500) }},
		} {
			if null {
				cols[c.ci].SetNull(i)
			} else {
				c.set()
			}
		}
		if runLeft == 0 {
			runLeft, run = 1+rng.Intn(60), rng.Intn(4)
		}
		runLeft--
		if run == 3 {
			cols[4].SetNull(i)
			cols[5].SetNull(i)
		} else {
			cols[4].I8[i] = []int8{1, 100, -5}[run]
			cols[5].I16[i] = []int16{1, 30000, -3}[run]
		}
	}
	mk := func(encode bool) memCatalog {
		tbl := storage.NewMemoryTable(meta)
		clones := make([]*vec.Vector, len(cols))
		for i, c := range cols {
			clones[i] = c.Clone()
		}
		if _, err := tbl.Append(clones, 1); err != nil {
			t.Fatal(err)
		}
		if encode {
			if _, err := tbl.EncodeColumns(); err != nil {
				t.Fatal(err)
			}
		}
		return memCatalog{"t": tbl}
	}
	encCat := mk(true)
	src, _ := encCat.Source("t")
	for ci, want := range []vec.Encoding{vec.EncFOR, vec.EncFOR, vec.EncFOR, vec.EncRLE, vec.EncRLE} {
		if en := src.EncodedCol(ci + 1); en == nil || en.Enc != want {
			t.Fatalf("column %s encoded as %+v, want %s", meta.Cols[ci+1].Name, en, want)
		}
	}
	return encCat, mk(false)
}

// liftFilters moves the scan's pushed conjuncts into a Filter node above it,
// so the Filter operator, not the scan, evaluates them.
func liftFilters(n plan.Node) plan.Node {
	switch x := n.(type) {
	case *plan.Project:
		p := *x
		p.Input = liftFilters(x.Input)
		return &p
	case *plan.Aggregate:
		a := *x
		a.Input = liftFilters(x.Input)
		return &a
	case *plan.Scan:
		if len(x.Filters) > 0 {
			s := *x
			s.Filters = nil
			pred := x.Filters[0]
			for _, f := range x.Filters[1:] {
				pred = &plan.BinOp{Kind: plan.BinAnd, L: pred, R: f, Typ: mtypes.Bool}
			}
			return &plan.Filter{Input: &s, Pred: pred}
		}
	}
	return n
}

// TestNarrowConstantCompare checks comparisons, BETWEEN and IN on TINYINT,
// SMALLINT, INT and DECIMAL columns against constants the column's type
// cannot hold: integers beyond its range, where converting the constant to
// the column's width would wrap (a TINYINT `a < 300` compared against 44),
// and decimals or doubles with a fraction the column cannot represent (an
// INTEGER `a > 1.5` compared as `a > 15`, a DECIMAL(9,2) `m >= 1.234` as
// `m >= 1.23`). Each query must select what its `col + 0` form selects,
// which the general evaluator computes in a wider type: on raw and encoded
// columns, serial and chunked, with and without indexes, in the scan and in
// the Filter operator.
func TestNarrowConstantCompare(t *testing.T) {
	encCat, rawCat := buildNarrowPair(t, 600)
	ints := []string{"300", "-300", "70000", "-70000", "3000000000", "-3000000000", "127", "-127", "128", "-128", "32767", "-32768", "0", "100"}
	fracs := []string{"1.5", "-2.5", "2.0", "100.0", "0.5", "127.5", "-128.5", "3e0", "2.5e0"}
	type pair struct{ q, ref string }
	var pairs []pair
	add := func(col, format string, args ...any) {
		pairs = append(pairs, pair{fmt.Sprintf("%s "+format, append([]any{col}, args...)...),
			fmt.Sprintf("%s + 0 "+format, append([]any{col}, args...)...)})
	}
	for _, col := range []string{"a", "b", "c", "r", "q"} {
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			for _, k := range append(ints, fracs...) {
				add(col, "%s %s", op, k)
			}
		}
		for _, b := range [][2]string{{"-300", "300"}, {"-70000", "70000"}, {"100", "300"}, {"-300", "-100"}, {"300", "-300"}, {"-3000000000", "3000000000"}, {"-128", "127"}, {"-2.5", "3.5"}, {"0.5", "0.9"}, {"0.5e0", "99.5"}} {
			add(col, "BETWEEN %s AND %s", b[0], b[1])
		}
		add(col, "IN (1.5, 2.0, 100, -5.0)")
		add(col, "IN (2.5e0, 3e0)")
	}
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for _, k := range []string{"1.234", "1.23", "-0.005", "2", "2.5e0", "5", "-5.01", "0.1e0"} {
			add("m", "%s %s", op, k)
		}
	}
	add("m", "BETWEEN %s AND %s", "-1.234", "1.239")
	add("m", "IN (1.230, 2.0001, 3, 0.5e0)")
	for _, p := range pairs {
		q := "SELECT count(*), sum(id) FROM t WHERE "
		want := strings.Join(resultRows(runEngine(t, rawCat, q+p.ref, &Engine{NoIndexes: true})), "\n")
		for _, cat := range []struct {
			name string
			cat  memCatalog
		}{{"raw", rawCat}, {"encoded", encCat}} {
			for _, lift := range []bool{false, true} {
				for _, e := range []*Engine{
					{}, {NoIndexes: true},
					{Parallel: true, MaxThreads: 4, testChunkRows: 64},
					{Parallel: true, MaxThreads: 4, testChunkRows: 64, NoIndexes: true},
				} {
					e.Cat = cat.cat
					node := planFor(t, cat.cat, q+p.q)
					if lift {
						if node = liftFilters(node); !strings.Contains(plan.PlanString(node), "FILTER") {
							t.Fatalf("%q: no Filter node after lifting:\n%s", p.q, plan.PlanString(node))
						}
					}
					res, err := e.Execute(node)
					if err != nil {
						t.Fatalf("%s: %v", p.q, err)
					}
					if got := strings.Join(resultRows(res), "\n"); got != want {
						t.Fatalf("%s %q (filter operator %v, parallel %v, no indexes %v): got %s, want %s as %q",
							cat.name, p.q, lift, e.Parallel, e.NoIndexes, got, want, p.ref)
					}
				}
			}
		}
	}
}
