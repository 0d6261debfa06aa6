package exec

import (
	"fmt"
	"strings"
	"testing"

	"monetlite/internal/mtypes"
	"monetlite/internal/rowstore"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
)

// TestInListNullSemantics pins SQL's three-valued IN: a value missing from a
// list that holds a NULL is neither IN nor NOT IN it (NULL), a NULL operand
// is NULL, and NOT only swaps TRUE and FALSE. Every case runs in the SELECT
// list and in WHERE (as the predicate and negated) on the columnar engine —
// over raw columns and over encoded ones, where WHERE evaluates the list on
// the value domain — and on the rowstore engine.
func TestInListNullSemantics(t *testing.T) {
	const reps = 200 // the rows (1,'a'), (2,'b'), (NULL,NULL), repeated
	meta := storage.TableMeta{Name: "t", Cols: []storage.ColDef{
		{Name: "id", Typ: mtypes.Int}, {Name: "x", Typ: mtypes.Int}, {Name: "s", Typ: mtypes.Varchar},
	}}
	n := 3 * reps
	cols := []*vec.Vector{vec.New(mtypes.Int, n), vec.New(mtypes.Int, n), vec.New(mtypes.Varchar, n)}
	for i := 0; i < n; i++ {
		cols[0].I32[i] = int32(i)
		if i%3 == 2 {
			cols[1].SetNull(i)
			cols[2].SetNull(i)
		} else {
			cols[1].I32[i] = int32(i%3 + 1)
			cols[2].Str[i] = []string{"a", "b"}[i%3]
		}
	}
	mkTable := func(encode bool) memCatalog {
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
			if tbl.EncodedFor(tbl.Version(), 1) == nil || tbl.EncodedFor(tbl.Version(), 2) == nil {
				t.Fatal("x and s should be encoded")
			}
		}
		return memCatalog{"t": tbl}
	}
	rdb, err := rowstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if err := rdb.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	row := make([]mtypes.Value, len(cols))
	for r := 0; r < n; r++ {
		for ci, v := range cols {
			row[ci] = v.Value(r)
		}
		if err := rdb.InsertRow("t", row); err != nil {
			t.Fatal(err)
		}
	}
	engines := map[string]func(q string) [][]string{
		"rowstore": func(q string) [][]string {
			res, err := rdb.Query(q)
			if err != nil {
				t.Fatalf("rowstore %s: %v", q, err)
			}
			out := make([][]string, len(res.Rows))
			for i, r := range res.Rows {
				for _, v := range r {
					out[i] = append(out[i], v.String())
				}
			}
			return out
		},
	}
	for name, cat := range map[string]memCatalog{"columnar": mkTable(false), "columnar-encoded": mkTable(true)} {
		cat := cat
		engines[name] = func(q string) [][]string {
			res := runEngine(t, cat, q, &Engine{})
			out := make([][]string, res.NumRows())
			for i := range out {
				for _, c := range res.Cols {
					out[i] = append(out[i], c.Value(i).String())
				}
			}
			return out
		}
	}

	// want: the predicate's value for x = 1 / s = 'a', x = 2 / s = 'b', and
	// both NULL.
	for _, tc := range []struct {
		pred string
		want [3]string
	}{
		{"x IN (1, NULL)", [3]string{"true", "NULL", "NULL"}},
		{"x NOT IN (1, NULL)", [3]string{"false", "NULL", "NULL"}},
		{"NOT (x IN (1, NULL))", [3]string{"false", "NULL", "NULL"}},
		{"x NOT IN (NULL, 2)", [3]string{"NULL", "false", "NULL"}},
		{"x IN (NULL)", [3]string{"NULL", "NULL", "NULL"}},
		{"x NOT IN (NULL)", [3]string{"NULL", "NULL", "NULL"}},
		{"x IN (1, 3)", [3]string{"true", "false", "NULL"}},
		{"x NOT IN (1, 3)", [3]string{"false", "true", "NULL"}},
		{"s IN ('a', NULL)", [3]string{"true", "NULL", "NULL"}},
		{"s NOT IN ('b', NULL)", [3]string{"NULL", "false", "NULL"}},
		{"NOT (s IN ('c', NULL))", [3]string{"NULL", "NULL", "NULL"}},
		{"s NOT IN ('b')", [3]string{"true", "false", "NULL"}},
	} {
		count := func(v string) string {
			k := 0
			for _, w := range tc.want {
				if w == v {
					k++
				}
			}
			return fmt.Sprint(k * reps)
		}
		queries := []struct {
			q    string
			want [][]string
		}{
			{fmt.Sprintf("SELECT %s FROM t WHERE id < 3 ORDER BY id", tc.pred),
				[][]string{{tc.want[0]}, {tc.want[1]}, {tc.want[2]}}},
			{fmt.Sprintf("SELECT count(*) FROM t WHERE %s", tc.pred), [][]string{{count("true")}}},
			{fmt.Sprintf("SELECT count(*) FROM t WHERE NOT (%s)", tc.pred), [][]string{{count("false")}}},
		}
		render := func(rows [][]string) string {
			out := make([]string, len(rows))
			for i, r := range rows {
				out[i] = strings.Join(r, "|")
			}
			return strings.Join(out, ", ")
		}
		for name, run := range engines {
			for _, q := range queries {
				if got := run(q.q); render(got) != render(q.want) {
					t.Errorf("%s: %s\n got  %s\n want %s", name, q.q, render(got), render(q.want))
				}
			}
		}
	}
}
