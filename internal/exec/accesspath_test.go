package exec

import (
	"fmt"
	"strings"
	"testing"

	"monetlite/internal/mal"
	"monetlite/internal/mtypes"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
)

// accessPathRows is the base of the access-path table; accessPathTail rows
// are appended after the hash index is built, so it stops short of them.
const (
	accessPathRows = 3000
	accessPathTail = 500
)

// accessPathKey is row r's k: cycling through 0..96, NULL on every 13th row.
func accessPathKey(r int) (int32, bool) {
	return int32(r % 97), r%13 == 0
}

// buildAccessPathTable returns t(k INT, r INT), r the row number, and
// s(x INT) holding 42 and 40 for the scalar subqueries. With tail, rows
// past accessPathRows are appended after the hash index on k is built; with
// dels, every 7th row is deleted; with order, k has an order index.
func buildAccessPathTable(t *testing.T, tail, dels, order bool) memCatalog {
	t.Helper()
	tbl := storage.NewMemoryTable(storage.TableMeta{Name: "t", Cols: []storage.ColDef{
		{Name: "k", Typ: mtypes.Int},
		{Name: "r", Typ: mtypes.Int},
	}})
	rows := func(lo, hi int) []*vec.Vector {
		k, r := vec.New(mtypes.Int, hi-lo), vec.New(mtypes.Int, hi-lo)
		for i := lo; i < hi; i++ {
			v, null := accessPathKey(i)
			k.I32[i-lo], r.I32[i-lo] = v, int32(i)
			if null {
				k.SetNull(i - lo)
			}
		}
		return []*vec.Vector{k, r}
	}
	if _, err := tbl.Append(rows(0, accessPathRows), 1); err != nil {
		t.Fatal(err)
	}
	if tbl.HashFor(tbl.Version(), 0) == nil {
		t.Fatal("no hash index on k")
	}
	if tail {
		if _, err := tbl.Append(rows(accessPathRows, accessPathRows+accessPathTail), 2); err != nil {
			t.Fatal(err)
		}
	}
	if dels {
		var ids []int32
		for r := 0; r < tbl.Version().NRows; r += 7 {
			ids = append(ids, int32(r))
		}
		if _, _, err := tbl.Delete(ids, 3); err != nil {
			t.Fatal(err)
		}
	}
	if order {
		if err := tbl.CreateOrderIndex(0); err != nil {
			t.Fatal(err)
		}
	}
	s := storage.NewMemoryTable(storage.TableMeta{Name: "s", Cols: []storage.ColDef{{Name: "x", Typ: mtypes.Int}}})
	x := vec.New(mtypes.Int, 2)
	x.I32[0], x.I32[1] = 42, 40
	if _, err := s.Append([]*vec.Vector{x}, 1); err != nil {
		t.Fatal(err)
	}
	return memCatalog{"t": tbl, "s": s}
}

// Every column-predicate shape the scan serves through an index — column
// against a constant, the constant first, against a scalar subquery, and a
// range with exclusive bounds — selects the same rows through the hash
// index, the order index and no index, in full and chunked scans, over a
// pending append tail the hash index does not cover and over deleted rows.
// A row oracle over the generated keys decides what is right, so a shape the
// kernels and the indexes misread alike still fails.
func TestScanAccessPaths(t *testing.T) {
	cases := []struct {
		where string
		keep  func(k int32) bool
		path  string // the index that must answer the full scan, "" for none
	}{
		{"k = 42", func(k int32) bool { return k == 42 }, "hashidx"},
		{"k < 10", func(k int32) bool { return k < 10 }, "orderidx"},
		{"k >= 90", func(k int32) bool { return k >= 90 }, "orderidx"},
		{"k <> 42", func(k int32) bool { return k != 42 }, ""},
		{"42 = k", func(k int32) bool { return k == 42 }, "hashidx"},
		{"10 > k", func(k int32) bool { return k < 10 }, "orderidx"},
		{"90 <= k", func(k int32) bool { return k >= 90 }, "orderidx"},
		{"k = (SELECT max(x) FROM s)", func(k int32) bool { return k == 42 }, "hashidx"},
		{"k > (SELECT min(x) FROM s)", func(k int32) bool { return k > 40 }, "orderidx"},
		{"(SELECT min(x) FROM s) > k", func(k int32) bool { return k < 40 }, "orderidx"},
		{"k > 10 AND k < 20", func(k int32) bool { return k > 10 && k < 20 }, "orderidx"},
		{"k >= 10 AND k < 20", func(k int32) bool { return k >= 10 && k < 20 }, "orderidx"},
	}
	for _, st := range []struct {
		name       string
		tail, dels bool
	}{{"base", false, false}, {"tail", true, false}, {"deletes", false, true}, {"tail+deletes", true, true}} {
		for _, idx := range []string{"hash", "order", "none"} {
			cat := buildAccessPathTable(t, st.tail, st.dels, idx == "order")
			src, _ := cat.Source("t")
			live := map[int32]bool{}
			for _, r := range vec.Range(src.NumRows()) {
				live[r] = true
			}
			if lc := src.LiveCands(); lc != nil {
				live = map[int32]bool{}
				for _, r := range lc {
					live[r] = true
				}
			}
			for _, tc := range cases {
				var want []string
				for r := 0; r < src.NumRows(); r++ {
					if k, null := accessPathKey(r); live[int32(r)] && !null && tc.keep(k) {
						want = append(want, fmt.Sprintf("%d|", r))
					}
				}
				q := "SELECT r FROM t WHERE " + tc.where
				for _, chunkRows := range []int{0, 256} {
					label := fmt.Sprintf("%s/%s/chunk %d: %s", st.name, idx, chunkRows, q)
					e := &Engine{NoIndexes: idx == "none", Trace: &mal.Program{},
						Parallel: chunkRows > 0, MaxThreads: 4, testChunkRows: chunkRows}
					got := resultRows(runEngine(t, cat, q, e))
					if strings.Join(got, ",") != strings.Join(want, ",") {
						t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
					}
					// Which index a full scan must take: the order index
					// exists only when asked for and serves no snapshot with
					// deletes, and chunked scans take none.
					path := tc.path
					if idx == "none" || chunkRows > 0 || path == "orderidx" && (idx != "order" || st.dels) {
						path = ""
					}
					trace := e.Trace.String()
					for _, p := range []string{"hashidx", "orderidx"} {
						if strings.Contains(trace, p) != (p == path) {
							t.Fatalf("%s: want index %q, trace:\n%s", label, path, trace)
						}
					}
				}
			}
		}
	}
}
