package exec

import (
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

// sidewaysTables builds a probe table f and a dimension table d. f's fk is
// clustered in runs (RLE once encoded), fk2 spreads over a FOR range, and
// flag is a small integer; d's keys hit a tenth of fk's values, and a few
// are NULL. With tail > 0, f's last tail rows are appended after encoding
// (an unmerged delta the encodings stop short of), and with dels every
// seventh row of f is deleted.
func sidewaysTables(t *testing.T, rng *rand.Rand, n, tail int, dels bool) memCatalog {
	t.Helper()
	f := storage.NewMemoryTable(storage.TableMeta{Name: "f", Cols: []storage.ColDef{
		{Name: "fk", Typ: mtypes.Int}, {Name: "fk2", Typ: mtypes.BigInt},
		{Name: "flag", Typ: mtypes.Int}, {Name: "pay", Typ: mtypes.BigInt}}})
	cols := []*vec.Vector{vec.New(mtypes.Int, n), vec.New(mtypes.BigInt, n), vec.New(mtypes.Int, n), vec.New(mtypes.BigInt, n)}
	for i := 0; i < n; i++ {
		cols[0].I32[i] = int32(i / 4)
		if rng.Intn(50) == 0 {
			cols[0].SetNull(i)
		}
		cols[1].I64[i] = int64(rng.Intn(n / 2))
		cols[2].I32[i] = int32(rng.Intn(3))
		cols[3].I64[i] = int64(i)
	}
	part := func(lo, hi int) []*vec.Vector {
		out := make([]*vec.Vector, len(cols))
		for c, v := range cols {
			out[c] = v.Slice(lo, hi).Clone()
		}
		return out
	}
	if _, err := f.Append(part(0, n-tail), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.EncodeColumns(); err != nil {
		t.Fatal(err)
	}
	if tail > 0 {
		if _, err := f.Append(part(n-tail, n), 2); err != nil {
			t.Fatal(err)
		}
	}
	if dels {
		var dead []int32
		for i := 0; i < n; i += 7 {
			dead = append(dead, int32(i))
		}
		if _, _, err := f.Delete(dead, 3); err != nil {
			t.Fatal(err)
		}
	}
	nd := n / 40
	d := storage.NewMemoryTable(storage.TableMeta{Name: "d", Cols: []storage.ColDef{
		{Name: "k", Typ: mtypes.Int}, {Name: "x", Typ: mtypes.Int}}})
	dk, dx := vec.New(mtypes.Int, nd), vec.New(mtypes.Int, nd)
	for i := 0; i < nd; i++ {
		dk.I32[i] = int32(rng.Intn(n / 4))
		if i%9 == 0 {
			dk.SetNull(i)
		}
		dx.I32[i] = int32(rng.Intn(3))
	}
	if _, err := d.Append([]*vec.Vector{dk, dx}, 1); err != nil {
		t.Fatal(err)
	}
	return memCatalog{"f": f, "d": d}
}

// sidewaysQueries are joins whose probe-side scan the key filter may reach:
// inner (through a derived table's Project and Filter), semi, NOT IN, NOT
// EXISTS, left outer on the right input, and a composite key.
var sidewaysQueries = []string{
	"SELECT f.pay, d.x FROM d, f WHERE d.k = f.fk AND f.flag < 2",
	"SELECT d.k, y.pay FROM d, (SELECT fk, pay + 1 AS pay FROM f WHERE flag <> 1) y WHERE d.k = y.fk",
	"SELECT d.k, d.x FROM d WHERE EXISTS (SELECT * FROM f WHERE f.fk = d.k AND f.pay > f.fk2)",
	"SELECT d.k FROM d WHERE d.k NOT IN (SELECT fk FROM f WHERE flag = 2)",
	"SELECT d.k FROM d WHERE NOT EXISTS (SELECT * FROM f WHERE f.fk2 = d.k AND f.flag = d.x)",
	"SELECT d.k, f.pay FROM d LEFT JOIN f ON d.k = f.fk2 AND f.flag = 1",
	"SELECT f.pay FROM f, d WHERE f.fk = d.k AND f.flag = d.x",
	"SELECT count(*), sum(f.pay) FROM f WHERE f.fk IN (SELECT k FROM d WHERE x = 0)",
}

// TestSidewaysFilterDifferential runs joins whose probe-side scan carries a
// pending append tail and deleted rows (so the key filter runs over the
// encoded runs and codes, the raw tail and a live-row candidate list) with
// the filter off, left to the runtime guard and forced on either input,
// serial and in chunks: every setting returns the rows of the filter-off
// run, the forced runs apply a filter in every query, and the plan is left
// as it was.
func TestSidewaysFilterDifferential(t *testing.T) {
	for trial, tc := range []struct {
		tail int
		dels bool
	}{{0, false}, {300, false}, {0, true}, {300, true}} {
		rng := rand.New(rand.NewSource(int64(91 + trial)))
		cat := sidewaysTables(t, rng, 4000, tc.tail, tc.dels)
		for _, q := range sidewaysQueries {
			p := planFor(t, cat, q)
			shape := plan.PlanString(p)
			var off []string
			for _, mode := range []int{-1, 0, 1, 2} {
				trace := &mal.Program{}
				ser, err := (&Engine{Cat: cat, Trace: trace, testSideways: mode}).Execute(p)
				if err != nil {
					t.Fatalf("tail %d dels %v mode %d %s: %v", tc.tail, tc.dels, mode, q, err)
				}
				par, err := (&Engine{Cat: cat, Parallel: true, MaxThreads: 4, testSideways: mode, testChunkRows: 257}).Execute(p)
				if err != nil {
					t.Fatalf("tail %d dels %v mode %d parallel %s: %v", tc.tail, tc.dels, mode, q, err)
				}
				got := resultRows(ser)
				if !slices.Equal(got, resultRows(par)) {
					t.Fatalf("tail %d dels %v mode %d %s: serial and parallel differ", tc.tail, tc.dels, mode, q)
				}
				// The build side follows the inputs' sizes, which the filter
				// changes, so inner pairs may come out in another order.
				slices.Sort(got)
				if off == nil {
					off = got
				} else if !slices.Equal(off, got) {
					t.Fatalf("tail %d dels %v mode %d %s: %d rows, %d with the filter off\n%s",
						tc.tail, tc.dels, mode, q, len(got), len(off), trace)
				}
				if mode > 0 && !strings.Contains(trace.String(), " rows);") {
					t.Fatalf("mode %d %s: no key filter applied\n%s", mode, q, trace)
				}
			}
			// Plans are cached and shared: the filter goes into a copy of
			// the scan, never into the plan.
			if after := plan.PlanString(p); after != shape {
				t.Fatalf("%s: the plan changed:\n%s\nwas\n%s", q, after, shape)
			}
		}
	}
}

// TestSidewaysTrace checks the one decision line each join emits: the
// applied filter's keys, form, scanned column and rows kept of rows tested,
// the same in serial and parallel traces, and each guard's reason when it
// declines.
func TestSidewaysTrace(t *testing.T) {
	cat := sidewaysTables(t, rand.New(rand.NewSource(5)), 4000, 0, false)
	line := func(q string, parallel bool) string {
		t.Helper()
		trace := &mal.Program{}
		e := &Engine{Cat: cat, Trace: trace, Parallel: parallel, MaxThreads: 4}
		if parallel {
			e.testChunkRows = 500
		}
		if _, err := e.Execute(planFor(t, cat, q)); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, in := range trace.Instrs {
			if in.Op == "optimizer.sideways" {
				lines = append(lines, strings.Join(in.Args, ", "))
			}
		}
		if len(lines) != 1 {
			t.Fatalf("%s: want one sideways line, got %q\n%s", q, lines, trace)
		}
		return lines[0]
	}
	// d's 100 rows hold about 90 distinct keys of fk's 1 000 runs: the
	// filter keeps about 360 of the 2 667 rows flag < 2 keeps, and runs
	// ahead of that conjunct on fk's runs.
	applied := line("SELECT f.pay FROM d, f WHERE d.k = f.fk AND f.flag < 2", false)
	if !strings.Contains(applied, "positional") || !strings.Contains(applied, "scan f.fk") ||
		!strings.HasSuffix(applied, "of 4000 rows") {
		t.Errorf("applied filter traces %q", applied)
	}
	if par := line("SELECT f.pay FROM d, f WHERE d.k = f.fk AND f.flag < 2", true); par != applied {
		t.Errorf("parallel trace %q, serial %q", par, applied)
	}
	for _, tc := range []struct{ q, reason string }{
		// A build as large as the probe table.
		{"SELECT count(*) FROM f a, f b WHERE a.fk = b.fk2 AND a.flag = 0", "not small against f's 4000"},
		// An unfiltered FOR key column feeding the join directly.
		{"SELECT count(*) FROM d, f WHERE d.k = f.fk2", "nothing to save"},
		// Three keys that keep every sampled row of f.
		{"SELECT count(*) FROM d, f WHERE d.x = f.flag AND f.pay > f.fk2", "3 keys keep 1334 of 1334 sampled rows"},
		// A key of no integer type.
		{"SELECT count(*) FROM d, f WHERE cast(d.k AS DOUBLE) = cast(f.fk AS DOUBLE)", "no integer key"},
	} {
		if got := line(tc.q, false); !strings.Contains(got, "declined: ") || !strings.Contains(got, tc.reason) {
			t.Errorf("%s: traces %q, want a decline for %q", tc.q, got, tc.reason)
		}
	}
}
