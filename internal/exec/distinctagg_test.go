package exec

import (
	"math/rand"
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

// The parallel aggregate must agree with the serial oracle row-for-row —
// including row ORDER, with no ORDER BY in the query: both paths number
// groups in first-appearance order. Chunks are forced small (1..24 rows, a
// per-trial seed picks the size and the data) so every query crosses many
// chunk boundaries; half the trials group on dictionary codes.
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
			if n > chunk {
				if trace.Count("optimizer.mitosis") == 0 || !strings.Contains(out, "(merged)") && !strings.Contains(out, "(blocking)") {
					t.Fatalf("seed %d %s: did not take the parallel aggregate:\n%s", seed, q, out)
				}
				if grouped && !strings.Contains(out, "(parallel merge)") {
					t.Fatalf("seed %d %s: no keyed merge:\n%s", seed, q, out)
				}
				if grouped && dictKey && strings.HasPrefix(q, "SELECT grp,") && !strings.Contains(out, "dict codes") {
					t.Fatalf("seed %d %s: dictionary-coded key not grouped on codes:\n%s", seed, q, out)
				}
			}
			serRows, parRows := resultRows(ser), resultRows(par)
			if len(serRows) != len(parRows) {
				t.Fatalf("seed %d %s: serial %d rows, parallel %d", seed, q, len(serRows), len(parRows))
			}
			for i := range serRows {
				if serRows[i] != parRows[i] {
					t.Fatalf("seed %d (chunk %d, n %d) %s: row %d differs\n serial:   %s\n parallel: %s",
						seed, chunk, n, q, i, serRows[i], parRows[i])
				}
			}
		}
	}
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
