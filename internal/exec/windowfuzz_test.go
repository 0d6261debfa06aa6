package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"monetlite/internal/mtypes"
	"monetlite/internal/rowstore"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
)

// Randomized differential window-function harness, same shrinking convention
// as the join/sort/filter fuzzers: for random tables with duplicate keys,
// NULL keys, NaN doubles, skewed partitions, empty inputs and single-
// partition corpora, random combinations of window calls are executed three
// ways — the serial columnar engine, the parallel columnar engine (chunk
// overrides forcing multi-run sorts and multi-group partition fan-out), and
// the rowstore volcano engine, whose naive row-at-a-time window evaluator is
// the oracle. All three must agree cell-for-cell, doubles included (framed
// aggregates accumulate under the shared contract in plan/windoweval.go).
// Every trial derives its own seed from the base seed; failures print that
// seed and the table so one trial can be replayed and shrunk in isolation.

const windowFuzzBaseSeed = 20260729

func TestWindowFuzzDifferential(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		runWindowFuzzTrial(t, windowFuzzBaseSeed+int64(trial))
	}
}

// Re-run one seed here when shrinking a fuzzer failure.
func TestWindowFuzzRegressions(t *testing.T) {
	for _, seed := range []int64{windowFuzzBaseSeed} {
		runWindowFuzzTrial(t, seed)
	}
}

// fuzzWindowPayloadTypes: argument kinds the windowed-aggregate kernels
// accumulate (integer family, decimal, double).
var fuzzWindowPayloadTypes = []mtypes.Type{
	mtypes.Int, mtypes.BigInt, mtypes.SmallInt, mtypes.Double, mtypes.Decimal(9, 2),
}

// randWindowSpec draws one OVER clause over columns p (partition) and o1/o2
// (order keys).
func randWindowSpec(rng *rand.Rand, singlePartition bool) string {
	var sb strings.Builder
	sb.WriteByte('(')
	if !singlePartition && rng.Intn(4) > 0 {
		sb.WriteString("PARTITION BY p")
	}
	if rng.Intn(4) > 0 {
		if sb.Len() > 1 {
			sb.WriteByte(' ')
		}
		sb.WriteString("ORDER BY o1")
		if rng.Intn(2) == 0 {
			sb.WriteString(" DESC")
		}
		if rng.Intn(2) == 0 {
			sb.WriteString(", o2")
			if rng.Intn(2) == 0 {
				sb.WriteString(" DESC")
			}
		}
	}
	return sb.String() // caller appends frame and ')'
}

func randFrameClause(rng *rand.Rand) string {
	if rng.Intn(3) > 0 {
		return ""
	}
	bound := func(loSide bool) string {
		switch rng.Intn(4) {
		case 0:
			if loSide {
				return "UNBOUNDED PRECEDING"
			}
			return "UNBOUNDED FOLLOWING"
		case 1:
			return fmt.Sprintf("%d PRECEDING", rng.Intn(4))
		case 2:
			return "CURRENT ROW"
		default:
			return fmt.Sprintf("%d FOLLOWING", rng.Intn(4))
		}
	}
	return fmt.Sprintf(" ROWS BETWEEN %s AND %s", bound(true), bound(false))
}

func runWindowFuzzTrial(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(160)
	if rng.Intn(8) == 0 {
		n = 0 // empty input
	}
	skew := rng.Intn(3) == 0
	singlePartition := rng.Intn(6) == 0

	// Columns: p (partition key), o1/o2 (order keys), v (aggregate payload).
	pTyp := fuzzSortKeyTypes[rng.Intn(len(fuzzSortKeyTypes))]
	o1Typ := fuzzSortKeyTypes[rng.Intn(len(fuzzSortKeyTypes))]
	o2Typ := fuzzSortKeyTypes[rng.Intn(len(fuzzSortKeyTypes))]
	vTyp := fuzzWindowPayloadTypes[rng.Intn(len(fuzzWindowPayloadTypes))]
	pv := randSortColumn(rng, pTyp, n, skew)
	if singlePartition {
		for i := 0; i < n; i++ {
			pv.Set(i, pv.Value(0)) // constant partition key (NULL possible)
		}
	}
	vecs := []*vec.Vector{
		pv,
		randSortColumn(rng, o1Typ, n, skew),
		randSortColumn(rng, o2Typ, n, skew),
		randSortColumn(rng, vTyp, n, false),
	}
	meta := storage.TableMeta{Name: "w", Cols: []storage.ColDef{
		{Name: "p", Typ: pTyp}, {Name: "o1", Typ: o1Typ},
		{Name: "o2", Typ: o2Typ}, {Name: "v", Typ: vTyp},
	}}
	tbl := storage.NewMemoryTable(meta)
	if n > 0 {
		if _, err := tbl.Append(vecs, 1); err != nil {
			panic(err)
		}
	}
	cat := memCatalog{"w": tbl}

	rdb, err := rowstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if err := rdb.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	row := make([]mtypes.Value, len(vecs))
	for r := 0; r < n; r++ {
		for ci, v := range vecs {
			row[ci] = v.Value(r)
		}
		if err := rdb.InsertRow("w", row); err != nil {
			t.Fatal(err)
		}
	}

	// Random window calls (1-4), over one or two random specs.
	ncalls := 1 + rng.Intn(4)
	calls := make([]string, ncalls)
	for i := range calls {
		spec := randWindowSpec(rng, singlePartition)
		switch rng.Intn(9) {
		case 0:
			calls[i] = fmt.Sprintf("row_number() OVER %s)", spec)
		case 1:
			calls[i] = fmt.Sprintf("rank() OVER %s)", spec)
		case 2:
			calls[i] = fmt.Sprintf("dense_rank() OVER %s)", spec)
		case 3:
			switch rng.Intn(3) {
			case 0:
				calls[i] = fmt.Sprintf("lag(v) OVER %s)", spec)
			case 1:
				calls[i] = fmt.Sprintf("lag(v, %d) OVER %s)", rng.Intn(4), spec)
			default:
				calls[i] = fmt.Sprintf("lag(v, %d, 7) OVER %s)", rng.Intn(4), spec)
			}
		case 4:
			calls[i] = fmt.Sprintf("lead(v, %d) OVER %s)", rng.Intn(4), spec)
		case 5:
			calls[i] = fmt.Sprintf("sum(v) OVER %s%s)", spec, randFrameClause(rng))
		case 6:
			// COUNT accepts any argument type: o1 draws from every key kind
			// (varchar, date, bool, ...), not just the numeric payloads.
			arg := "v"
			if rng.Intn(2) == 0 {
				arg = "o1"
			}
			calls[i] = fmt.Sprintf("count(%s) OVER %s%s)", arg, spec, randFrameClause(rng))
		case 7:
			if rng.Intn(2) == 0 {
				calls[i] = fmt.Sprintf("min(v) OVER %s%s)", spec, randFrameClause(rng))
			} else {
				calls[i] = fmt.Sprintf("max(v) OVER %s%s)", spec, randFrameClause(rng))
			}
		default:
			if rng.Intn(2) == 0 {
				calls[i] = fmt.Sprintf("avg(v) OVER %s%s)", spec, randFrameClause(rng))
			} else {
				calls[i] = fmt.Sprintf("count(*) OVER %s%s)", spec, randFrameClause(rng))
			}
		}
	}
	sql := fmt.Sprintf("SELECT p, o1, o2, v, %s FROM w", strings.Join(calls, ", "))

	p := planFor(t, cat, sql)
	ser := &Engine{Cat: cat, Parallel: false}
	serRes, err := ser.Execute(p)
	if err != nil {
		t.Fatalf("seed %d: serial: %v\n sql: %s", seed, err, sql)
	}
	// Force multi-run sorts and multi-group partition fan-out at fuzz scale.
	par := &Engine{Cat: cat, Parallel: true, MaxThreads: 4}
	par.testChunkRows = 1 + rng.Intn(24)
	parRes, err := par.Execute(p)
	if err != nil {
		t.Fatalf("seed %d: parallel: %v\n sql: %s", seed, err, sql)
	}
	oracleRes, err := rdb.Query(sql)
	if err != nil {
		t.Fatalf("seed %d: rowstore oracle: %v\n sql: %s", seed, err, sql)
	}

	oracle := make([]string, len(oracleRes.Rows))
	for i, r := range oracleRes.Rows {
		var sb strings.Builder
		for _, v := range r {
			sb.WriteString(v.String())
			sb.WriteByte('|')
		}
		oracle[i] = sb.String()
	}
	for _, res := range []struct {
		label string
		rows  []string
	}{{"serial", resultRows(serRes)}, {"parallel", resultRows(parRes)}} {
		if len(res.rows) != len(oracle) {
			dumpWindowTable(t, vecs, n)
			t.Fatalf("seed %d: %s returned %d rows, oracle %d\n sql: %s",
				seed, res.label, len(res.rows), len(oracle), sql)
		}
		for i := range res.rows {
			if res.rows[i] != oracle[i] {
				dumpWindowTable(t, vecs, n)
				t.Fatalf("seed %d: %s row %d differs\n got:    %s\n oracle: %s\n sql: %s",
					seed, res.label, i, res.rows[i], oracle[i], sql)
			}
		}
	}
}

func dumpWindowTable(t *testing.T, vecs []*vec.Vector, n int) {
	t.Helper()
	if n > 40 {
		t.Logf("w: %d rows (too big to dump)", n)
		return
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "w (%d rows):\n", n)
	for i := 0; i < n; i++ {
		for _, v := range vecs {
			fmt.Fprintf(&sb, "%s\t", v.Value(i))
		}
		fmt.Fprintf(&sb, "#%d\n", i)
	}
	t.Log(sb.String())
}
