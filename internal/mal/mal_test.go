package mal

import (
	"strings"
	"testing"
)

func TestProgramEmitAndString(t *testing.T) {
	p := &Program{}
	r1 := p.Emit("algebra.select", "tbl.col", "5")
	r2 := p.Emit("aggr.sum", r1)
	p.EmitVoid("optimizer.mitosis", "4 chunks")
	out := p.String()
	if !strings.Contains(out, r1+" := algebra.select(tbl.col, 5);") {
		t.Fatalf("program:\n%s", out)
	}
	if !strings.Contains(out, r2+" := aggr.sum("+r1+");") {
		t.Fatalf("program:\n%s", out)
	}
	if !strings.Contains(out, "optimizer.mitosis(4 chunks);") {
		t.Fatalf("void emit:\n%s", out)
	}
	if p.Count("algebra.select") != 1 || p.Count("nope") != 0 {
		t.Fatal("count")
	}
}

func TestNilProgramSafe(t *testing.T) {
	var p *Program
	if p.Emit("x") != "" {
		t.Fatal("nil emit should be a no-op")
	}
	p.EmitVoid("y")
	if p.String() != "" || p.Count("x") != 0 {
		t.Fatal("nil program accessors")
	}
}

// Each operator's minimum chunk size, as the executor passes it to Split.
const (
	scanMin    = MinChunkRows     // scans, global aggregates, sort/TopN, windows
	groupedMin = 2 * MinChunkRows // grouped aggregates: a hash table + keyed merge per chunk
)

func joinMin(buildRows int) int { return max(MinChunkRows, buildRows/4) }

// The per-operator split rules Split replaced, kept as the oracle it must
// agree with. Scan, sort/TopN and window shared one body (oracleResident).
func oracleMitosis(nrows, rowBytes, threads int) ChunkPlan {
	memNeed := 1
	if rowBytes > 0 {
		maxRowsPerChunk := max(DefaultMemBudget/rowBytes, 1)
		memNeed = (nrows + maxRowsPerChunk - 1) / maxRowsPerChunk
	}
	if nrows < 2*MinChunkRows || threads == 1 {
		chunks := max(1, memNeed)
		return ChunkPlan{Chunks: chunks, Rows: (nrows + chunks - 1) / chunks}
	}
	chunks := threads
	if nrows/chunks < MinChunkRows {
		chunks = nrows / MinChunkRows
	}
	chunks = max(chunks, memNeed, 1)
	return ChunkPlan{Chunks: chunks, Rows: (nrows + chunks - 1) / chunks}
}

func oracleResident(nrows, threads int) ChunkPlan {
	if threads == 1 || nrows < 2*MinChunkRows {
		return ChunkPlan{Chunks: 1, Rows: nrows}
	}
	chunks := threads
	if nrows/chunks < MinChunkRows {
		chunks = nrows / MinChunkRows
	}
	chunks = max(chunks, 1)
	return ChunkPlan{Chunks: chunks, Rows: (nrows + chunks - 1) / chunks}
}

func oracleGrouped(nrows, rowBytes, threads int) ChunkPlan {
	cp := oracleMitosis(nrows, rowBytes, threads)
	if maxChunks := nrows / (2 * MinChunkRows); cp.Chunks > 1 && cp.Chunks > maxChunks {
		cp.Chunks = max(1, maxChunks)
		cp.Rows = (nrows + cp.Chunks - 1) / cp.Chunks
	}
	return cp
}

func oracleJoin(probeRows, buildRows, threads int) ChunkPlan {
	if threads == 1 || probeRows < 2*MinChunkRows {
		return ChunkPlan{Chunks: 1, Rows: probeRows}
	}
	chunks := threads
	if probeRows/chunks < MinChunkRows {
		chunks = probeRows / MinChunkRows
	}
	if minChunk := buildRows / 4; minChunk > MinChunkRows && probeRows/chunks < minChunk {
		chunks = probeRows / minChunk
	}
	chunks = max(chunks, 1)
	return ChunkPlan{Chunks: chunks, Rows: (probeRows + chunks - 1) / chunks}
}

// Split with each caller's minimum reproduces the rule that caller used to
// have, over rows x threads x row widths (and build sizes for joins).
func TestSplitMatchesOperatorRules(t *testing.T) {
	rows := []int{0, 1, 1000, MinChunkRows - 1, MinChunkRows, 2*MinChunkRows - 1, 2 * MinChunkRows,
		2*MinChunkRows + 100, 3 * MinChunkRows, 4*MinChunkRows - 1, 4 * MinChunkRows, 40_000, 100_000,
		100_001, 8 * MinChunkRows, 1 << 20, 1_000_000, 3_000_001, 10_000_000, 1 << 24, 25_000_000,
		1<<25 + 1, 40_000_000}
	threads := []int{1, 2, 3, 4, 8, 16}
	widths := []int{0, 8, 56, 128, 800}
	builds := []int{0, 1000, 4 * MinChunkRows, 4*MinChunkRows + 4, 1 << 20, 40_000_000}
	check := func(caller string, n, th, arg int, got, want ChunkPlan) {
		t.Helper()
		if got != want {
			t.Errorf("%s rows=%d threads=%d arg=%d: Split %+v, rule %+v", caller, n, th, arg, got, want)
		}
	}
	for _, n := range rows {
		for _, th := range threads {
			check("scan/sort/window", n, th, 0, Split(n, scanMin, 0, th), oracleResident(n, th))
			for _, w := range widths {
				check("global agg", n, th, w, Split(n, scanMin, w, th), oracleMitosis(n, w, th))
				check("grouped agg", n, th, w, Split(n, groupedMin, w, th), oracleGrouped(n, w, th))
			}
			for _, b := range builds {
				check("join probe", n, th, b, Split(n, joinMin(b), 0, th), oracleJoin(n, b, th))
			}
		}
	}
}

func TestMitosisSmallInputsNotSplit(t *testing.T) {
	// The paper: "the optimizer will not split up small columns".
	for _, n := range []int{1000, 2*MinChunkRows - 1} {
		if cp := Split(n, scanMin, 8, 8); cp.Chunks != 1 {
			t.Fatalf("%d rows split into %d chunks", n, cp.Chunks)
		}
	}
}

func TestMitosisUsesThreads(t *testing.T) {
	if cp := Split(1_000_000, scanMin, 8, 4); cp.Chunks != 4 {
		t.Fatalf("chunks = %d, want 4", cp.Chunks)
	}
	// Respect MinChunkRows: 40000 rows / 4 threads = 10000 < MinChunkRows.
	if cp := Split(40000, scanMin, 8, 4); cp.Chunks != 40000/MinChunkRows {
		t.Fatalf("chunks = %d", cp.Chunks)
	}
}

func TestMitosisGroupedDemandsLargerChunks(t *testing.T) {
	// The grouped minimum keeps chunks twice as large, so the per-chunk hash
	// table and keyed merge overhead is amortized.
	plain, grouped := Split(100_000, scanMin, 8, 8), Split(100_000, groupedMin, 8, 8)
	if grouped.Chunks > plain.Chunks || grouped.Chunks != 100_000/groupedMin {
		t.Fatalf("grouped chunks = %d (plain %d), want %d", grouped.Chunks, plain.Chunks, 100_000/groupedMin)
	}
	if grouped.Rows < groupedMin {
		t.Fatalf("grouped chunk of %d rows below the minimum %d", grouped.Rows, groupedMin)
	}
}

func TestMitosisGroupedSmallInputsNotSplit(t *testing.T) {
	// Big enough for the plain minimum, too small for the grouped one.
	nrows := 2*MinChunkRows + 100
	if plain := Split(nrows, scanMin, 8, 8); plain.Chunks <= 1 {
		t.Fatalf("plain minimum did not split %d rows", nrows)
	}
	if cp := Split(nrows, groupedMin, 8, 8); cp.Chunks != 1 {
		t.Fatalf("grouped minimum split %d rows into %d chunks", nrows, cp.Chunks)
	}
}

func TestMitosisGroupedLargeInputsMatchThreads(t *testing.T) {
	if cp := Split(10_000_000, groupedMin, 8, 4); cp.Chunks != 4 {
		t.Fatalf("chunks = %d, want 4", cp.Chunks)
	}
}

func TestMitosisMemoryBudget(t *testing.T) {
	// Huge rows force more chunks so each fits the budget, even on few workers.
	rowBytes := 1 << 20 // 1 MiB per row
	cp := Split(4096, scanMin, rowBytes, 2)
	if maxRows := DefaultMemBudget / rowBytes; cp.Rows > maxRows {
		t.Fatalf("chunk of %d rows exceeds memory budget (max %d)", cp.Rows, maxRows)
	}
}

func TestChunkBounds(t *testing.T) {
	cp := ChunkPlan{Chunks: 3, Rows: 40}
	lo, hi := cp.Bounds(0, 100)
	if lo != 0 || hi != 40 {
		t.Fatal("chunk 0")
	}
	lo, hi = cp.Bounds(2, 100)
	if lo != 80 || hi != 100 {
		t.Fatalf("last chunk: %d..%d", lo, hi)
	}
	// All rows covered exactly once, for a hand-made plan and a Split one.
	for _, tc := range []struct {
		cp ChunkPlan
		n  int
	}{{cp, 100}, {Split(100_001, scanMin, 0, 3), 100_001}} {
		covered := 0
		for i := 0; i < tc.cp.Chunks; i++ {
			lo, hi := tc.cp.Bounds(i, tc.n)
			covered += hi - lo
		}
		if covered != tc.n {
			t.Fatalf("%+v covered %d of %d rows", tc.cp, covered, tc.n)
		}
	}
}

func TestMitosisJoinSmallProbeNotSplit(t *testing.T) {
	if cp := Split(2*MinChunkRows-1, joinMin(100), 0, 8); cp.Chunks != 1 {
		t.Fatalf("small probe split into %d chunks", cp.Chunks)
	}
	if cp := Split(1<<20, joinMin(100), 0, 1); cp.Chunks != 1 {
		t.Fatalf("single thread split into %d chunks", cp.Chunks)
	}
}

func TestMitosisJoinUsesThreads(t *testing.T) {
	cp := Split(1<<20, joinMin(1000), 0, 4)
	if cp.Chunks != 4 || cp.Rows*cp.Chunks < 1<<20 {
		t.Fatalf("want 4 chunks covering the probe side, got %+v", cp)
	}
}

// Build/probe asymmetry: a build side large relative to the probe chunks
// forces bigger chunks (fewer workers) so the per-chunk probe amortizes.
func TestMitosisJoinBuildAsymmetry(t *testing.T) {
	probe := 8 * MinChunkRows // 131072: the plain minimum would use 8 threads
	small := Split(probe, joinMin(1000), 0, 8)
	if small.Chunks != 8 {
		t.Fatalf("small build: want 8 chunks, got %d", small.Chunks)
	}
	big := Split(probe, joinMin(probe*2), 0, 8)
	if big.Chunks >= small.Chunks || big.Chunks < 1 {
		t.Fatalf("huge build side should shrink the chunk count: %d vs %d", big.Chunks, small.Chunks)
	}
}

func TestMitosisSortSmallInputsNotSplit(t *testing.T) {
	if cp := Split(2*MinChunkRows-1, scanMin, 0, 8); cp.Chunks != 1 {
		t.Fatalf("small sort split into %d chunks", cp.Chunks)
	}
	if cp := Split(1<<20, scanMin, 0, 1); cp.Chunks != 1 {
		t.Fatalf("single thread split into %d chunks", cp.Chunks)
	}
}

func TestMitosisSortUsesThreads(t *testing.T) {
	if cp := Split(1<<20, scanMin, 0, 4); cp.Chunks != 4 || cp.Rows*cp.Chunks < 1<<20 {
		t.Fatalf("want 4 runs covering the input, got %+v", cp)
	}
	// 3*MinChunkRows rows on 8 threads must not produce runs below MinChunkRows.
	if cp := Split(3*MinChunkRows, scanMin, 0, 8); cp.Chunks > 3 || cp.Chunks < 2 {
		t.Fatalf("want 2-3 runs, got %d", cp.Chunks)
	}
}

// Scans split with no memory budget (chunk windows are views and workers
// emit only row ids): the plain MinChunkRows bar, clamped to the workers.
func TestMitosisScan(t *testing.T) {
	for _, tc := range []struct{ n, threads, want int }{
		{1000, 8, 1},
		{2*MinChunkRows - 1, 8, 1},
		{1_000_000, 4, 4},
		{1_000_000, 1, 1},
		{40000, 8, 40000 / MinChunkRows},
	} {
		if cp := Split(tc.n, scanMin, 0, tc.threads); cp.Chunks != tc.want {
			t.Fatalf("%d rows on %d threads: %d chunks, want %d", tc.n, tc.threads, cp.Chunks, tc.want)
		}
	}
}
