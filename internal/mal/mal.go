// Package mal models the MAL (Monet Assembly Language) layer of the engine:
// the instruction-level representation of a query plan that the columnar
// executor interprets (paper §3.1 "Query Plan Execution").
//
// Two MAL-level concerns live here:
//
//   - the instruction trace (Program), used by EXPLAIN output and by
//     plan-shape tests — including common-subexpression elimination, which
//     the executor performs by memoizing identical expression instructions;
//   - the mitosis heuristics (paper §3.1 "Parallel Execution", Figure 2):
//     how many chunks to split an operator's input into, based on input
//     size, core count and (for scans) a memory budget, never splitting
//     small inputs. Each operator family has its own split rule — Mitosis
//     for scan pipelines, MitosisGrouped for grouped aggregation,
//     MitosisJoin for hash-join probes, MitosisSort for ORDER BY runs,
//     MitosisWindow for per-partition window computation — because their
//     fixed per-chunk overheads differ.
//
// A ChunkPlan only describes row ranges; executing chunks concurrently and
// merging results in chunk order (the determinism contract) is package
// exec's job. Heuristic outputs are pure functions of their arguments, so
// plan shapes are reproducible in tests.
package mal

import (
	"fmt"
	"runtime"
	"strings"
)

// Instr is one MAL instruction in a trace: ret := op(args).
type Instr struct {
	Op   string
	Args []string
	Ret  string
}

// String renders the instruction in MAL-like syntax.
func (i Instr) String() string {
	if i.Ret == "" {
		return fmt.Sprintf("%s(%s);", i.Op, strings.Join(i.Args, ", "))
	}
	return fmt.Sprintf("%s := %s(%s);", i.Ret, i.Op, strings.Join(i.Args, ", "))
}

// Program is an instruction trace of one query execution.
type Program struct {
	Instrs []Instr
	nreg   int
}

// NewReg allocates a fresh register name.
func (p *Program) NewReg() string {
	p.nreg++
	return fmt.Sprintf("X_%d", p.nreg)
}

// Emit appends an instruction and returns its result register.
func (p *Program) Emit(op string, args ...string) string {
	if p == nil {
		return ""
	}
	ret := p.NewReg()
	p.Instrs = append(p.Instrs, Instr{Op: op, Args: args, Ret: ret})
	return ret
}

// EmitVoid appends an instruction with no result register.
func (p *Program) EmitVoid(op string, args ...string) {
	if p == nil {
		return
	}
	p.Instrs = append(p.Instrs, Instr{Op: op, Args: args})
}

// Splice appends the program of a nested query block under a label: a
// sql.subplan(label) header, then sub's instructions with their result
// registers renumbered into p's sequence.
func (p *Program) Splice(label string, sub *Program) {
	if p == nil || sub == nil {
		return
	}
	p.EmitVoid("sql.subplan", label)
	for _, in := range sub.Instrs {
		if in.Ret != "" {
			in.Ret = p.NewReg()
		}
		p.Instrs = append(p.Instrs, in)
	}
}

// String renders the whole program.
func (p *Program) String() string {
	if p == nil {
		return ""
	}
	var sb strings.Builder
	for _, i := range p.Instrs {
		sb.WriteString(i.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Count returns how many instructions use the given op.
func (p *Program) Count(op string) int {
	if p == nil {
		return 0
	}
	n := 0
	for _, i := range p.Instrs {
		if i.Op == op {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Mitosis heuristics.
// ---------------------------------------------------------------------------

// MinChunkRows is the smallest chunk worth parallelizing: below this, the
// goroutine and merge overhead outweighs the benefit (the paper: "the
// optimizer will not split up small columns").
const MinChunkRows = 16384

// DefaultMemBudget caps the estimated bytes one chunk should occupy so chunks
// fit in memory (the paper: "generate chunks that fit inside main memory").
const DefaultMemBudget = 256 << 20

// ChunkPlan describes how mitosis splits a table.
type ChunkPlan struct {
	Chunks int // 1 = no parallelism
	Rows   int // rows per chunk (last chunk may be smaller)
}

// Mitosis decides the chunking of a scan over nrows rows of approximately
// rowBytes bytes each, given maxThreads workers (0 = GOMAXPROCS).
func Mitosis(nrows int, rowBytes int, maxThreads int) ChunkPlan {
	if maxThreads <= 0 {
		maxThreads = runtime.GOMAXPROCS(0)
	}
	// Memory-driven chunking applies regardless of parallelism: chunks must
	// fit the budget even on one worker (the paper: "generate chunks that
	// fit inside main memory to avoid swapping").
	memNeed := 1
	if rowBytes > 0 {
		maxRowsPerChunk := DefaultMemBudget / rowBytes
		if maxRowsPerChunk < 1 {
			maxRowsPerChunk = 1
		}
		memNeed = (nrows + maxRowsPerChunk - 1) / maxRowsPerChunk
	}
	if nrows < 2*MinChunkRows || maxThreads == 1 {
		chunks := max(1, memNeed)
		return ChunkPlan{Chunks: chunks, Rows: (nrows + chunks - 1) / chunks}
	}
	chunks := maxThreads
	// Respect the minimum chunk size.
	if nrows/chunks < MinChunkRows {
		chunks = nrows / MinChunkRows
	}
	chunks = max(chunks, memNeed)
	if chunks < 1 {
		chunks = 1
	}
	rows := (nrows + chunks - 1) / chunks
	return ChunkPlan{Chunks: chunks, Rows: rows}
}

// MitosisScan decides the chunking of a selection pipeline — a scan whose
// output is a candidate list (scan → filter → project shapes), not a
// materialized copy. Unlike the aggregate-feeding Mitosis there is no memory
// budget: chunk windows are views over the resident base columns and each
// worker produces only a []int32 of survivors, so the only fixed per-chunk
// cost is the goroutine plus the chunk-order concatenation (bat.mergecand).
// Chunks therefore just have to clear the plain MinChunkRows bar, clamped to
// the worker budget.
func MitosisScan(nrows, maxThreads int) ChunkPlan {
	if maxThreads <= 0 {
		maxThreads = runtime.GOMAXPROCS(0)
	}
	if maxThreads == 1 || nrows < 2*MinChunkRows {
		return ChunkPlan{Chunks: 1, Rows: nrows}
	}
	chunks := maxThreads
	if nrows/chunks < MinChunkRows {
		chunks = nrows / MinChunkRows
	}
	if chunks < 1 {
		chunks = 1
	}
	return ChunkPlan{Chunks: chunks, Rows: (nrows + chunks - 1) / chunks}
}

// MinGroupedChunkRows is the smallest chunk worth parallelizing for grouped
// aggregation. Each chunk builds its own hash table and the merge phase
// re-groups every chunk's key representatives and folds keyed partials, so
// the fixed per-chunk overhead is higher than for plain scan/map pipelines —
// grouped mitosis therefore demands larger chunks before it splits.
const MinGroupedChunkRows = 2 * MinChunkRows

// MitosisGrouped decides the chunking of a parallel grouped-aggregation
// pipeline over nrows rows. It starts from the plain Mitosis plan and clamps
// the chunk count so every chunk holds at least MinGroupedChunkRows rows;
// when that leaves a single chunk the caller should fall back to the serial
// grouped path (which the plain scan mitosis still parallelizes upstream).
func MitosisGrouped(nrows int, rowBytes int, maxThreads int) ChunkPlan {
	cp := Mitosis(nrows, rowBytes, maxThreads)
	if cp.Chunks <= 1 {
		return cp
	}
	if maxChunks := nrows / MinGroupedChunkRows; cp.Chunks > maxChunks {
		cp.Chunks = max(1, maxChunks)
		cp.Rows = (nrows + cp.Chunks - 1) / cp.Chunks
	}
	return cp
}

// MitosisSort decides the chunking of a parallel ORDER BY over nrows
// already-materialized rows: each chunk sorts its contiguous index run
// independently and the coordinator k-way merges the runs. Unlike scan
// mitosis there is no memory budget (the input batch is already resident)
// but the serial O(n log k) merge is pure coordinator overhead, so chunks
// must clear the plain MinChunkRows bar before splitting pays — and the
// chunk count is clamped to the worker budget, since sorting is CPU-bound
// with no I/O to overlap.
func MitosisSort(nrows, maxThreads int) ChunkPlan {
	if maxThreads <= 0 {
		maxThreads = runtime.GOMAXPROCS(0)
	}
	if maxThreads == 1 || nrows < 2*MinChunkRows {
		return ChunkPlan{Chunks: 1, Rows: nrows}
	}
	chunks := maxThreads
	if nrows/chunks < MinChunkRows {
		chunks = nrows / MinChunkRows
	}
	if chunks < 1 {
		chunks = 1
	}
	return ChunkPlan{Chunks: chunks, Rows: (nrows + chunks - 1) / chunks}
}

// MitosisWindow decides the fan-out of per-partition window-function
// computation over nrows already-sorted rows. Partitions are fully
// independent — each worker takes a contiguous run of whole partitions and
// writes results at disjoint input positions, so there is no merge step at
// all; like MitosisSort there is no memory budget (the input batch is
// resident), and chunks must clear the plain MinChunkRows bar before the
// goroutine overhead pays. The returned Rows is a *target* per worker: the
// executor grows each worker's range to the next partition boundary, so a
// plan never splits a partition. The split arithmetic is MitosisSort's: both
// operators fan out CPU-bound work over an already-resident batch with the
// plain MinChunkRows bar.
func MitosisWindow(nrows, maxThreads int) ChunkPlan {
	return MitosisSort(nrows, maxThreads)
}

// MitosisJoin decides the probe-side chunking of a parallel hash join. The
// build side is shared by every worker (a radix-partitioned table built
// once), so only the probe side splits. Two asymmetry rules on top of the
// plain scan heuristics:
//
//   - probing is pure pointer-chasing with no merge step, so chunks only
//     need to clear the plain MinChunkRows bar;
//   - when the build side is large relative to a chunk, each probe misses
//     cache on nearly every lookup and the fixed per-chunk cost (key
//     canonicalization, goroutine) stops amortizing — so every chunk must
//     probe at least a quarter of the build side's rows.
func MitosisJoin(probeRows, buildRows, maxThreads int) ChunkPlan {
	if maxThreads <= 0 {
		maxThreads = runtime.GOMAXPROCS(0)
	}
	if maxThreads == 1 || probeRows < 2*MinChunkRows {
		return ChunkPlan{Chunks: 1, Rows: probeRows}
	}
	chunks := maxThreads
	if probeRows/chunks < MinChunkRows {
		chunks = probeRows / MinChunkRows
	}
	if minChunk := buildRows / 4; minChunk > MinChunkRows && probeRows/chunks < minChunk {
		chunks = probeRows / minChunk
	}
	if chunks < 1 {
		chunks = 1
	}
	return ChunkPlan{Chunks: chunks, Rows: (probeRows + chunks - 1) / chunks}
}

// Bounds returns the row range [lo, hi) of chunk i.
func (cp ChunkPlan) Bounds(i, nrows int) (int, int) {
	lo := i * cp.Rows
	hi := min(lo+cp.Rows, nrows)
	return lo, hi
}
