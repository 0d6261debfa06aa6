// Package mal models the MAL (Monet Assembly Language) layer of the engine:
// the instruction-level representation of a query plan that the columnar
// executor interprets (paper §3.1 "Query Plan Execution").
//
// Two MAL-level concerns live here:
//
//   - the instruction trace (Program), used by EXPLAIN output and by
//     plan-shape tests — including common-subexpression elimination, which
//     the executor performs by memoizing identical expression instructions;
//   - the mitosis rule (paper §3.1 "Parallel Execution", Figure 2): Split
//     decides how many chunks an operator's input is cut into — one per
//     core, never a chunk below the operator's minimum size (small columns
//     are not split), and enough chunks that each fits the memory budget.
//     Operators differ only in the minimum chunk size they pass, which
//     reflects their fixed per-chunk overhead.
//
// A ChunkPlan only describes row ranges; executing chunks concurrently and
// merging results in chunk order (the determinism contract) is package
// exec's job. Split is a pure function of its arguments, so plan shapes are
// reproducible in tests.
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
// Mitosis.
// ---------------------------------------------------------------------------

// MinChunkRows is the smallest chunk worth parallelizing: below this, the
// goroutine and merge overhead outweighs the benefit (the paper: "the
// optimizer will not split up small columns"). Operators with a larger fixed
// per-chunk cost pass a larger minimum to Split.
const MinChunkRows = 16384

// DefaultMemBudget caps the estimated bytes one chunk should occupy so chunks
// fit in memory (the paper: "generate chunks that fit inside main memory").
const DefaultMemBudget = 256 << 20

// ChunkPlan describes how mitosis splits a table.
type ChunkPlan struct {
	Chunks int // 1 = no parallelism
	Rows   int // rows per chunk (last chunk may be smaller)
}

// Split decides how mitosis cuts an operator's input of nrows rows: one chunk
// per worker (threads, 0 = GOMAXPROCS) as long as every chunk keeps at least
// minRows rows — so an input below 2·minRows is never split — and at least
// as many chunks as keep each one's estimated bytes (rowBytes per row; 0 for
// inputs that are already resident or are only viewed) within
// DefaultMemBudget. The memory rule applies even on one worker: chunks must
// fit in memory whether or not they run in parallel.
func Split(nrows, minRows, rowBytes, threads int) ChunkPlan {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	chunks := min(threads, nrows/max(minRows, 1))
	if rowBytes > 0 {
		perChunk := max(DefaultMemBudget/rowBytes, 1)
		chunks = max(chunks, (nrows+perChunk-1)/perChunk)
	}
	chunks = max(chunks, 1)
	return ChunkPlan{Chunks: chunks, Rows: (nrows + chunks - 1) / chunks}
}

// Bounds returns the row range [lo, hi) of chunk i.
func (cp ChunkPlan) Bounds(i, nrows int) (int, int) {
	lo := i * cp.Rows
	hi := min(lo+cp.Rows, nrows)
	return lo, hi
}
