// Package exec is monetlite's columnar execution engine: it interprets
// logical plans column-at-a-time, in the MonetDB style the paper describes —
// every operator processes whole columns, intermediates are base columns
// with row ids per source (selections flow as candidate lists, joins compose
// ids, and each column is gathered once, by the operator that reads it; see
// batch), and operators are parallelized by mitosis (§3.1), every fan-out
// split by the one rule mal.Split through Engine.chunkPlan: chunked scan/map
// pipelines, partial aggregation over the aggregate's input rows,
// partitioned hash-join probes, per-run parallel sorts with a k-way merge
// (plus the bounded-heap TopN for ORDER BY … LIMIT), and per-partition
// window-function fan-out.
//
// Invariants:
//
//   - One path per operator: scan, aggregate (DISTINCT is a key-only
//     aggregate), join probe, sort, TopN and window each run one chunked
//     loop, and a serial run is its one-chunk case, run inline on the
//     coordinating engine and traced as serial (no optimizer.mitosis line).
//     Parallel only sets the chunk count. Every row the engine reads goes
//     through these loops: DELETE and UPDATE select theirs with the scan
//     (SelectRows), under the same setup as Execute (run).
//   - Chunk-order determinism: mitosis workers write into per-chunk slots
//     and the coordinator merges in chunk order, so every chunk count
//     returns *identical* results — same rows, same order — which the
//     differential tests rely on (see docs/ARCHITECTURE.md).
//   - Worker isolation: chunk engines (chunkEngine) never emit to the
//     shared MAL trace; the coordinator emits summary instructions and
//     aggregates worker counters (e.g. imprint block skips) afterwards.
//     The scalar-subquery cache is the one shared structure, and it is
//     lock-guarded so a subquery evaluates once per query, not per chunk.
//   - Interrupts (context cancellation and deadlines) are checked between
//     operators, between filter conjuncts, and before every chunk task and
//     after every fan-out (runTasks) — never inside a kernel, so kernels
//     stay branch-free. A cancelled query aborts within one chunk of work.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"monetlite/internal/index"
	"monetlite/internal/mal"
	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
	"monetlite/internal/workpool"
)

// TableSource is the engine's view of one table (a transaction snapshot).
type TableSource interface {
	Meta() *storage.TableMeta
	NumRows() int
	Col(i int) (*vec.Vector, error)
	LiveCands() []int32
	// Index accessors may return nil (no index available for this snapshot).
	Imprints(ci int) *index.Imprints
	HashIdx(ci int) *index.HashIndex
	OrderIdx(ci int) *index.OrderIndex
	// EncodedCol returns the column's compressed physical form when one
	// covers this snapshot (nil otherwise). Unlike the index accessors it is
	// not an optional acceleration structure but the storage representation
	// itself, so it is not gated by Engine.NoIndexes.
	EncodedCol(ci int) *vec.Encoded
}

// Catalog resolves table names to sources for one execution.
type Catalog interface {
	Source(name string) (TableSource, bool)
}

// Engine executes logical plans.
type Engine struct {
	Cat        Catalog
	Parallel   bool // split operators into more than one chunk (mitosis)
	MaxThreads int  // 0 = GOMAXPROCS
	NoIndexes  bool // disable automatic index use (ablation)
	Timeout    time.Duration
	Ctx        context.Context // optional; cancellation aborts the query
	Trace      *mal.Program    // optional MAL trace for EXPLAIN / tests
	// Pool is the shared worker budget mitosis fan-outs draw from (nil =
	// workpool.Global). Each Execute registers one query lease, so N
	// concurrent queries split the budget fairly instead of each spawning a
	// full GOMAXPROCS fan-out.
	Pool *workpool.Pool

	deadline time.Time
	subCache *subplanCache
	stats    *execStats
	lease    *workpool.Lease

	// testChunkRows, when >0, overrides the chunk size of every mitosis
	// fan-out (scan, aggregate, join probe, sort/TopN, window) so tests can
	// force multi-chunk parallel execution on small inputs.
	testChunkRows int
	// testBuildSide, when nonzero, overrides the runtime build-side choice of
	// every join (>0 builds on the left input, <0 on the right) so tests can
	// run each flavor both ways on the same inputs.
	testBuildSide int
}

// execStats accumulates per-query counters that mitosis workers update
// concurrently; the coordinator surfaces them in the MAL trace.
type execStats struct {
	imprintsBlocksSkipped atomic.Int64
	imprintsBlocksTotal   atomic.Int64
}

// workerBudget returns the engine's parallel worker count.
func (e *Engine) workerBudget() int {
	if e.MaxThreads > 0 {
		return e.MaxThreads
	}
	return runtime.GOMAXPROCS(0)
}

// chunkPlan is how every mitosis fan-out splits its n input rows: mal.Split
// with the operator's minimum chunk size and per-row bytes over the engine's
// worker budget, or one chunk when the engine is serial.
func (e *Engine) chunkPlan(n, minRows, rowBytes int) mal.ChunkPlan {
	switch {
	case !e.Parallel:
		return mal.ChunkPlan{Chunks: 1, Rows: n}
	case e.testChunkRows > 0 && n > e.testChunkRows:
		return mal.ChunkPlan{Chunks: (n + e.testChunkRows - 1) / e.testChunkRows, Rows: e.testChunkRows}
	}
	return mal.Split(n, minRows, rowBytes, e.MaxThreads)
}

// subplanCache memoizes uncorrelated scalar subquery results for one
// execution. It is shared between the coordinating engine and its mitosis
// chunk engines, so a subquery in a pushed-down scan filter is evaluated
// once per query — not once per chunk — and the lock serializes concurrent
// first evaluations from worker goroutines. When the query is traced, each
// subquery's own program is kept here too (a worker has no trace to write
// to) and Execute splices them into the query's trace at the end.
type subplanCache struct {
	mu    sync.Mutex
	m     map[plan.Node]mtypes.Value
	progs map[int]*mal.Program // by SubplanExpr.ID; nil when the query is untraced
}

// ErrTimeout is returned when a query exceeds the engine timeout.
var ErrTimeout = errors.New("exec: query timeout")

// Result is a columnar query result.
type Result struct {
	Names []string
	Cols  []*vec.Vector
}

// NumRows returns the number of result rows.
func (r *Result) NumRows() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return r.Cols[0].Len()
}

// batch is an operator intermediate: the rows of one or more sources side by
// side. A source is the input a group of columns came from (a scan, one side
// of a join, a projection's computed columns), and its columns share one
// row-id vector: logical row i of column c is cols[c][ids[i]], with ids those
// of c's source (nil ids: cols[c][i]). The columns stay the base vectors. A
// scan's selection view is the one-source case; a filter narrows every
// source's ids, a join composes them (an int32 gather per source, no payload
// copied), and a column's values are gathered once, where they are read (col):
// by the memo's column leaves, which serve keys, aggregates and predicates, and
// at result assembly.
type batch struct {
	cols []*vec.Vector
	src  []int // source of each column, an index into srcs; -1 for a placeholder (project)
	srcs []source
	n    int
	// enc, when non-nil, carries the compressed form of base-table columns
	// (slot-indexed, parallel to cols; nil entries = raw only). enc[c] covers
	// table rows from 0, and row r of cols[c] is table row off+r of c's
	// source, so it stays valid while cols[c] is the base vector and its ids
	// index base rows. A dense intermediate never carries one, and neither
	// does the right side of a left outer join (its ids hold -1).
	enc []*vec.Encoded
}

// source is the row ids one group of a batch's columns shares.
type source struct {
	ids []int32 // nil: row i is row i of the columns, which then hold exactly n rows
	// asc holds when ids never decrease, so they serve as a candidate list
	// for the selection kernels: a scan's, a filter's and a semi/anti join's
	// ids, and a join's probe side; the build side is in probe order.
	asc   bool
	outer bool // ids hold -1 for a left outer join's non-matches, read as NULL
	off   int  // the table row of the columns' row 0, where enc is aligned
}

// newBatch wraps equally long vectors as a dense batch: one source, no ids.
func newBatch(cols []*vec.Vector) *batch {
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	return denseBatch(cols, n)
}

// denseBatch is newBatch with the row count given (for zero-column batches).
func denseBatch(cols []*vec.Vector, n int) *batch {
	return &batch{cols: cols, src: make([]int, len(cols)), srcs: []source{{asc: true}}, n: n}
}

// viewBatch is a selection view: full-width columns of one source and its
// ascending candidate list (nil = every row of the columns).
func viewBatch(cols []*vec.Vector, cands []int32, width int) *batch {
	b := denseBatch(cols, vec.NumCands(width, cands))
	b.srcs[0].ids = cands
	return b
}

// col returns column c's values at the batch's rows: the base vector itself
// for a source without ids, else a gather (NULL at an outer join's -1).
func (b *batch) col(c int) *vec.Vector {
	s := b.srcs[b.src[c]]
	switch {
	case s.ids == nil:
		return b.cols[c]
	case s.outer:
		return vec.GatherOuter(b.cols[c], s.ids)
	}
	return vec.Gather(b.cols[c], s.ids)
}

// encOf returns column c's encoded form, or nil.
func (b *batch) encOf(c int) *vec.Encoded {
	if c < len(b.enc) {
		return b.enc[c]
	}
	return nil
}

// codes returns the dictionary codes of column c, encoded as en, at the
// batch's rows (vec.Encoded.CodesI32 takes ids in any order).
func (b *batch) codes(c int, en *vec.Encoded) *vec.Vector {
	s := b.srcs[b.src[c]]
	return en.CodesI32(s.off, s.off+b.cols[c].Len(), s.ids)
}

// at returns the rows at positions pos of b (indexes into [0, n), in the
// order given; asc when they never decrease): every source's ids composed,
// no column copied. With outer, pos may hold -1 (a left outer join's
// non-match), which becomes -1 in every source and reads as NULL.
func (b *batch) at(pos []int32, asc, outer bool) *batch {
	if pos == nil {
		pos = []int32{} // nil ids would mean every row
	}
	out := &batch{cols: b.cols, src: b.src, srcs: make([]source, len(b.srcs)), n: len(pos), enc: b.enc}
	for i, s := range b.srcs {
		out.srcs[i] = source{ids: pos, asc: s.asc && asc, outer: s.outer || outer, off: s.off}
		switch {
		case s.ids == nil:
		case outer:
			ids := make([]int32, len(pos))
			for k, p := range pos {
				ids[k] = -1
				if p >= 0 {
					ids[k] = s.ids[p]
				}
			}
			out.srcs[i].ids = ids
		default:
			ids := make([]int32, len(pos))
			for k, p := range pos {
				ids[k] = s.ids[p]
			}
			out.srcs[i].ids = ids
		}
	}
	if outer {
		out.enc = nil
	}
	return out
}

// slice returns rows [lo, hi) of b: every source's ids sliced, and the
// columns of a source without ids windowed (its off moves with them).
func (b *batch) slice(lo, hi int) *batch {
	if lo == 0 && hi == b.n {
		return b
	}
	out := &batch{cols: make([]*vec.Vector, len(b.cols)), src: b.src, srcs: make([]source, len(b.srcs)), n: hi - lo, enc: b.enc}
	for i, s := range b.srcs {
		if s.ids != nil {
			s.ids = s.ids[lo:hi:hi]
		} else {
			s.off += lo
		}
		out.srcs[i] = s
	}
	for c, v := range b.cols {
		out.cols[c] = v
		if s := b.src[c]; s >= 0 && b.srcs[s].ids == nil {
			out.cols[c] = v.Slice(lo, hi)
		}
	}
	return out
}

// project returns the batch whose column i is b's column cs[i] (a nil
// placeholder, never read, where cs[i] < 0), with only the sources those
// columns read.
func (b *batch) project(cs []int) *batch {
	out := &batch{cols: make([]*vec.Vector, len(cs)), src: make([]int, len(cs)), n: b.n}
	remap := make([]int, len(b.srcs))
	for i := range remap {
		remap[i] = -1
	}
	for i, c := range cs {
		out.src[i] = -1
		if c < 0 {
			continue
		}
		s := b.src[c]
		if remap[s] < 0 {
			remap[s] = len(out.srcs)
			out.srcs = append(out.srcs, b.srcs[s])
		}
		out.cols[i], out.src[i] = b.cols[c], remap[s]
		if en := b.encOf(c); en != nil {
			if out.enc == nil {
				out.enc = make([]*vec.Encoded, len(cs))
			}
			out.enc[i] = en
		}
	}
	return out
}

// besides returns the batch of l's columns followed by r's, over the same
// rows (l.n == r.n): the output of a join once each side is composed at its
// pair list.
func besides(l, r *batch) *batch {
	out := &batch{
		cols: append(slices.Clip(l.cols), r.cols...),
		src:  slices.Clip(l.src),
		srcs: append(slices.Clip(l.srcs), r.srcs...),
		n:    l.n,
	}
	for _, s := range r.src {
		if s >= 0 {
			s += len(l.srcs)
		}
		out.src = append(out.src, s)
	}
	if l.enc != nil || r.enc != nil {
		out.enc = make([]*vec.Encoded, len(out.cols))
		copy(out.enc, l.enc)
		copy(out.enc[len(l.cols):], r.enc)
	}
	return out
}

// gathered reports whether reading b's columns gathers, i.e. some source has
// ids.
func (b *batch) gathered() bool {
	for _, s := range b.srcs {
		if s.ids != nil {
			return true
		}
	}
	return false
}

// Execute runs a plan to completion.
func (e *Engine) Execute(n plan.Node) (*Result, error) {
	res := &Result{}
	err := e.run(func() error {
		if plan.HasJoin(n) {
			e.Trace.EmitVoid("optimizer.joinorder", plan.JoinTreeString(n))
		}
		b, err := e.exec(n)
		if err != nil {
			return err
		}
		// Result assembly reads every column: a column whose source has ids
		// is fetched here, once (MonetDB's late algebra.projection).
		res.Cols = make([]*vec.Vector, len(b.cols))
		fetched := 0
		for c := range b.cols {
			res.Cols[c] = b.col(c)
			if b.srcs[b.src[c]].ids != nil {
				fetched++
			}
		}
		if fetched > 0 {
			e.Trace.Emit("algebra.projection", fmt.Sprintf("%d of %d cols x %d rows", fetched, len(b.cols), b.n))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range n.Schema() {
		res.Names = append(res.Names, c.Name)
	}
	return res, nil
}

// SelectRows returns the live rows of table that satisfy pred (nil = every
// live row), in table order, and exprs evaluated over those rows: what DELETE
// and UPDATE read. The rows come from the query executor's scan, with pred's
// conjuncts as its filters, so they take the indexes, encoded domains,
// mitosis and subquery cache a SELECT would.
func (e *Engine) SelectRows(table string, pred plan.Expr, exprs []plan.Expr) ([]int32, []*vec.Vector, error) {
	src, ok := e.Cat.Source(table)
	if !ok {
		return nil, nil, fmt.Errorf("exec: no such table %q", table)
	}
	scan := &plan.Scan{Table: table, Filters: plan.SplitConjuncts(pred)}
	for ci := range src.Meta().Cols {
		scan.Cols = append(scan.Cols, ci)
	}
	var rows []int32
	var vals []*vec.Vector
	err := e.run(func() error {
		b, err := e.exec(scan)
		if err != nil {
			return err
		}
		if rows = b.srcs[0].ids; rows == nil {
			rows = vec.Range(b.n)
		}
		memo := newMemo(e)
		for _, ex := range exprs {
			v, err := memo.evalVec(ex, b)
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
		return nil
	})
	return rows, vals, err
}

// run is the setup every execution shares: a fresh subquery cache and
// counters, the query's worker lease when parallel, and the deadline. It runs
// body, then splices the programs of the scalar subqueries body evaluated
// into the trace.
func (e *Engine) run(body func() error) error {
	e.subCache = &subplanCache{m: map[plan.Node]mtypes.Value{}}
	if e.Trace != nil {
		e.subCache.progs = map[int]*mal.Program{}
	}
	e.stats = &execStats{}
	if e.Parallel && e.lease == nil {
		pool := e.Pool
		if pool == nil {
			pool = workpool.Global
		}
		e.lease = pool.Register()
		defer func() {
			e.lease.Close()
			e.lease = nil
		}()
	}
	if e.Timeout > 0 {
		e.deadline = time.Now().Add(e.Timeout)
	} else {
		e.deadline = time.Time{}
	}
	if err := body(); err != nil {
		return err
	}
	ids := make([]int, 0, len(e.subCache.progs))
	for id := range e.subCache.progs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		e.Trace.Splice(fmt.Sprintf("subplan#%d", id), e.subCache.progs[id])
	}
	return nil
}

// chunkEngine returns the engine a task of an n-task fan-out runs on: e
// itself for one task, else a clone for a mitosis worker goroutine. The
// clone drops the MAL trace (Program emission is not safe for concurrent use
// — the coordinator emits summary instructions instead) and shares the
// coordinator's lock-guarded subquery cache. Nested operators stay serial:
// the worker is the unit of parallelism.
func (e *Engine) chunkEngine(n int) *Engine {
	if n == 1 {
		return e
	}
	return &Engine{
		Cat:        e.Cat,
		MaxThreads: 1,
		NoIndexes:  e.NoIndexes,
		Ctx:        e.Ctx,
		deadline:   e.deadline,
		subCache:   e.subCache,
		stats:      e.stats,
	}
}

// untraced returns e without its MAL trace, for work whose trace lines would
// repeat what the caller emits: e itself when it has no trace, else a copy.
func (e *Engine) untraced() *Engine {
	if e.Trace == nil {
		return e
	}
	c := *e
	c.Trace = nil
	return &c
}

// runTasks executes task(0..n-1) through the query's lease (see
// workpool.Lease.Run): the calling goroutine plus the workers admission
// control grants — fewer under concurrency, as the pool caps each query at
// its fair share of GOMAXPROCS; a single task runs inline on the calling
// goroutine. Chunk outputs land in their per-index slots, so the
// coordinator's chunk-order merge is the same whatever the number of
// workers granted.
//
// Cancellation: a task that would start after the query was interrupted is
// skipped, and the barrier re-checks, so an interrupted fan-out returns the
// interrupt error and never a partial result.
func (e *Engine) runTasks(n int, task func(i int)) error {
	granted := e.lease.Run(n, func(i int) {
		if e.checkInterrupt() == nil {
			task(i)
		}
	})
	if n > 1 {
		e.Trace.EmitVoid("optimizer.admission",
			fmt.Sprintf("%d workers / %d tasks", granted+1, n))
	}
	return e.checkInterrupt()
}

// mitosisArgs emits the optimizer.mitosis line ("4 chunks (sort)") of a
// fan-out over more than one chunk and returns an operator line's args with
// note, formatted with the chunk count, appended. A one-chunk run emits
// nothing and keeps args as they are: it traces as serial execution.
func (e *Engine) mitosisArgs(chunks int, what string, args []string, note string) []string {
	if chunks <= 1 {
		return args
	}
	e.Trace.EmitVoid("optimizer.mitosis", fmt.Sprintf("%d chunks (%s)", chunks, what))
	return append(args, fmt.Sprintf(note, chunks))
}

// checkInterrupt reports whether the query should abort: the context was
// cancelled (client disconnect, server shutdown, per-query timeout upstream)
// or the engine deadline passed. It returns the raw context error so callers
// can match with errors.Is(err, context.Canceled).
func (e *Engine) checkInterrupt() error {
	if e.Ctx != nil {
		select {
		case <-e.Ctx.Done():
			return e.Ctx.Err()
		default:
		}
	}
	if !e.deadline.IsZero() && time.Now().After(e.deadline) {
		return ErrTimeout
	}
	return nil
}

func (e *Engine) exec(n plan.Node) (*batch, error) {
	if err := e.checkInterrupt(); err != nil {
		return nil, err
	}
	var b *batch
	var err error
	est := int64(0)
	label := ""
	switch x := n.(type) {
	case *plan.Scan:
		b, err = e.execScan(x)
		est, label = x.Est, "scan "+x.Table
	case *plan.Filter:
		b, err = e.execFilter(x)
		est, label = x.Est, "filter"
	case *plan.Project:
		b, err = e.execProject(x)
	case *plan.Join:
		b, err = e.execJoin(x)
		est, label = x.Est, "join "+x.Kind.String()
	case *plan.Aggregate:
		b, err = e.execAggregate(x)
		est, label = x.Est, "aggregate"
	case *plan.Sort:
		b, err = e.execSort(x)
	case *plan.TopN:
		b, err = e.execTopN(x)
	case *plan.Limit:
		b, err = e.execLimit(x)
	case *plan.Distinct:
		b, err = e.execDistinct(x)
	case *plan.Window:
		b, err = e.execWindow(x)
	default:
		return nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
	// Estimated-vs-actual cardinality per costed operator: the raw material
	// for plan-quality tests and q-error analysis. Est == 0 means the plan
	// was never annotated (hand-built plans in unit tests).
	if err == nil && est > 0 {
		e.Trace.EmitVoid("optimizer.cardinality",
			fmt.Sprintf("%s: est %d actual %d", label, est, b.n))
	}
	return b, err
}

// execFilter narrows the input's rows conjunct by conjunct, copying no
// column (narrow).
func (e *Engine) execFilter(x *plan.Filter) (*batch, error) {
	b, err := e.exec(x.Input)
	if err != nil {
		return nil, err
	}
	for _, f := range plan.SplitConjuncts(x.Pred) {
		if err := e.checkInterrupt(); err != nil {
			return nil, err
		}
		if b, err = e.narrow(f, b); err != nil {
			return nil, err
		}
		if b.n == 0 {
			break // all-false: no later conjunct can resurrect a row
		}
	}
	return b, nil
}

// narrow keeps the rows of b where conjunct f is TRUE. A conjunct that reads
// one source whose ids ascend runs as a scan filter does, over that source's
// base columns with its ids as the candidate list: over an encoded column's
// value domain (selectDomain) or through refineFilter's selection kernels.
// The other sources are composed at the positions it kept. Any other
// conjunct is selected over the batch's positions (selectPositions).
func (e *Engine) narrow(f plan.Expr, b *batch) (*batch, error) {
	used := map[int]bool{}
	plan.WalkExpr(f, func(x plan.Expr) bool {
		switch r := x.(type) {
		case *plan.ColRef:
			used[r.Slot] = true
		case *plan.AggRef:
			used[r.Slot] = true
		}
		return true
	})
	s, width := -1, 0
	for c := range used {
		if s >= 0 && b.src[c] != s {
			s = -1
			break
		}
		s, width = b.src[c], b.cols[c].Len()
	}
	switch {
	case len(used) == 0:
		// No column: a constant or subquery predicate, over positions.
		pos, err := e.refineFilter(f, nil, b.n, nil)
		if err != nil || pos == nil {
			return b, err
		}
		return b.at(pos, true, false), nil
	case s < 0 || !b.srcs[s].asc:
		pos, err := e.selectPositions(f, b)
		if err != nil {
			return nil, err
		}
		return b.at(pos, true, false), nil
	}
	src := b.srcs[s]
	refined, ok, err := e.selectDomain(b.encOf, f, b.cols, src.ids, src.off, src.off+width)
	if !ok && err == nil {
		refined, err = e.refineFilter(f, b.cols, width, src.ids)
	}
	if err != nil || refined == nil {
		return b, err
	}
	if len(b.srcs) == 1 {
		out := *b
		out.srcs = []source{{ids: refined, asc: true, off: src.off}}
		out.n = len(refined)
		return &out, nil
	}
	return b.at(keptPositions(src.ids, refined), true, false), nil
}

// keptPositions returns the positions in ids (nil: the identity) of the ids
// kept, a subsequence of it; both never decrease. An id that occurs twice is
// kept at both positions or neither, as a selection tests it by value.
func keptPositions(ids, kept []int32) []int32 {
	if ids == nil {
		return kept
	}
	pos := make([]int32, len(kept))
	i := 0
	for k, id := range kept {
		for ids[i] != id {
			i++
		}
		pos[k] = int32(i)
		i++
	}
	return pos
}

// selectPositions returns the positions in [0, b.n) where f is TRUE. A
// comparison of two columns runs the column-pair kernel, each side read
// through its source's ids (vec.SelColumnPairs); anything else is evaluated
// by the memo and its TRUE rows selected. note, when not empty, ends the
// trace line (a join residual's).
func (e *Engine) selectPositions(f plan.Expr, b *batch, note ...string) ([]int32, error) {
	if p, ok := f.(*plan.BinOp); ok && p.Kind == plan.BinCmp {
		l, okL := p.L.(*plan.ColRef)
		r, okR := p.R.(*plan.ColRef)
		if okL && okR {
			ls, rs := b.srcs[b.src[l.Slot]], b.srcs[b.src[r.Slot]]
			if !ls.outer && !rs.outer {
				if pos, ok := vec.SelColumnPairs(p.Cmp, b.cols[l.Slot], ls.ids, b.cols[r.Slot], rs.ids, b.n); ok {
					e.Trace.Emit("algebra.thetaselect", append([]string{p.Cmp.String(), "columns"}, note...)...)
					return pos, nil
				}
			}
		}
	}
	bv, err := newMemo(e).evalVec(f, b)
	if err != nil {
		return nil, err
	}
	e.Trace.Emit("algebra.thetaselect", note...)
	return vec.SelTrue(bv, nil, true), nil
}

// execProject computes the projection's expressions. A bare column reference
// passes through as the input column with its source's ids and encoding;
// the computed columns form one new source, dense over the input's rows.
func (e *Engine) execProject(x *plan.Project) (*batch, error) {
	var in *batch
	if x.Input == nil {
		in = denseBatch(nil, 1) // SELECT without FROM: one row of constants
	} else {
		var err error
		if in, err = e.exec(x.Input); err != nil {
			return nil, err
		}
	}
	cs := make([]int, len(x.Exprs))
	for i, ex := range x.Exprs {
		cs[i] = -1
		if cr, ok := ex.(*plan.ColRef); ok && x.Input != nil {
			cs[i] = cr.Slot
		}
	}
	out := in.project(cs)
	memo, dense := newMemo(e), -1
	for i, ex := range x.Exprs {
		if cs[i] >= 0 {
			continue
		}
		v, err := memo.evalVecN(ex, in, in.n)
		if err != nil {
			return nil, err
		}
		if dense < 0 {
			dense = len(out.srcs)
			out.srcs = append(out.srcs, source{asc: true})
		}
		out.cols[i], out.src[i] = v, dense
	}
	if in.gathered() {
		// The projection ran over the input's rows; no column was copied
		// to line them up.
		e.Trace.Emit("bat.project", fmt.Sprintf("%d exprs", len(x.Exprs)), fmt.Sprintf("%d cands", in.n))
	} else if x.Input != nil {
		e.Trace.Emit("bat.project", fmt.Sprintf("%d exprs", len(x.Exprs)))
	}
	return out, nil
}

func (e *Engine) execLimit(x *plan.Limit) (*batch, error) {
	in, err := e.exec(x.Input)
	if err != nil {
		return nil, err
	}
	lo := int(x.Offset)
	if lo > in.n {
		lo = in.n
	}
	hi := lo + int(x.N)
	if hi > in.n || hi < 0 {
		hi = in.n
	}
	e.Trace.Emit("bat.slice", fmt.Sprintf("%d..%d", lo, hi))
	return in.slice(lo, hi), nil
}

// execDistinct is a key-only aggregate: it groups on every input column and
// returns one row per group, in first-appearance order.
func (e *Engine) execDistinct(x *plan.Distinct) (*batch, error) {
	sch := x.Input.Schema()
	keys := make([]plan.Expr, len(sch))
	for i, c := range sch {
		keys[i] = &plan.ColRef{Slot: i, Typ: c.Typ, Name: c.Name}
	}
	return e.execAggregate(&plan.Aggregate{Input: x.Input, GroupBy: keys})
}

// evalSubplan computes an uncorrelated scalar subquery once, caching by
// node. The cache lock is held across the evaluation so concurrent mitosis
// workers needing the same subplan wait for one evaluation instead of
// racing to repeat it.
func (e *Engine) evalSubplan(sp *plan.SubplanExpr) (mtypes.Value, error) {
	p := sp.Plan
	e.subCache.mu.Lock()
	defer e.subCache.mu.Unlock()
	if v, ok := e.subCache.m[p]; ok {
		return v, nil
	}
	// The sub-engine gets its own fresh cache in Execute, so a parallel
	// subplan never re-enters this lock. It inherits the interrupt context
	// and whatever remains of the deadline budget.
	sub := &Engine{Cat: e.Cat, Parallel: e.Parallel, MaxThreads: e.MaxThreads, NoIndexes: e.NoIndexes, Ctx: e.Ctx}
	if !e.deadline.IsZero() {
		sub.Timeout = time.Until(e.deadline)
	}
	if e.subCache.progs != nil {
		sub.Trace = &mal.Program{}
		e.subCache.progs[sp.ID] = sub.Trace
	}
	res, err := sub.Execute(p)
	if err != nil {
		return mtypes.Value{}, err
	}
	sch := p.Schema()
	var v mtypes.Value
	switch res.NumRows() {
	case 0:
		v = mtypes.NullValue(sch[0].Typ)
	case 1:
		v = res.Cols[0].Value(0)
	default:
		return mtypes.Value{}, fmt.Errorf("exec: scalar subquery returned %d rows", res.NumRows())
	}
	e.subCache.m[p] = v
	return v, nil
}
