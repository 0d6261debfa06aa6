// Package exec is monetlite's columnar execution engine: it interprets
// logical plans column-at-a-time, in the MonetDB style the paper describes —
// every operator processes whole columns, intermediates are materialized
// vectors, selections flow as candidate lists, and operators are
// parallelized by mitosis (§3.1), every fan-out split by the one rule
// mal.Split through Engine.chunkPlan: chunked scan/map pipelines, partial
// aggregation over the aggregate's input rows, partitioned hash-join
// probes, per-run parallel sorts with a k-way merge (plus the bounded-heap
// TopN for ORDER BY … LIMIT), and per-partition window-function fan-out.
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

// batch is an operator intermediate: aligned column vectors plus an optional
// candidate list. With sel == nil the batch is dense — logical row i is
// cols[*][i]. With sel != nil the batch is a *selection view*: the columns
// are full-width (typically base-table vectors) and logical row i is
// cols[*][sel[i]]; n == len(sel). Scans and filters produce selection views
// so a conjunct chain refines one []int32 instead of copying columns; the
// memo evaluator computes expressions densely over the survivors; and the
// full gather happens once, at a pipeline breaker (result assembly, group,
// join build/probe, sort) via materialize.
type batch struct {
	cols []*vec.Vector
	sel  []int32 // nil = all rows; else strictly increasing row ids into cols
	n    int
	// enc, when non-nil, carries the compressed form of base-table columns
	// (slot-indexed, parallel to cols; nil entries = raw only). enc[i] covers
	// at least cols[i].Len() rows starting at table row 0, so it is only set
	// on batches whose columns are the [0, nrows) base vectors — scan output
	// and the selection views derived from it. materialize and any dense
	// rewrite drop it: decode-at-breaker.
	enc []*vec.Encoded
}

func newBatch(cols []*vec.Vector) *batch {
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	return &batch{cols: cols, n: n}
}

// newSelBatch wraps full-width columns with a candidate list (nil = dense).
func newSelBatch(cols []*vec.Vector, sel []int32) *batch {
	b := newBatch(cols)
	if sel != nil {
		b.sel = sel
		b.n = len(sel)
	}
	return b
}

// materialize turns a selection view into a dense batch, gathering every
// column at the candidate list. This is the single full-width copy of a
// scan→filter pipeline, paid only at pipeline breakers; dense batches pass
// through untouched (and unlogged).
func (e *Engine) materialize(b *batch) *batch {
	if b.sel == nil {
		return b
	}
	out := make([]*vec.Vector, len(b.cols))
	for i, c := range b.cols {
		out[i] = vec.Gather(c, b.sel)
	}
	e.Trace.Emit("bat.materialize", fmt.Sprintf("%d cols x %d rows", len(b.cols), b.n))
	nb := newBatch(out)
	nb.n = b.n // preserve the row count for zero-column batches
	return nb
}

// Execute runs a plan to completion.
func (e *Engine) Execute(n plan.Node) (*Result, error) {
	var b *batch
	err := e.run(func() (err error) {
		if plan.HasJoin(n) {
			e.Trace.EmitVoid("optimizer.joinorder", plan.JoinTreeString(n))
		}
		if b, err = e.exec(n); err == nil {
			b = e.materialize(b) // result assembly is a pipeline breaker
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Cols: b.cols}
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
		if rows = b.sel; rows == nil {
			rows = vec.Range(b.n)
		}
		memo, sel := newMemo(e), newSelBatch(b.cols, rows)
		for _, ex := range exprs {
			v, err := memo.evalVec(ex, sel)
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
			fmt.Sprintf("%s: est %d actual %d", label, est, b.liveRows()))
	}
	return b, err
}

// liveRows counts the rows a batch represents (honoring its candidate list).
func (b *batch) liveRows() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// execFilter refines the input's candidate list conjunct by conjunct — the
// same representation the scan path uses — instead of materializing a
// filtered copy: a one-column conjunct on an encoded column runs over its
// value domain (selectDomain), any other maps to a selection kernel (or a
// dense predicate evaluation over the current survivors), and the output
// batch carries the refined list. Nothing is gathered here; that happens once,
// downstream, at a pipeline breaker.
func (e *Engine) execFilter(x *plan.Filter) (*batch, error) {
	in, err := e.exec(x.Input)
	if err != nil {
		return nil, err
	}
	width := in.n
	if len(in.cols) > 0 {
		width = in.cols[0].Len()
	}
	enc := func(slot int) *vec.Encoded {
		if slot < len(in.enc) {
			return in.enc[slot]
		}
		return nil
	}
	sel := in.sel
	for _, f := range plan.SplitConjuncts(x.Pred) {
		if err := e.checkInterrupt(); err != nil {
			return nil, err
		}
		refined, ok, err := e.selectDomain(enc, f, in.cols, sel, 0, width)
		if !ok && err == nil {
			refined, err = e.refineFilter(f, in.cols, width, sel)
		}
		if err != nil {
			return nil, err
		}
		sel = refined
		if sel != nil && len(sel) == 0 {
			break // all-false: no later conjunct can resurrect a row
		}
	}
	out := newSelBatch(in.cols, sel)
	out.enc = in.enc
	return out, nil
}

func (e *Engine) execProject(x *plan.Project) (*batch, error) {
	if x.Input == nil {
		// SELECT without FROM: one row of computed constants.
		memo := newMemo(e)
		one := &batch{cols: nil, n: 1}
		out := make([]*vec.Vector, len(x.Exprs))
		for i, ex := range x.Exprs {
			v, err := memo.evalVecN(ex, one, 1)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return &batch{cols: out, n: 1}, nil // one row, even with no columns
	}
	in, err := e.exec(x.Input)
	if err != nil {
		return nil, err
	}
	memo := newMemo(e)
	out := make([]*vec.Vector, len(x.Exprs))
	for i, ex := range x.Exprs {
		v, err := memo.evalVecN(ex, in, in.n)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	if in.sel != nil {
		// Projection expressions were computed densely over the survivors —
		// the candidate list never forced a full-width gather.
		e.Trace.Emit("bat.project", fmt.Sprintf("%d exprs", len(x.Exprs)), fmt.Sprintf("%d cands", in.n))
	} else {
		e.Trace.Emit("bat.project", fmt.Sprintf("%d exprs", len(x.Exprs)))
	}
	b := &batch{cols: out, n: in.n}
	b.enc = projectEncodings(x.Exprs, in)
	return b, nil
}

// projectEncodings carries a batch's compressed forms through a projection.
// Only bare column references keep their encoding, and only when the input
// has no candidate list: a selection view densifies the output vectors, which
// breaks the positional row ↔ code alignment the encoded kernels rely on.
func projectEncodings(exprs []plan.Expr, in *batch) []*vec.Encoded {
	if in.enc == nil || in.sel != nil {
		return nil
	}
	var encs []*vec.Encoded
	for i, ex := range exprs {
		cr, ok := ex.(*plan.ColRef)
		if !ok || cr.Slot < 0 || cr.Slot >= len(in.enc) || in.enc[cr.Slot] == nil {
			continue
		}
		if encs == nil {
			encs = make([]*vec.Encoded, len(exprs))
		}
		encs[i] = in.enc[cr.Slot]
	}
	return encs
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
	if in.sel != nil {
		// A limit over a selection view just slices the candidate list.
		out := newSelBatch(in.cols, in.sel[lo:hi])
		out.enc = in.enc
		return out, nil
	}
	out := make([]*vec.Vector, len(in.cols))
	for i, c := range in.cols {
		out[i] = c.Slice(lo, hi)
	}
	return newBatch(out), nil
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
