package exec

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"monetlite/internal/mal"
	"monetlite/internal/workpool"
)

// Cancellation tests without a clock: pollCtx cancels a query at its N-th
// Done() poll, for every N an uncancelled run makes, and counts the polls
// that follow. Each of those is a chunk task's start check (runTasks), a
// running task's next check, or a fan-out barrier's — at most one per chunk
// of the widest fan-out. A task doing its chunk's work after the cancel
// would poll again (per scan conjunct, per window partition) and break that
// bound; runTasks itself is held to running no task after the cancel by
// TestRunTasksSkipsAfterCancel.

// cancelCases covers every operator whose loop runs through runTasks. mark
// is a trace line the operator emits when it runs as one chunk, fan the
// mitosis note of its fan-out over more. The aggregate splits the rows its
// input keeps, so its filter keeps enough of them for the widest fan-out.
var cancelCases = []struct{ name, sql, mark, fan string }{
	{"scan", "SELECT i FROM nums WHERE i % 7 = 1 AND i % 11 = 2", "algebra.thetaselect", "(scan)"},
	{"aggregate", "SELECT grp, sum(i), min(i) FROM nums WHERE i % 97 <> 1 AND i % 89 <> 2 GROUP BY grp", "aggr.SUM", "(grouped)"},
	{"join probe", "SELECT count(*) FROM nums a, nums b WHERE a.i = b.i", "algebra.hashjoin", "(join)"},
	{"sort", "SELECT i FROM nums ORDER BY grp, i DESC", "algebra.sort", "(sort)"},
	{"topn", "SELECT i FROM nums ORDER BY grp, i DESC LIMIT 5", "algebra.topn", "(sort)"},
	{"window", "SELECT i, rank() OVER (PARTITION BY grp ORDER BY i DESC) FROM nums", "algebra.window(", "(window)"},
}

// cancelSweep runs every case on the engine newEngine returns, once
// uncancelled and then cancelled at each poll that run made. chunks is the
// widest fan-out the engine splits a case into.
func cancelSweep(t *testing.T, cat memCatalog, chunks int, newEngine func(ctx context.Context) *Engine) {
	for _, c := range cancelCases {
		p := planFor(t, cat, c.sql)
		ctx := newPollCtx(0)
		e := newEngine(ctx)
		e.Trace = &mal.Program{}
		if _, err := e.Execute(p); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := c.mark
		if chunks > 1 {
			want = "chunks " + c.fan
		}
		if out := e.Trace.String(); !strings.Contains(out, want) ||
			strings.Contains(out, "optimizer.mitosis") != (chunks > 1) {
			t.Fatalf("%s: control run does not show the %d-chunk operator:\n%s", c.name, chunks, out)
		}
		for at := 1; at <= ctx.count(); at++ {
			cctx := newPollCtx(at)
			_, err := newEngine(cctx).Execute(p)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, cancel at poll %d: want context.Canceled, got %v", c.name, at, err)
			}
			if after := cctx.count() - at; after > chunks {
				t.Fatalf("%s, cancel at poll %d: %d polls after the cancel, more than one per chunk (%d)",
					c.name, at, after, chunks)
			}
		}
	}
}

// TestCancelSerialQuery cancels the serial engine, whose every fan-out is
// one chunk run inline.
func TestCancelSerialQuery(t *testing.T) {
	cat := buildTable(t, 2048)
	cancelSweep(t, cat, 1, func(ctx context.Context) *Engine {
		return &Engine{Cat: cat, Ctx: ctx}
	})
}

// TestCancelParallelQuery cancels forced 8-chunk runs, once with every task
// inline on the coordinator (a one-token pool grants no workers) and once
// on four workers.
func TestCancelParallelQuery(t *testing.T) {
	cat := buildTable(t, 2048)
	for _, size := range []int{1, 4} {
		cancelSweep(t, cat, 8, func(ctx context.Context) *Engine {
			return &Engine{Cat: cat, Ctx: ctx, Parallel: true, MaxThreads: size,
				Pool: workpool.New(size), testChunkRows: 256}
		})
	}
}

// runTasks runs no task after the poll that saw the cancel: with every task
// inline, task i's start check is poll i+1, so a cancel at poll n runs tasks
// 0..n-2 and skips the rest, and the barrier reports it.
func TestRunTasksSkipsAfterCancel(t *testing.T) {
	const tasks = 6
	for at := 1; at <= tasks+2; at++ {
		ctx := newPollCtx(at)
		lease := workpool.New(1).Register()
		defer lease.Close()
		e := &Engine{Ctx: ctx, lease: lease}
		ran := 0
		err := e.runTasks(tasks, func(int) {
			if ctx.cancelled() {
				t.Fatalf("cancel at poll %d: a task ran after it", at)
			}
			ran++
		})
		if want := min(at-1, tasks); ran != want {
			t.Fatalf("cancel at poll %d: %d tasks ran, want %d", at, ran, want)
		}
		if canceled := errors.Is(err, context.Canceled); canceled != (at <= tasks+1) {
			t.Fatalf("cancel at poll %d: err %v", at, err)
		}
	}
}

// A context already cancelled (or past its deadline) aborts before any work.
func TestCancelBeforeStart(t *testing.T) {
	cat := buildTable(t, 100)
	p := planFor(t, cat, "SELECT sum(i) FROM nums")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Engine{Cat: cat, Ctx: ctx}).Execute(p); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := (&Engine{Cat: cat, Ctx: dctx}).Execute(p); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// Cancellation during a parallel sort: the run-sorting workers bail and the
// coordinator surfaces the context error instead of a garbage permutation.
func TestCancelParallelSort(t *testing.T) {
	cat := buildTable(t, 4096)
	p := planFor(t, cat, "SELECT i FROM nums ORDER BY grp, i DESC")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := &Engine{Cat: cat, Parallel: true, MaxThreads: 4, Ctx: ctx, testChunkRows: 256}
	if _, err := e.Execute(p); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// Cancellation during a parallel join probe: the probe's fan-out must
// propagate the context error, never an empty pair list masquerading as a
// real result.
func TestCancelParallelJoin(t *testing.T) {
	cat := buildTable(t, 4096)
	p := planFor(t, cat, "SELECT count(*) FROM nums a, nums b WHERE a.i = b.i")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := &Engine{Cat: cat, Parallel: true, MaxThreads: 4, Ctx: ctx, testChunkRows: 256}
	if _, err := e.Execute(p); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// pollCtx reports cancellation from its cancelAt-th Done() poll on (never
// when cancelAt is 0) and counts every poll, so a test can tell how much
// work ran after the cancel without a clock. Safe for concurrent use.
type pollCtx struct {
	context.Context
	mu              sync.Mutex
	cancelAt, polls int
	done            chan struct{}
}

func newPollCtx(cancelAt int) *pollCtx {
	return &pollCtx{Context: context.Background(), cancelAt: cancelAt, done: make(chan struct{})}
}

func (c *pollCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	if c.polls == c.cancelAt {
		close(c.done)
	}
	return c.done
}

func (c *pollCtx) Err() error {
	if c.cancelled() {
		return context.Canceled
	}
	return nil
}

// cancelled reports whether the cancel has landed, without polling.
func (c *pollCtx) cancelled() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// count returns the number of polls so far.
func (c *pollCtx) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.polls
}

// A cross product polls for cancellation once per block of outer rows and
// stops at the first poll that sees it: no pair is enumerated after the
// cancel, and at most one block's worth between the cancel and that poll.
func TestCancelCrossProduct(t *testing.T) {
	const nl, nr, cancelAt = 1000, 1000, 5
	blockPairs := (mal.MinChunkRows / nr) * nr
	ctx := newPollCtx(cancelAt)
	e := &Engine{Ctx: ctx}
	if _, _, err := e.crossPairs(nl, nr); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if after := (ctx.polls - cancelAt) * blockPairs; after != 0 {
		t.Fatalf("%d pairs enumerated after the cancel was seen (%d polls)", after, ctx.polls)
	}
	if before := (cancelAt - 1) * blockPairs; before >= nl*nr/2 {
		t.Fatalf("cancel landed too late to prove anything: %d of %d pairs", before, nl*nr)
	}

	// End to end: the query below reaches crossPairs (control run) and
	// surfaces the context error.
	cat := buildTable(t, 2048)
	p := planFor(t, cat, "SELECT count(*) FROM nums a, nums b")
	trace := &mal.Program{}
	if _, err := (&Engine{Cat: cat, Trace: trace}).Execute(p); err != nil {
		t.Fatal(err)
	}
	if trace.Count("algebra.crossproduct") != 1 {
		t.Fatalf("control run is not a cross product:\n%s", trace.String())
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Engine{Cat: cat, Ctx: cctx}).Execute(p); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// The Ctx check composes with the legacy Timeout deadline: whichever fires
// first wins, and strings.Contains guards the error identity apart.
func TestCtxAndTimeoutCompose(t *testing.T) {
	cat := buildTable(t, 3*mal.MinChunkRows)
	p := planFor(t, cat, "SELECT sum(i) FROM nums WHERE i % 7 = 1 AND i % 11 = 2")
	e := &Engine{Cat: cat, Ctx: context.Background(), Timeout: time.Nanosecond}
	_, err := e.Execute(p)
	if err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("want engine timeout, got %v", err)
	}
}
