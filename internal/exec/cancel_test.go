package exec

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"monetlite/internal/mal"
)

// Cancellation latency tests: a cancelled context must abort a running query
// within one chunk of work (cancelBudget), on both the serial and the
// mitosis-parallel paths, and surface as context.Canceled.
//
// Methodology: run the query with the cancel fired from a timer; if the query
// happens to finish before the timer (fast machine), retry with a shorter
// delay until the cancel lands mid-flight. The assertion clock starts at
// cancel time, so scheduling slop before the cancel doesn't count against the
// budget.

func TestCancelSerialQuery(t *testing.T) {
	cat := buildTable(t, 6*mal.MinChunkRows)
	q := "SELECT sum(i) FROM nums WHERE i % 7 = 1 AND i % 11 = 2 AND i % 13 = 3 AND i % 17 = 4"
	p := planFor(t, cat, q)
	for _, delay := range []time.Duration{5 * time.Millisecond, time.Millisecond, 200 * time.Microsecond, 0} {
		ctx, cancel := context.WithCancel(context.Background())
		e := &Engine{Cat: cat, Parallel: false, Ctx: ctx}
		done := make(chan error, 1)
		var cancelledAt time.Time
		go func() {
			_, err := e.Execute(p)
			done <- err
		}()
		time.Sleep(delay)
		cancelledAt = time.Now()
		cancel()
		err := <-done
		if err == nil {
			continue // query finished before the cancel landed; retry sooner
		}
		latency := time.Since(cancelledAt)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if latency > cancelBudget {
			t.Fatalf("serial cancel took %v (budget %v)", latency, cancelBudget)
		}
		return
	}
	t.Fatal("query always completed before cancellation, even at delay 0")
}

// TestCancelParallelQuery covers the mitosis worker loops. The trace
// assertion proves the very query being cancelled runs the parallel path:
// the uncancelled control run must emit optimizer.mitosis.
func TestCancelParallelQuery(t *testing.T) {
	cat := buildTable(t, 6*mal.MinChunkRows)
	q := "SELECT sum(i), min(i), max(i) FROM nums WHERE i % 7 = 1 AND i % 11 = 2 AND i % 13 = 3"
	p := planFor(t, cat, q)

	trace := &mal.Program{}
	if _, err := (&Engine{Cat: cat, Parallel: true, MaxThreads: 4, Trace: trace}).Execute(p); err != nil {
		t.Fatal(err)
	}
	if trace.Count("optimizer.mitosis") == 0 {
		t.Fatalf("control run did not take the mitosis path:\n%s", trace.String())
	}

	for _, delay := range []time.Duration{5 * time.Millisecond, time.Millisecond, 200 * time.Microsecond, 0} {
		ctx, cancel := context.WithCancel(context.Background())
		e := &Engine{Cat: cat, Parallel: true, MaxThreads: 4, Ctx: ctx}
		done := make(chan error, 1)
		var cancelledAt time.Time
		go func() {
			_, err := e.Execute(p)
			done <- err
		}()
		time.Sleep(delay)
		cancelledAt = time.Now()
		cancel()
		err := <-done
		if err == nil {
			continue
		}
		latency := time.Since(cancelledAt)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if latency > cancelBudget {
			t.Fatalf("parallel cancel took %v (budget %v)", latency, cancelBudget)
		}
		return
	}
	t.Fatal("query always completed before cancellation, even at delay 0")
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

// Cancellation during a parallel join probe: probeChunks must propagate the
// context error, never an empty pair list masquerading as a real result.
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

// pollCtx reports cancellation from its cancelAt-th Done() poll on and counts
// every poll, so a test can tell how much work ran after the cancel without a
// clock. For single-goroutine (serial engine) use.
type pollCtx struct {
	context.Context
	cancelAt, polls int
	done            chan struct{}
}

func (c *pollCtx) Done() <-chan struct{} {
	c.polls++
	if c.polls == c.cancelAt {
		close(c.done)
	}
	return c.done
}

func (c *pollCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// A cross product polls for cancellation once per block of outer rows and
// stops at the first poll that sees it: no pair is enumerated after the
// cancel, and at most one block's worth between the cancel and that poll.
func TestCancelCrossProduct(t *testing.T) {
	const nl, nr, cancelAt = 1000, 1000, 5
	blockPairs := (mal.MinChunkRows / nr) * nr
	ctx := &pollCtx{Context: context.Background(), cancelAt: cancelAt, done: make(chan struct{})}
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
