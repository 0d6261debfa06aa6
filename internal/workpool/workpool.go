// Package workpool is the process-global worker budget behind mitosis
// parallelism. PRs 1–5 made every heavy operator fan out to GOMAXPROCS
// workers on the assumption that its query owned the machine; on the
// concurrent serving path (N client connections, each running queries) that
// assumption oversubscribes cores N-fold. The pool replaces it with
// admission control: a fixed budget of worker tokens shared by every query
// in the process, handed out non-blockingly under a fairness cap.
//
// Model:
//
//   - Every query owns its calling goroutine outright — point queries and
//     serial plans never touch the pool and can never be starved by it.
//   - A mitosis fan-out *borrows* extra workers: it asks its query's Lease
//     for up to chunks-1 tokens and runs with 1 + granted workers, returning
//     the tokens at the barrier. Grants are non-blocking, so there is no
//     deadlock and no queueing: a busy pool just means less intra-query
//     parallelism, exactly the paper's "N queries share the cores" story.
//   - Fairness: a query's workers (its own goroutine plus borrowed tokens)
//     are capped at ceil(size / active queries). Alone, a big scan still
//     gets the whole machine; with K queries active each gets ~1/K of it,
//     so one long scan cannot starve concurrent point queries of cores.
//
// Chunk *plans* are unchanged — mitosis still splits by data size, and
// workers pull chunk indexes from a shared counter — so results remain
// bit-identical to the serial path regardless of how many workers the pool
// grants (the chunk-order determinism contract).
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a shared budget of worker tokens.
type Pool struct {
	mu      sync.Mutex
	size    int
	free    int
	queries int

	// counters (behind mu; read via Stats)
	grants  int64 // tokens handed out, cumulative
	denied  int64 // tokens requested but not granted, cumulative
	fanouts int64 // Acquire calls
}

// Global is the process-wide pool, sized to GOMAXPROCS at init. Engines use
// it unless a test wires a private pool.
var Global = New(0)

// New creates a pool with the given token budget (0 = GOMAXPROCS).
func New(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	return &Pool{size: size, free: size}
}

// Stats is a point-in-time snapshot of the pool.
type Stats struct {
	Size    int   // total token budget
	Free    int   // tokens currently available
	Queries int   // registered (active) queries
	Grants  int64 // tokens granted, cumulative
	Denied  int64 // tokens requested but denied, cumulative
	Fanouts int64 // fan-outs that asked for tokens, cumulative
}

// Stats returns a snapshot of the pool's state and counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Size: p.size, Free: p.free, Queries: p.queries,
		Grants: p.grants, Denied: p.denied, Fanouts: p.fanouts}
}

// Lease is one query's admission handle. It tracks the tokens the query
// currently holds so the fairness cap can be enforced per query, not per
// fan-out. A Lease is used by one query coordinator at a time (operators
// execute sequentially within a query), so it needs no locking of its own
// beyond the pool's.
type Lease struct {
	p    *Pool
	held int
	done bool
}

// Register admits a new query and returns its lease. Close it when the
// query finishes.
func (p *Pool) Register() *Lease {
	p.mu.Lock()
	p.queries++
	p.mu.Unlock()
	return &Lease{p: p}
}

// Acquire borrows up to want extra worker tokens for a fan-out, returning
// how many were granted (possibly 0 — the caller's own goroutine always
// works, so a zero grant just means the fan-out runs serially). The grant is
// capped by the free budget and by the query's fair share: counting the
// caller's own goroutine, a query runs at most ceil(size/queries) workers.
func (l *Lease) Acquire(want int) int {
	if l == nil || want <= 0 {
		return 0
	}
	p := l.p
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fanouts++
	share := (p.size + p.queries - 1) / p.queries
	if share < 1 {
		share = 1
	}
	grant := share - (l.held + 1) // +1: the caller's own goroutine
	if grant > want {
		grant = want
	}
	if grant > p.free {
		grant = p.free
	}
	if grant < 0 {
		grant = 0
	}
	p.free -= grant
	l.held += grant
	p.grants += int64(grant)
	p.denied += int64(want - grant)
	return grant
}

// Release returns n borrowed tokens to the pool.
func (l *Lease) Release(n int) {
	if l == nil || n <= 0 {
		return
	}
	p := l.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > l.held {
		n = l.held
	}
	l.held -= n
	p.free += n
}

// Run executes task(0..n-1) and returns how many workers it borrowed. The
// calling goroutine always works, plus up to n-1 workers granted by Acquire
// (a nil Lease, outside admission control, borrows all n-1). Workers pull
// task indexes from a shared counter, so each task's output lands in its
// own per-index slot whoever runs it, and Run returns only after every task
// finished (barrier), with the tokens released.
func (l *Lease) Run(n int, task func(i int)) (granted int) {
	if n <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return 0
	}
	granted = n - 1
	if l != nil {
		granted = l.Acquire(n - 1)
		defer l.Release(granted)
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			task(i)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < granted; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return granted
}

// Close returns any outstanding tokens and retires the query from the
// fairness accounting. Idempotent.
func (l *Lease) Close() {
	if l == nil {
		return
	}
	p := l.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if l.done {
		return
	}
	l.done = true
	p.free += l.held
	l.held = 0
	p.queries--
}
