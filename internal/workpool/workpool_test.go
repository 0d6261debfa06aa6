package workpool

import (
	"sync"
	"testing"
)

func TestSoloQueryGetsWholeBudget(t *testing.T) {
	p := New(8)
	l := p.Register()
	defer l.Close()
	// Counting the caller's goroutine, 7 extras fill the 8-worker share.
	if got := l.Acquire(16); got != 7 {
		t.Fatalf("solo query: granted %d extras, want 7", got)
	}
	if got := l.Acquire(1); got != 0 {
		t.Fatalf("share exhausted: granted %d, want 0", got)
	}
	l.Release(7)
	if s := p.Stats(); s.Free != 8 {
		t.Fatalf("after release: free %d, want 8", s.Free)
	}
}

func TestFairShareSplitsBetweenQueries(t *testing.T) {
	p := New(8)
	a := p.Register()
	b := p.Register()
	defer a.Close()
	defer b.Close()
	// Two active queries: each may run ceil(8/2) = 4 workers (3 extras).
	if got := a.Acquire(16); got != 3 {
		t.Fatalf("query A: granted %d extras, want 3", got)
	}
	if got := b.Acquire(16); got != 3 {
		t.Fatalf("query B: granted %d extras, want 3", got)
	}
	// Neither can grab more while both are active.
	if got := a.Acquire(4); got != 0 {
		t.Fatalf("query A over share: granted %d, want 0", got)
	}
	// B finishing raises A's share to the whole budget.
	b.Release(3)
	b.Close()
	if got := a.Acquire(16); got != 4 {
		t.Fatalf("query A after B done: granted %d more, want 4", got)
	}
}

func TestGrantCappedByFreeTokens(t *testing.T) {
	p := New(4)
	a := p.Register()
	defer a.Close()
	if got := a.Acquire(3); got != 3 {
		t.Fatalf("prime: %d", got)
	}
	b := p.Register()
	defer b.Close()
	// B's fair share is 2, but A still holds 3 of 4 tokens: only 1 is free.
	if got := b.Acquire(8); got != 1 {
		t.Fatalf("contended grant: %d, want 1", got)
	}
}

func TestCloseReturnsOutstandingTokens(t *testing.T) {
	p := New(4)
	l := p.Register()
	l.Acquire(3)
	l.Close()
	l.Close() // idempotent
	s := p.Stats()
	if s.Free != 4 || s.Queries != 0 {
		t.Fatalf("after close: free %d queries %d", s.Free, s.Queries)
	}
}

func TestNilLeaseIsSafe(t *testing.T) {
	var l *Lease
	if l.Acquire(4) != 0 {
		t.Fatal("nil lease must grant nothing")
	}
	l.Release(1)
	l.Close()
}

func TestConcurrentLeasesNeverOversubscribe(t *testing.T) {
	const size = 6
	p := New(size)
	var wg sync.WaitGroup
	for q := 0; q < 16; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := p.Register()
			defer l.Close()
			for i := 0; i < 200; i++ {
				got := l.Acquire(size)
				l.Release(got)
			}
		}()
	}
	wg.Wait()
	s := p.Stats()
	if s.Free != size || s.Queries != 0 {
		t.Fatalf("pool leaked: free %d queries %d", s.Free, s.Queries)
	}
	if s.Grants < 0 || s.Fanouts != 16*200 {
		t.Fatalf("counter mismatch: %+v", s)
	}
}

// TestRunRunsEveryTaskOnce checks Run's contract: each index runs exactly
// once, the grant respects admission control, and the borrowed tokens are
// back in the pool when Run returns.
func TestRunRunsEveryTaskOnce(t *testing.T) {
	p := New(4)
	l := p.Register()
	defer l.Close()
	for _, n := range []int{0, 1, 2, 3, 50} {
		counts := make([]int, n)
		var mu sync.Mutex
		granted := l.Run(n, func(i int) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: task %d ran %d times", n, i, c)
			}
		}
		if want := min(max(n-1, 0), 3); granted != want {
			t.Fatalf("n=%d: granted %d, want %d", n, granted, want)
		}
		if s := p.Stats(); s.Free != 4 {
			t.Fatalf("n=%d: %d tokens free after Run, want 4", n, s.Free)
		}
	}
	// A nil lease is outside admission control and borrows n-1 workers.
	var nl *Lease
	if got := nl.Run(5, func(int) {}); got != 4 {
		t.Fatalf("nil lease: granted %d, want 4", got)
	}
}
