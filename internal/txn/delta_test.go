package txn

import (
	"strings"
	"testing"
	"time"

	"monetlite/internal/delta"
)

// Committing a K-row append into an N-row table must cost O(K), not O(N):
// the delta store publishes a new version header and appends K rows to the
// column tails; it never copies the N existing rows.
func TestCommitAppendIsODelta(t *testing.T) {
	m := memManager(t)
	m.CreateTable(meta())

	// Seed a large base.
	const baseRows = 200_000
	seed := make([]int32, baseRows)
	for i := range seed {
		seed[i] = int32(i)
	}
	tx := m.Begin()
	if err := tx.Append("t", batch(seed...)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Build indexes and an encoding over the base, then fold so the table is
	// fully indexed: the worst case for a copy-on-write committer.
	tbl, _ := m.store.Get("t")
	tv := tbl.Version()
	if h := tbl.HashFor(tv, 0); h == nil {
		t.Fatal("hash index not built")
	}
	if _, ok := tbl.MergeDelta(delta.NoPins); !ok {
		t.Fatal("seed merge did not run")
	}

	hBefore := tbl.HashFor(tbl.Version(), 0)

	// Measure the allocation cost of small commits. Each op appends 100 rows
	// (100 int32 + 100 strings ~ a few KB); copying any 200k-row column would
	// cost >800 KB on its own.
	small := make([]int32, 100)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tx := m.Begin()
			if err := tx.Append("t", batch(small...)); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Amortized append reallocation doubles the backing array occasionally;
	// with growth amortization the per-op average stays far below one column
	// copy. The bound is deliberately loose (64 KB) but far under O(N).
	if bpo := res.AllocedBytesPerOp(); bpo > 64<<10 {
		t.Fatalf("100-row commit into %d-row table allocated %d B/op: O(table) copy suspected", baseRows, bpo)
	}

	// The base hash index survives small appends untouched (same pointer):
	// the committer didn't rebuild or copy per-column index state.
	if hAfter := tbl.HashFor(tbl.Version(), 0); hAfter != hBefore {
		t.Fatal("small append invalidated the base hash index: commit is not O(delta)")
	}
}

// Under sustained append pressure past the merge policy threshold, the
// background merger must fire on its own, extend the existing hash index
// incrementally (never a full rebuild), and leave a storage.deltamerge trace
// line behind for tools to assert on.
func TestBackgroundMergeUnderPressure(t *testing.T) {
	m := memManager(t)
	m.CreateTable(meta())
	m.SetMergePolicy(delta.Policy{MinRows: 256, Ratio: 0.01})
	m.StartMerger()
	defer m.StopMerger()

	// Seed and fold a base with a hash index so the merge has something to
	// extend.
	seed := make([]int32, 10_000)
	for i := range seed {
		seed[i] = int32(i)
	}
	tx := m.Begin()
	tx.Append("t", batch(seed...))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := m.store.Get("t")
	if h := tbl.HashFor(tbl.Version(), 0); h == nil {
		t.Fatal("hash index not built")
	}
	m.MergeAll(true)

	// Push the delta past the threshold; commits wake the merger.
	rows := make([]int32, 128)
	for i := 0; i < 8; i++ {
		tx := m.Begin()
		tx.Append("t", batch(rows...))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if tbl.DeltaStats().Merges >= 2 { // seed fold + background fold
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := tbl.DeltaStats()
	if st.Merges < 2 {
		t.Fatalf("background merger never fired: merges=%d deferred=%d", st.Merges, st.Deferred)
	}

	var sawExtend bool
	for _, line := range m.MergeLog() {
		if !strings.Contains(line, "storage.deltamerge") {
			t.Fatalf("merge log line missing trace tag: %q", line)
		}
		if strings.Contains(line, "table=t") && !strings.Contains(line, "hash.Extend=0") {
			sawExtend = true
		}
	}
	if !sawExtend {
		t.Fatalf("no merge extended the hash index incrementally; log: %v", m.MergeLog())
	}

	// After the fold, the delta is (close to) empty and the hash index
	// covers the merged base.
	tv := tbl.Version()
	if tv.BaseRows < 10_000 {
		t.Fatalf("merge did not advance BaseRows: %d", tv.BaseRows)
	}
	if h := tbl.HashFor(tv, 0); h == nil || h.Rows() < tv.BaseRows {
		t.Fatal("merged hash index does not cover the base")
	}
}

// An epoch pin (a long-running snapshot reader) defers non-forced merges;
// unpinning lets the next merge proceed.
func TestMergeDefersForPinnedReaders(t *testing.T) {
	m := memManager(t)
	m.CreateTable(meta())
	m.SetMergePolicy(delta.Policy{MinRows: 1, Ratio: 0.0001})

	tx := m.Begin()
	tx.Append("t", batch(1, 2, 3))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	reader := m.Begin() // pins the pre-append epoch of the next commit
	tx2 := m.Begin()
	tx2.Append("t", batch(4, 5))
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	tbl, _ := m.store.Get("t")
	if n := m.MergeAll(false); n != 0 {
		t.Fatalf("merge ran over a pinned epoch: %d tables", n)
	}
	if tbl.DeltaStats().Deferred == 0 {
		t.Fatal("deferred merge not counted")
	}
	if err := reader.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := m.MergeAll(false); n != 1 {
		t.Fatalf("merge after unpin folded %d tables, want 1", n)
	}
	if tv := tbl.Version(); tv.BaseRows != tv.NRows {
		t.Fatalf("delta not folded: base=%d rows=%d", tv.BaseRows, tv.NRows)
	}
}

// Two writers appending to the same table in parallel must both commit and
// their rows must all land (the old validator aborted one of them; the old
// apply path copied whole columns).
func TestConcurrentAppendersBothCommit(t *testing.T) {
	m := memManager(t)
	m.CreateTable(meta())

	const writers, opsEach = 8, 25
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < opsEach; i++ {
				tx := m.Begin()
				if err := tx.Append("t", batch(int32(w*1000+i))); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent appender failed: %v", err)
		}
	}
	v, _ := m.Begin().View("t")
	if v.NumRows() != writers*opsEach {
		t.Fatalf("rows = %d, want %d: a committed append was lost", v.NumRows(), writers*opsEach)
	}
	col, err := v.Col(0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, x := range col.I32[:v.NumRows()] {
		if seen[x] {
			t.Fatalf("duplicate row %d", x)
		}
		seen[x] = true
	}
	if _, ok := seen[7*1000+24]; !ok {
		t.Fatal("missing expected row")
	}
}
