// Package txn implements monetlite's transaction layer: optimistic
// concurrency control over snapshot views (paper §3.1 "Concurrency Control").
//
// A transaction captures an immutable snapshot of every table at Begin and
// pins its store version as an epoch (the background delta merger defers
// folds past any pinned epoch). Writes are buffered locally and become
// visible to the transaction's own reads through overlay Views. At Commit,
// validation is region-level: appends land in the table's append-delta and
// never conflict with other appends, deletes conflict only when another
// transaction deleted the *same base row* since the snapshot (UPDATE is
// delete+append, so lost updates still abort). On conflict the transaction
// aborts with ErrWriteConflict. The in-memory apply is O(delta): column
// arrays grow by the batch, indexes and encodings are folded forward later
// by the background merger (see merge.go), never copied at commit.
//
// Durability uses group commit: validation, WAL buffering and the in-memory
// apply run under a global commit lock, but the fsync happens after the lock
// is released, through wal.SyncTo's leader/follower handoff — concurrent
// committers share one fsync instead of queueing for one each. Commit only
// returns nil once its commit marker is durable, so the acknowledged prefix
// of commits always survives a crash; markers are written in apply order, so
// whatever unacknowledged suffix survives is still a clean prefix.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"monetlite/internal/delta"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
	"monetlite/internal/wal"
)

// ErrWriteConflict is returned by Commit when another transaction committed
// a conflicting write — deleted the same base row, or dropped/recreated a
// written table — since this transaction's snapshot.
var ErrWriteConflict = errors.New("txn: write conflict, transaction aborted")

// ErrDone is returned when using a committed or rolled-back transaction.
var ErrDone = errors.New("txn: transaction already finished")

// Manager coordinates transactions over one store.
type Manager struct {
	store    *storage.Store
	log      *wal.Log // nil for in-memory databases
	commitMu sync.Mutex

	ckptBytes     atomic.Int64 // WAL size that triggers auto-checkpoint (0 = off)
	checkpointing atomic.Bool

	// Delta-store coordination (see merge.go): reader epoch registry, fold
	// policy, and the background merger's wiring. mergeMu serializes fold
	// passes with checkpoints — saveCatalogLocked walks table index state, so
	// the merger must not install indexes mid-checkpoint.
	epochs    *delta.Epochs
	policy    delta.Policy
	mergeMu   sync.Mutex
	mergeWake chan struct{}
	mergeStop chan struct{}
	mergeDone chan struct{}

	logMu    sync.Mutex
	mergeLog []string
}

// NewManager wires a manager to a store and optional WAL.
func NewManager(store *storage.Store, log *wal.Log) *Manager {
	return &Manager{
		store:     store,
		log:       log,
		epochs:    delta.NewEpochs(),
		policy:    delta.DefaultPolicy(),
		mergeWake: make(chan struct{}, 1),
	}
}

// SetAutoCheckpoint makes commits fold the WAL into a storage snapshot
// whenever the log grows past n bytes, keeping replay length bounded.
// n <= 0 disables auto-checkpointing.
func (m *Manager) SetAutoCheckpoint(n int64) { m.ckptBytes.Store(n) }

// maybeCheckpoint runs a checkpoint if the WAL crossed the configured size.
// Called after a successful commit, outside the commit lock; the CAS keeps
// concurrent committers from piling up behind one checkpoint.
func (m *Manager) maybeCheckpoint() {
	limit := m.ckptBytes.Load()
	if m.log == nil || limit <= 0 || m.log.Size() < limit {
		return
	}
	if !m.checkpointing.CompareAndSwap(false, true) {
		return
	}
	defer m.checkpointing.Store(false)
	// Best-effort: the triggering commit is already durable in the WAL. A
	// failed checkpoint just leaves the log long; a later commit retries.
	_ = m.Checkpoint()
}

// Store exposes the underlying store.
func (m *Manager) Store() *storage.Store { return m.store }

// Begin starts a transaction with a fresh snapshot, pinning the snapshot's
// store version as an epoch until Commit or Rollback.
func (m *Manager) Begin() *Txn {
	epoch := m.store.Version()
	m.epochs.PinAt(epoch)
	return &Txn{mgr: m, snap: m.store.Snapshot(), pend: map[string]*pendingTable{}, epoch: epoch, pinned: true}
}

// pendingTable buffers one table's uncommitted writes.
type pendingTable struct {
	extra     []*vec.Vector // pending appended rows, one vector per column
	extraRows int
	dels      map[int32]bool // pending deletes in view coordinates
}

// Txn is a transaction: a snapshot plus buffered writes.
type Txn struct {
	mgr    *Manager
	mu     sync.Mutex
	snap   map[string]*storage.TableVersion
	pend   map[string]*pendingTable
	done   bool
	epoch  uint64
	pinned bool
}

// unpinLocked releases the transaction's epoch pin exactly once. Caller
// holds t.mu.
func (t *Txn) unpinLocked() {
	if t.pinned {
		t.pinned = false
		t.mgr.epochs.Unpin(t.epoch)
	}
}

// View is a transaction-consistent read view of one table: the snapshot
// version overlaid with the transaction's own pending appends and deletes.
type View struct {
	Base      *storage.TableVersion
	Extra     []*vec.Vector // nil when no pending appends
	ExtraRows int
	PendDels  map[int32]bool
}

// Meta returns the table schema.
func (v *View) Meta() *storage.TableMeta { return v.Base.Meta() }

// NumRows returns the visible physical row count (deleted rows included).
func (v *View) NumRows() int { return v.Base.NRows + v.ExtraRows }

// Col returns visible column i: the snapshot data plus pending appends.
func (v *View) Col(i int) (*vec.Vector, error) {
	base, err := v.Base.Col(i)
	if err != nil {
		return nil, err
	}
	if v.ExtraRows == 0 {
		return base, nil
	}
	return vec.Concat(base, v.Extra[i]), nil
}

// LiveCands returns the candidate list of live rows (nil = all rows live).
func (v *View) LiveCands() []int32 {
	if v.Base.Dels.Count() == 0 && len(v.PendDels) == 0 {
		return nil
	}
	out := make([]int32, 0, v.NumRows())
	for i := int32(0); int(i) < v.NumRows(); i++ {
		if int(i) < v.Base.NRows && v.Base.Dels.Get(i) {
			continue
		}
		if v.PendDels[i] {
			continue
		}
		out = append(out, i)
	}
	return out
}

// Clean reports whether the view has no transaction-local overlay, which is
// the precondition for serving shared secondary indexes.
func (v *View) Clean() bool { return v.ExtraRows == 0 && len(v.PendDels) == 0 }

// Table returns the view's table (index access helpers live there).
func (v *View) Table() *storage.Table { return v.Base.Table() }

// View returns the transaction's read view of the named table.
func (t *Txn) View(name string) (*View, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base, ok := t.snap[name]
	if !ok {
		// Table created after this snapshot (or never): re-check the store so
		// freshly created tables are reachable (DDL is auto-committed).
		tbl, found := t.mgr.store.Get(name)
		if !found {
			return nil, false
		}
		base = tbl.Version()
		t.snap[name] = base
	}
	if base.DeltaRows() > 0 {
		// Overlap gauge: this snapshot read observes rows still in the
		// append-delta (the mixed-workload harness asserts on it).
		base.Table().DeltaState().ReadsWithDelta.Add(1)
	}
	v := &View{Base: base}
	if p, ok := t.pend[name]; ok {
		v.Extra, v.ExtraRows, v.PendDels = p.extra, p.extraRows, p.dels
	}
	return v, true
}

// Append buffers rows for the named table. Column vectors must match the
// table schema positionally.
func (t *Txn) Append(name string, cols []*vec.Vector) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrDone
	}
	base, ok := t.snap[name]
	if !ok {
		tbl, found := t.mgr.store.Get(name)
		if !found {
			return fmt.Errorf("txn: no such table %q", name)
		}
		base = tbl.Version()
		t.snap[name] = base
	}
	meta := base.Meta()
	if len(cols) != len(meta.Cols) {
		return fmt.Errorf("txn: append to %s: %d columns, want %d", name, len(cols), len(meta.Cols))
	}
	n := cols[0].Len()
	for i, c := range cols {
		if c.Len() != n {
			return fmt.Errorf("txn: append to %s: ragged batch", name)
		}
		if c.Typ.Kind != meta.Cols[i].Typ.Kind {
			return fmt.Errorf("txn: append to %s.%s: type %s, want %s", name, meta.Cols[i].Name, c.Typ, meta.Cols[i].Typ)
		}
	}
	p := t.pend[name]
	if p == nil {
		p = &pendingTable{dels: map[int32]bool{}}
		t.pend[name] = p
	}
	if p.extra == nil {
		p.extra = make([]*vec.Vector, len(meta.Cols))
		for i, cd := range meta.Cols {
			p.extra[i] = vec.NewCap(cd.Typ, 0)
		}
	}
	for i := range cols {
		p.extra[i].AppendVec(cols[i])
	}
	p.extraRows += n
	return nil
}

// Delete buffers deletions of the given view-coordinate row ids; returns the
// number of rows newly marked.
func (t *Txn) Delete(name string, rowids []int32) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return 0, ErrDone
	}
	base, ok := t.snap[name]
	if !ok {
		return 0, fmt.Errorf("txn: no such table %q", name)
	}
	p := t.pend[name]
	if p == nil {
		p = &pendingTable{dels: map[int32]bool{}}
		t.pend[name] = p
	}
	limit := base.NRows + p.extraRows
	n := 0
	for _, r := range rowids {
		if r < 0 || int(r) >= limit {
			return n, fmt.Errorf("txn: delete from %s: row %d out of range", name, r)
		}
		if int(r) < base.NRows && base.Dels.Get(r) {
			continue
		}
		if !p.dels[r] {
			p.dels[r] = true
			n++
		}
	}
	return n, nil
}

// Rollback discards all buffered writes.
func (t *Txn) Rollback() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrDone
	}
	t.done = true
	t.unpinLocked()
	t.pend = nil
	return nil
}

// Commit validates and applies the buffered writes atomically. It returns
// nil only once the commit is durable (its WAL commit marker is fsynced);
// with concurrent committers the fsync is shared via group commit.
func (t *Txn) Commit() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrDone
	}
	t.done = true
	t.unpinLocked()
	if len(t.pend) == 0 {
		return nil
	}
	m := t.mgr
	seq, err := t.commitApply()
	if err != nil {
		return err
	}
	if m.log != nil {
		// Durability barrier, outside the commit lock: other committers can
		// validate and apply while this fsync is in flight, and the leader
		// among the waiters syncs for all of them.
		if err := m.log.SyncTo(seq); err != nil {
			return err
		}
		m.maybeCheckpoint()
	}
	return nil
}

// commitApply validates, writes the WAL records and commit marker (buffered,
// not yet durable), and applies the mutations in memory — all under the
// global commit lock. It returns the WAL sequence to sync to.
func (t *Txn) commitApply() (uint64, error) {
	m := t.mgr
	m.commitMu.Lock()
	defer m.commitMu.Unlock()

	// Region-level validation. Appends land in the table's append-delta, so
	// concurrent appends to the same table never conflict. Deletes conflict
	// only when another transaction committed a delete of the same base row
	// since our snapshot: Txn.Delete skipped rows already deleted in the
	// snapshot, so any pending base delete that is set in the current bitmap
	// was set by a concurrent committer. (UPDATE is delete+append, so two
	// updates of one row still abort the second.) A written table must also
	// still be the same table object — drop or drop+recreate conflicts.
	for name, p := range t.pend {
		tbl, ok := m.store.Get(name)
		if !ok {
			return 0, fmt.Errorf("txn: table %q dropped concurrently: %w", name, ErrWriteConflict)
		}
		snap := t.snap[name]
		if snap == nil || snap.Table() != tbl {
			return 0, ErrWriteConflict
		}
		if len(p.dels) > 0 {
			cur := tbl.Version()
			for r := range p.dels {
				if int(r) < snap.NRows && cur.Dels.Get(r) {
					return 0, ErrWriteConflict
				}
			}
		}
	}

	version := m.store.BumpVersion()

	// Prepare the physical mutations: pending deletes of pending rows simply
	// filter the append batch; base-row deletes become bitmap sets.
	type mutation struct {
		tbl     *storage.Table
		appends []*vec.Vector
		baseDel []int32
	}
	muts := make([]mutation, 0, len(t.pend))
	for name, p := range t.pend {
		tbl, _ := m.store.Get(name)
		base := t.snap[name]
		mut := mutation{tbl: tbl}
		if p.extraRows > 0 {
			keep := make([]int32, 0, p.extraRows)
			for i := 0; i < p.extraRows; i++ {
				if !p.dels[int32(base.NRows+i)] {
					keep = append(keep, int32(i))
				}
			}
			mut.appends = make([]*vec.Vector, len(p.extra))
			for i, v := range p.extra {
				if len(keep) == p.extraRows {
					mut.appends[i] = v
				} else {
					mut.appends[i] = vec.Gather(v, keep)
				}
			}
		}
		for r := range p.dels {
			if int(r) < base.NRows {
				mut.baseDel = append(mut.baseDel, r)
			}
		}
		muts = append(muts, mut)
	}

	// WAL records and commit marker first (buffered — the fsync happens in
	// Commit after the lock is released), then the in-memory apply. Markers
	// hit the log in apply order, so a crash can only lose a suffix.
	var seq uint64
	if m.log != nil {
		for _, mut := range muts {
			if mut.appends != nil && mut.appends[0].Len() > 0 {
				if err := m.log.Append(wal.Record{Kind: wal.KindAppend, Table: mut.tbl.Meta.Name, Cols: mut.appends}); err != nil {
					return 0, err
				}
			}
			if len(mut.baseDel) > 0 {
				if err := m.log.Append(wal.Record{Kind: wal.KindDelete, Table: mut.tbl.Meta.Name, RowIDs: mut.baseDel}); err != nil {
					return 0, err
				}
			}
		}
		var err error
		if seq, err = m.log.AppendCommit(version); err != nil {
			return 0, err
		}
	}
	for _, mut := range muts {
		if mut.appends != nil && mut.appends[0].Len() > 0 {
			if _, err := mut.tbl.Append(mut.appends, version); err != nil {
				return 0, err
			}
		}
		if len(mut.baseDel) > 0 {
			if _, _, err := mut.tbl.Delete(mut.baseDel, version); err != nil {
				return 0, err
			}
		}
	}
	// Nudge the background merger when any written table crossed the fold
	// threshold (non-blocking; the merger coalesces wakeups).
	for _, mut := range muts {
		tv := mut.tbl.Version()
		if m.policy.ShouldMerge(tv.BaseRows, tv.NRows-tv.BaseRows) {
			m.wakeMerger()
			break
		}
	}
	return seq, nil
}
