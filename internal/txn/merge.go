package txn

import (
	"fmt"
	"time"

	"monetlite/internal/delta"
)

// Background delta merger: folds tables' append-deltas into their columnar
// bases (storage.Table.MergeDelta) when the fold policy says a delta is
// worth it. The merger never takes the commit lock — commits keep flowing
// while a fold runs — but it serializes with checkpoints via mergeMu, and it
// honors the reader-epoch registry: a table whose current version is newer
// than the oldest pinned epoch is deferred until those readers finish
// (contention policy; the fold itself is always snapshot-safe).

// mergerTick bounds how long a deferred fold waits for a retry when no
// commit wakes the merger explicitly.
const mergerTick = 500 * time.Millisecond

// SetMergePolicy replaces the fold policy. Call before concurrent use
// (db.Open wires it from Config).
func (m *Manager) SetMergePolicy(p delta.Policy) { m.policy = p }

// wakeMerger nudges the background merger without blocking; wakeups
// coalesce in the buffered channel.
func (m *Manager) wakeMerger() {
	select {
	case m.mergeWake <- struct{}{}:
	default:
	}
}

// StartMerger launches the background merge goroutine. Call at most once;
// pair with StopMerger before closing the store.
func (m *Manager) StartMerger() {
	if m.mergeStop != nil {
		return
	}
	m.mergeStop = make(chan struct{})
	m.mergeDone = make(chan struct{})
	go func() {
		defer close(m.mergeDone)
		timer := time.NewTicker(mergerTick)
		defer timer.Stop()
		for {
			select {
			case <-m.mergeStop:
				return
			case <-m.mergeWake:
			case <-timer.C:
			}
			m.MergeAll(false)
		}
	}()
}

// StopMerger stops the background merge goroutine and waits for any
// in-flight fold to finish. Safe to call when the merger never started.
func (m *Manager) StopMerger() {
	if m.mergeStop == nil {
		return
	}
	close(m.mergeStop)
	<-m.mergeDone
	m.mergeStop, m.mergeDone = nil, nil
}

// MergeAll runs one fold pass over every table, returning how many tables
// were folded. force ignores both the fold policy and reader pins — used by
// explicit Database.MergeDeltas calls and before checkpoints (a leaked pin
// from an abandoned explicit transaction must not wedge durability).
func (m *Manager) MergeAll(force bool) int {
	m.mergeMu.Lock()
	defer m.mergeMu.Unlock()
	return m.mergeAllLocked(force)
}

// mergeAllLocked is MergeAll without the mergeMu acquisition (Checkpoint
// already holds it).
func (m *Manager) mergeAllLocked(force bool) int {
	minPinned := m.epochs.MinPinned()
	if force {
		minPinned = delta.NoPins
	}
	folded := 0
	for _, name := range m.store.TableNames() {
		tbl, ok := m.store.Get(name)
		if !ok {
			continue
		}
		tv := tbl.Version()
		d := tv.NRows - tv.BaseRows
		if d <= 0 {
			continue
		}
		if !force && !m.policy.ShouldMerge(tv.BaseRows, d) {
			continue
		}
		rep, ok := tbl.MergeDelta(minPinned)
		if !ok {
			continue
		}
		folded++
		m.logMu.Lock()
		m.mergeLog = append(m.mergeLog, fmt.Sprintf(
			"storage.deltamerge table=%s rows %d->%d imprints.Extend=%d hash.Extend=%d encode=%d dur=%s",
			rep.Table, rep.FromRows, rep.ToRows, rep.ImprintsExtended, rep.HashExtended, rep.Encoded, rep.Duration))
		if len(m.mergeLog) > 256 {
			m.mergeLog = m.mergeLog[len(m.mergeLog)-256:]
		}
		m.logMu.Unlock()
	}
	return folded
}

// MergeLog returns the recent storage.deltamerge trace lines (newest last).
func (m *Manager) MergeLog() []string {
	m.logMu.Lock()
	defer m.logMu.Unlock()
	return append([]string(nil), m.mergeLog...)
}

// DeltaStats snapshots every table's delta gauges.
func (m *Manager) DeltaStats() []delta.TableStats { return m.store.DeltaStats() }
