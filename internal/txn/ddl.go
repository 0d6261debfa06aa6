package txn

import (
	"fmt"

	"monetlite/internal/storage"
	"monetlite/internal/wal"
)

// DDL statements auto-commit: they run immediately under the commit lock
// with their own WAL commit marker. (MonetDB supports transactional DDL;
// monetlite trades that for simplicity.)

// CreateTable creates a table and logs it.
func (m *Manager) CreateTable(meta storage.TableMeta) error {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	if _, err := m.store.CreateTable(meta); err != nil {
		return err
	}
	version := m.store.BumpVersion()
	if m.log != nil {
		js, err := wal.MetaToJSON(&meta)
		if err != nil {
			return err
		}
		if err := m.log.Append(wal.Record{Kind: wal.KindCreateTable, MetaJS: js}); err != nil {
			return err
		}
		if err := m.log.Commit(version); err != nil {
			return err
		}
	}
	return nil
}

// DropTable drops a table and logs it.
func (m *Manager) DropTable(name string) error {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	if err := m.store.DropTable(name); err != nil {
		return err
	}
	version := m.store.BumpVersion()
	if m.log != nil {
		if err := m.log.Append(wal.Record{Kind: wal.KindDropTable, Table: name}); err != nil {
			return err
		}
		if err := m.log.Commit(version); err != nil {
			return err
		}
	}
	return nil
}

// CreateOrderIndex builds an order index (CREATE ORDER INDEX) and logs it.
func (m *Manager) CreateOrderIndex(table, col string) error {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	tbl, ok := m.store.Get(table)
	if !ok {
		return fmt.Errorf("txn: no such table %q", table)
	}
	ci := tbl.Meta.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("txn: no column %q in table %q", col, table)
	}
	if err := tbl.CreateOrderIndex(ci); err != nil {
		return err
	}
	version := m.store.BumpVersion()
	if m.log != nil {
		if err := m.log.Append(wal.Record{Kind: wal.KindOrderIndex, Table: table, Col: col}); err != nil {
			return err
		}
		if err := m.log.Commit(version); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint folds the log into a storage snapshot and truncates the WAL,
// bounding replay length. In-memory stores persist nothing, so their WAL (if
// any — the crash fuzzer wires one) must be kept whole.
//
// It holds mergeMu alongside commitMu: the background merger must not
// install index state while saveCatalogLocked walks it. Pending deltas are
// force-folded first (reader pins don't block — the fold is snapshot-safe,
// and a leaked pin must not wedge durability) so the checkpoint persists a
// fully merged image: on-disk state always has BaseRows == NRows, and delta
// durability between checkpoints comes from WAL replay.
func (m *Manager) Checkpoint() error {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	m.mergeMu.Lock()
	defer m.mergeMu.Unlock()
	if m.store.InMemory() {
		return nil
	}
	m.mergeAllLocked(true)
	if err := m.store.Checkpoint(); err != nil {
		return err
	}
	if m.log != nil {
		return m.log.Reset()
	}
	return nil
}

// replayer applies committed WAL groups to a store, defending against the
// two states a crash mid-checkpoint can leave behind:
//
//   - crash after catalog.json, before the WAL reset: groups the checkpoint
//     already folded in replay again → skipped by the version guard;
//   - crash after some column files, before catalog.json: columns are
//     physically longer than the cataloged row count and replayed appends
//     would land twice → each appended-to table is truncated back to its
//     cataloged length first.
type replayer struct {
	store    *storage.Store
	prepared map[string]bool // tables already RecoverTruncate'd this replay
}

func (r *replayer) applyGroup(recs []wal.Record, version uint64) error {
	if version <= r.store.Version() {
		return nil // already in the checkpoint this store was opened from
	}
	for _, rec := range recs {
		switch rec.Kind {
		case wal.KindCreateTable:
			var meta storage.TableMeta
			if err := wal.MetaFromJSON(rec.MetaJS, &meta); err != nil {
				return err
			}
			if _, err := r.store.CreateTable(meta); err != nil {
				return err
			}
			r.prepared[meta.Name] = true // fresh table, nothing to truncate
		case wal.KindDropTable:
			if err := r.store.DropTable(rec.Table); err != nil {
				return err
			}
			delete(r.prepared, rec.Table)
		case wal.KindAppend:
			tbl, ok := r.store.Get(rec.Table)
			if !ok {
				return fmt.Errorf("txn: replay append to missing table %q", rec.Table)
			}
			if !r.prepared[rec.Table] {
				if err := tbl.RecoverTruncate(); err != nil {
					return err
				}
				r.prepared[rec.Table] = true
			}
			// WAL vectors carry kind+scale only; restore full column types
			// from the catalog so decimals keep precision metadata.
			for i := range rec.Cols {
				rec.Cols[i].Typ = tbl.Meta.Cols[i].Typ
			}
			if _, err := tbl.Append(rec.Cols, version); err != nil {
				return err
			}
		case wal.KindDelete:
			tbl, ok := r.store.Get(rec.Table)
			if !ok {
				return fmt.Errorf("txn: replay delete on missing table %q", rec.Table)
			}
			if _, _, err := tbl.Delete(rec.RowIDs, version); err != nil {
				return err
			}
		case wal.KindOrderIndex:
			tbl, ok := r.store.Get(rec.Table)
			if !ok {
				return fmt.Errorf("txn: replay order index on missing table %q", rec.Table)
			}
			if ci := tbl.Meta.ColIndex(rec.Col); ci >= 0 {
				if err := tbl.CreateOrderIndex(ci); err != nil {
					return err
				}
			}
		}
	}
	for ; r.store.Version() < version; r.store.BumpVersion() {
	}
	return nil
}

// ReplayWAL applies committed WAL transactions from a log file to a freshly
// opened store (crash recovery without an open log handle).
func ReplayWAL(store *storage.Store, path string) error {
	r := &replayer{store: store, prepared: map[string]bool{}}
	return wal.Replay(path, r.applyGroup)
}

// ReplayLog applies committed WAL transactions through an already-open (and
// therefore already tail-repaired) log handle — the startup path.
func ReplayLog(store *storage.Store, log *wal.Log) error {
	r := &replayer{store: store, prepared: map[string]bool{}}
	return log.Replay(r.applyGroup)
}
