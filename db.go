// Package monetlite is an embedded analytical (OLAP) column-store database
// for Go — a from-scratch reproduction of MonetDBLite (Raasveldt &
// Mühleisen, CIKM 2018).
//
// The database runs inside the host process: there is no server to install,
// configure or manage. Open a database directory (or an in-memory instance),
// create connections, and issue SQL:
//
//	db, _ := monetlite.Open("/tmp/mydb")
//	defer db.Close()
//	conn := db.Connect()
//	conn.Exec(`CREATE TABLE t (a INTEGER, b VARCHAR)`)
//	conn.Exec(`INSERT INTO t VALUES (1, 'x'), (2, 'y')`)
//	res, _ := conn.Query(`SELECT a, b FROM t WHERE a > 1`)
//	ints, _ := res.Column(0).Ints32() // zero-copy for numeric columns
//
// Mirroring the paper's C API: Open/OpenInMemory are monetdb_startup,
// (*Database).Connect is monetdb_connect, (*Conn).Query is monetdb_query,
// (*Conn).Append is monetdb_append, and (*Result).Column is
// monetdb_result_fetch (with both the zero-copy low-level accessors and the
// converting high-level ones).
package monetlite

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"monetlite/internal/delta"
	"monetlite/internal/faultfs"
	"monetlite/internal/storage"
	"monetlite/internal/txn"
	"monetlite/internal/wal"
)

// Config tunes an embedded database instance.
type Config struct {
	// Parallel lets mitosis split an operator's input into more than one
	// chunk (parallel scan, aggregate, join probe, sort and window loops).
	// Off, every operator runs its one loop as a single chunk; the code
	// path is the same either way. Default true.
	Parallel bool
	// MaxThreads caps worker goroutines (0 = GOMAXPROCS).
	MaxThreads int
	// NoIndexes disables automatic secondary index use (ablation studies).
	NoIndexes bool
	// ForceCopy disables zero-copy result transfer: result columns are
	// always private copies (ablation; default false = zero-copy).
	ForceCopy bool
	// EagerConvert materializes all converted forms of result columns at
	// query time instead of lazily on first access (ablation).
	EagerConvert bool
	// QueryTimeout aborts queries that run longer (0 = none).
	QueryTimeout time.Duration
	// WALCheckpointBytes auto-checkpoints when the write-ahead log grows past
	// this size, bounding recovery replay time (0 = only checkpoint on Close
	// or explicit Checkpoint calls).
	WALCheckpointBytes int64
	// WALFS overrides the filesystem the write-ahead log is opened on
	// (nil = the real disk). Fault-injection tests wire a faultfs.SimFS here
	// to prove I/O errors surface instead of being swallowed.
	WALFS faultfs.FS
	// DeltaMergeRows is the delta size (pending appended rows per table) at
	// which the background merger folds the delta into the indexed base
	// (0 = default, see delta.DefaultPolicy).
	DeltaMergeRows int
	// DeltaMergeRatio additionally triggers a merge once the delta exceeds
	// this fraction of the base (0 = default).
	DeltaMergeRatio float64
	// NoDeltaMerge disables the background merger entirely; deltas then fold
	// only on checkpoint or an explicit MergeDeltas call (ablation studies).
	NoDeltaMerge bool
}

// DefaultConfig returns the standard configuration.
func DefaultConfig() Config { return Config{Parallel: true} }

// Database is an embedded database instance. Unlike the original
// MonetDBLite — which could only run one database per process because of
// internal global state (paper §3.4) — monetlite keeps all state inside this
// struct, so any number of databases can coexist in one process.
type Database struct {
	cfg   Config
	store *storage.Store
	log   *wal.Log
	mgr   *txn.Manager
	rec   wal.RecoveryReport
	pc    *planCache

	mu     sync.Mutex
	closed bool
}

// ErrClosed is returned when using a closed database.
var ErrClosed = errors.New("monetlite: database is closed")

// Open opens (creating if necessary) a persistent database in dir. Existing
// data is recovered from the last checkpoint plus the write-ahead log.
func Open(dir string, cfg ...Config) (*Database, error) {
	c := DefaultConfig()
	if len(cfg) > 0 {
		c = cfg[0]
	}
	st, err := storage.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("monetlite: %w", err)
	}
	// Open the log before replaying: Open repairs any torn tail (truncating
	// to the last committed frame) so replay and all later appends work on a
	// clean file, and reports what recovery found.
	walPath := filepath.Join(dir, "wal.log")
	walFS := c.WALFS
	if walFS == nil {
		walFS = faultfs.Disk
	}
	log, rec, err := wal.OpenFS(walFS, walPath)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("monetlite: %w", err)
	}
	if err := txn.ReplayLog(st, log); err != nil {
		log.Close()
		st.Close()
		return nil, fmt.Errorf("monetlite: recovering WAL: %w", err)
	}
	db := &Database{cfg: c, store: st, log: log, rec: *rec, pc: newPlanCache()}
	db.mgr = txn.NewManager(st, log)
	db.mgr.SetAutoCheckpoint(c.WALCheckpointBytes)
	db.startMerger()
	return db, nil
}

// startMerger applies the configured merge policy and, unless disabled,
// starts the background delta merger. Called only after WAL replay so the
// merger never observes a half-recovered store.
func (db *Database) startMerger() {
	p := delta.DefaultPolicy()
	if db.cfg.DeltaMergeRows > 0 {
		p.MinRows = db.cfg.DeltaMergeRows
	}
	if db.cfg.DeltaMergeRatio > 0 {
		p.Ratio = db.cfg.DeltaMergeRatio
	}
	db.mgr.SetMergePolicy(p)
	if !db.cfg.NoDeltaMerge {
		db.mgr.StartMerger()
	}
}

// Recovery reports what WAL recovery found when the database was opened:
// how many committed transactions were replayed and whether a torn or
// corrupt tail had to be truncated.
func (db *Database) Recovery() wal.RecoveryReport { return db.rec }

// OpenInMemory creates a transient database: nothing is written to disk and
// all data is discarded on Close (the paper's in-memory mode).
func OpenInMemory(cfg ...Config) (*Database, error) {
	c := DefaultConfig()
	if len(cfg) > 0 {
		c = cfg[0]
	}
	st := storage.NewMemory()
	db := &Database{cfg: c, store: st, pc: newPlanCache()}
	db.mgr = txn.NewManager(st, nil)
	db.startMerger()
	return db, nil
}

// Connect creates a new connection. Connections are the paper's "dummy
// clients": they hold a query context, provide transaction isolation from
// one another, and can be used concurrently for inter-query parallelism.
func (db *Database) Connect() *Conn {
	return &Conn{db: db}
}

// Checkpoint persists all data and truncates the WAL.
func (db *Database) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.mgr.Checkpoint()
}

// EncodeColumns compresses every column of every table that benefits from
// an encoding (dictionary, frame-of-reference, or RLE — see
// docs/STORAGE_FORMAT.md), returning the number of columns now encoded.
// Checkpoints do this automatically for large columns; this call forces the
// decision immediately, regardless of size, so queries run on encoded data
// and the next checkpoint persists the compressed form.
func (db *Database) EncodeColumns() (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	return db.store.EncodeAll()
}

// DeltaTableStats reports one table's delta-store gauges: pending appended
// rows, delete density, and merge activity.
type DeltaTableStats = delta.TableStats

// DeltaStats returns per-table delta-store statistics, sorted by table name.
func (db *Database) DeltaStats() []DeltaTableStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	return db.mgr.DeltaStats()
}

// MergeDeltas immediately folds every table's pending delta into its indexed
// base, regardless of the merge policy, and returns the number of tables
// merged. Checkpoints do this implicitly.
func (db *Database) MergeDeltas() (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	return db.mgr.MergeAll(true), nil
}

// MergeLog returns recent "storage.deltamerge" trace lines emitted by delta
// merges, oldest first (bounded; older entries are dropped).
func (db *Database) MergeLog() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	return db.mgr.MergeLog()
}

// ColFootprint reports one column's resident storage size next to what the
// same rows would cost raw — the measurement behind the README's bytes/row
// table and the CI compression gate.
type ColFootprint = storage.ColFootprint

// TableFootprint measures the storage footprint of every column of a table.
func (db *Database) TableFootprint(name string) ([]ColFootprint, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	tbl, ok := db.store.Get(name)
	if !ok {
		return nil, fmt.Errorf("monetlite: %w: %s", storage.ErrNoSuchTable, name)
	}
	return tbl.Footprint()
}

// InMemory reports whether this database discards its data on Close.
func (db *Database) InMemory() bool { return db.store.InMemory() }

// Tables returns the names of all tables.
func (db *Database) Tables() []string { return db.store.TableNames() }

// Close checkpoints (persistent databases) and releases all resources.
// Zero-copy result columns obtained from this database must not be used
// afterwards.
func (db *Database) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	db.mgr.StopMerger()
	var first error
	if !db.store.InMemory() {
		if err := db.mgr.Checkpoint(); err != nil {
			first = err
		}
	}
	if db.log != nil {
		if err := db.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := db.store.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

func (db *Database) isClosed() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.closed
}
