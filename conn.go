package monetlite

import (
	"context"
	"errors"
	"fmt"

	"monetlite/internal/exec"
	"monetlite/internal/mal"
	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
	"monetlite/internal/sqlparse"
	"monetlite/internal/storage"
	"monetlite/internal/txn"
)

// Conn is a database connection: a lightweight query context with its own
// transaction state. Connections are not safe for concurrent use; open one
// connection per goroutine (connections themselves are cheap).
type Conn struct {
	db  *Database
	tx  *txn.Txn        // explicit transaction, nil in autocommit mode
	ctx context.Context // active query context (QueryContext/ExecContext)

	// LastTrace holds the MAL instruction trace of the last query when
	// TraceMAL is set (EXPLAIN-style introspection and tests), LastPlan the
	// optimized plan it executed (read-only: it may be shared through the
	// plan cache).
	TraceMAL  bool
	LastTrace *mal.Program
	LastPlan  plan.Node

	// NoJoinReorder keeps the written join order (predicates still push
	// down). A debugging/baseline knob: queries bound with it bypass the
	// plan cache, which stores only fully optimized plans.
	NoJoinReorder bool
}

// ErrTxnOpen is returned by BEGIN when a transaction is already open.
var ErrTxnOpen = errors.New("monetlite: transaction already open")

// ErrNoTxn is returned by COMMIT/ROLLBACK without an open transaction.
var ErrNoTxn = errors.New("monetlite: no transaction open")

// Query executes one SQL statement and returns its result (nil result with
// rows-affected semantics for DML/DDL). Positional parameters (?) are bound
// from args.
func (c *Conn) Query(sql string, args ...any) (*Result, error) {
	return c.QueryContext(context.Background(), sql, args...)
}

// QueryContext is Query with cancellation: when ctx is cancelled or its
// deadline passes, query execution aborts within one chunk of work (serial
// and mitosis-parallel paths both) and returns ctx's error.
func (c *Conn) QueryContext(ctx context.Context, sql string, args ...any) (*Result, error) {
	if c.db.isClosed() {
		return nil, ErrClosed
	}
	key := normalizeSQL(sql)
	stmt, err := c.parseOneCached(key, sql)
	if err != nil {
		return nil, err
	}
	params, err := toParams(args)
	if err != nil {
		return nil, err
	}
	c.ctx = ctx
	defer func() { c.ctx = nil }()
	res, _, err := c.runKeyed(stmt, params, key)
	return res, err
}

// parseOneCached parses a single statement through the database's parse
// cache. ASTs are read-only to the binder, so cache hits share the node tree.
func (c *Conn) parseOneCached(key, sql string) (sqlparse.Statement, error) {
	if st, ok := c.db.pc.getParse(key); ok {
		return st, nil
	}
	st, err := sqlparse.ParseOne(sql)
	if err != nil {
		return nil, err
	}
	c.db.pc.putParse(key, st)
	return st, nil
}

// Exec executes one or more semicolon-separated SQL statements, returning
// the total number of affected rows.
func (c *Conn) Exec(sql string, args ...any) (int64, error) {
	return c.ExecContext(context.Background(), sql, args...)
}

// ExecContext is Exec with cancellation: a cancelled ctx aborts the current
// statement and skips the rest of the batch. Statements already committed
// (autocommit is per statement) stay committed.
func (c *Conn) ExecContext(ctx context.Context, sql string, args ...any) (int64, error) {
	if c.db.isClosed() {
		return 0, ErrClosed
	}
	key := normalizeSQL(sql)
	var stmts []sqlparse.Statement
	if st, ok := c.db.pc.getParse(key); ok {
		stmts = []sqlparse.Statement{st}
	} else {
		var err error
		stmts, err = sqlparse.Parse(sql)
		if err != nil {
			return 0, err
		}
		if len(stmts) == 1 {
			c.db.pc.putParse(key, stmts[0])
		}
	}
	params, err := toParams(args)
	if err != nil {
		return 0, err
	}
	c.ctx = ctx
	defer func() { c.ctx = nil }()
	var total int64
	for _, stmt := range stmts {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		_, n, err := c.run(stmt, params)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// Begin starts an explicit transaction on this connection.
func (c *Conn) Begin() error {
	if c.tx != nil {
		return ErrTxnOpen
	}
	c.tx = c.db.mgr.Begin()
	return nil
}

// Commit commits the open transaction (write conflicts abort with
// txn.ErrWriteConflict, matching the paper's optimistic concurrency model).
func (c *Conn) Commit() error {
	if c.tx == nil {
		return ErrNoTxn
	}
	err := c.tx.Commit()
	c.tx = nil
	return err
}

// Rollback discards the open transaction.
func (c *Conn) Rollback() error {
	if c.tx == nil {
		return ErrNoTxn
	}
	err := c.tx.Rollback()
	c.tx = nil
	return err
}

// InTransaction reports whether an explicit transaction is open.
func (c *Conn) InTransaction() bool { return c.tx != nil }

// run dispatches one parsed statement. It returns a result (SELECT) and/or
// an affected-row count.
func (c *Conn) run(stmt sqlparse.Statement, params []mtypes.Value) (*Result, int64, error) {
	return c.runKeyed(stmt, params, "")
}

// runKeyed is run with a plan-cache key: when pcKey is non-empty and the
// statement is plan-cache eligible, the bound plan is reused/stored under it.
func (c *Conn) runKeyed(stmt sqlparse.Statement, params []mtypes.Value, pcKey string) (*Result, int64, error) {
	// Transaction control first.
	switch stmt.(type) {
	case *sqlparse.BeginStmt:
		return nil, 0, c.Begin()
	case *sqlparse.CommitStmt:
		return nil, 0, c.Commit()
	case *sqlparse.RollbackStmt:
		return nil, 0, c.Rollback()
	case *sqlparse.CheckpointStmt:
		return nil, 0, c.db.Checkpoint()
	}

	// DDL auto-commits through the manager.
	switch x := stmt.(type) {
	case *sqlparse.CreateTableStmt:
		meta, err := metaFromAST(x)
		if err != nil {
			return nil, 0, err
		}
		return nil, 0, c.db.mgr.CreateTable(meta)
	case *sqlparse.DropTableStmt:
		err := c.db.mgr.DropTable(x.Name)
		if x.IfExists && errors.Is(err, storage.ErrNoSuchTable) {
			// IF EXISTS forgives only the table being absent. WAL append or
			// commit failures mean the drop may not be durable and must
			// surface — swallowing them here silently corrupted recovery.
			return nil, 0, nil
		}
		return nil, 0, err
	case *sqlparse.CreateIndexStmt:
		return nil, 0, c.createIndex(x)
	}

	// DML/queries run inside the explicit transaction or an autocommit one.
	//
	// Plan-cache eligibility: autocommit only (an explicit transaction's
	// snapshot can predate a concurrent DDL, so its catalog view may not
	// match the current schema version the cache keys on) and param-free only
	// (parameters bind as constants inside the plan). The schema version is
	// read before Begin: monotonicity then guarantees a cached plan is served
	// only while no DDL has happened since before its snapshot was taken.
	if c.tx != nil || len(params) != 0 || c.NoJoinReorder {
		pcKey = ""
	}
	schema, stats := uint64(0), uint64(0)
	if pcKey != "" {
		schema = c.db.store.SchemaVersion()
		stats = c.db.store.StatsVersion()
	}
	tx := c.tx
	auto := tx == nil
	if auto {
		tx = c.db.mgr.Begin()
	}
	res, n, err := c.runInTxn(stmt, tx, params, pcKey, schema, stats)
	if err != nil {
		if auto {
			tx.Rollback()
		}
		return nil, 0, err
	}
	if auto {
		if err := tx.Commit(); err != nil {
			return nil, 0, err
		}
	}
	return res, n, nil
}

func (c *Conn) engine(tx *txn.Txn) *exec.Engine {
	e := &exec.Engine{
		Cat:        execCatalog{tx},
		Parallel:   c.db.cfg.Parallel,
		MaxThreads: c.db.cfg.MaxThreads,
		NoIndexes:  c.db.cfg.NoIndexes,
		Timeout:    c.db.cfg.QueryTimeout,
		Ctx:        c.ctx,
	}
	if c.TraceMAL {
		c.LastTrace = &mal.Program{}
		e.Trace = c.LastTrace
	}
	return e
}

func (c *Conn) runInTxn(stmt sqlparse.Statement, tx *txn.Txn, params []mtypes.Value, pcKey string, schema, stats uint64) (*Result, int64, error) {
	cat := snapshotCatalog{tx}
	switch x := stmt.(type) {
	case *sqlparse.SelectStmt:
		var q *plan.BoundQuery
		cached := false
		if pcKey != "" {
			q, cached = c.db.pc.getPlan(pcKey, schema, stats)
		}
		eng := c.engine(tx)
		if pcKey != "" {
			if cached {
				eng.Trace.Emit("sql.plancache", "hit")
			} else {
				eng.Trace.Emit("sql.plancache", "miss")
			}
		}
		if !cached {
			var err error
			q, err = plan.BindSelectWith(cat, x, params, plan.OptOpts{NoJoinReorder: c.NoJoinReorder})
			if err != nil {
				return nil, 0, err
			}
			if pcKey != "" {
				c.db.pc.putPlan(pcKey, q, schema, stats)
			}
		}
		if c.TraceMAL {
			c.LastPlan = q.Plan
		}
		er, err := eng.Execute(q.Plan)
		if err != nil {
			return nil, 0, err
		}
		return c.newResult(er), int64(er.NumRows()), nil
	case *sqlparse.InsertStmt:
		ins, err := plan.BindInsert(cat, x, params)
		if err != nil {
			return nil, 0, err
		}
		cols := ins.Values
		if ins.Query != nil {
			er, err := c.engine(tx).Execute(ins.Query)
			if err != nil {
				return nil, 0, err
			}
			cols = er.Cols
		}
		if len(cols) == 0 || cols[0].Len() == 0 {
			return nil, 0, nil
		}
		if err := tx.Append(ins.Table, cols); err != nil {
			return nil, 0, err
		}
		return nil, int64(cols[0].Len()), nil
	case *sqlparse.DeleteStmt:
		del, err := plan.BindDelete(cat, x, params)
		if err != nil {
			return nil, 0, err
		}
		rows, _, err := c.engine(tx).SelectRows(del.Table, del.Pred, nil)
		if err != nil {
			return nil, 0, err
		}
		n, err := tx.Delete(del.Table, rows)
		return nil, int64(n), err
	case *sqlparse.UpdateStmt:
		return c.runUpdate(tx, cat, x, params)
	default:
		return nil, 0, fmt.Errorf("monetlite: unsupported statement %T", stmt)
	}
}

// runUpdate implements UPDATE as delete+append of the rewritten rows within
// one transaction (MonetDB-style delta semantics; row ids are not stable
// across updates — see "MVCC delta store" in docs/ARCHITECTURE.md).
func (c *Conn) runUpdate(tx *txn.Txn, cat snapshotCatalog, x *sqlparse.UpdateStmt, params []mtypes.Value) (*Result, int64, error) {
	up, err := plan.BindUpdate(cat, x, params)
	if err != nil {
		return nil, 0, err
	}
	meta, ok := cat.TableMeta(up.Table)
	if !ok {
		return nil, 0, fmt.Errorf("monetlite: no such table %q", up.Table)
	}
	// The new rows: each SET expression, and every other column as it is.
	exprs := make([]plan.Expr, len(meta.Cols))
	for i, cd := range meta.Cols {
		exprs[i] = &plan.ColRef{Slot: i, Typ: cd.Typ, Name: cd.Name}
	}
	for k, ci := range up.SetCols {
		exprs[ci] = up.SetExprs[k]
	}
	rows, newCols, err := c.engine(tx).SelectRows(up.Table, up.Pred, exprs)
	if err != nil || len(rows) == 0 {
		return nil, 0, err
	}
	if _, err := tx.Delete(up.Table, rows); err != nil {
		return nil, 0, err
	}
	if err := tx.Append(up.Table, newCols); err != nil {
		return nil, 0, err
	}
	return nil, int64(len(rows)), nil
}

func (c *Conn) createIndex(x *sqlparse.CreateIndexStmt) error {
	if len(x.Cols) != 1 {
		return fmt.Errorf("monetlite: indexes cover exactly one column")
	}
	if x.Ordered {
		return c.db.mgr.CreateOrderIndex(x.Table, x.Cols[0])
	}
	// Plain CREATE INDEX: build the hash index eagerly (MonetDB would build
	// it automatically on first use anyway).
	tbl, ok := c.db.store.Get(x.Table)
	if !ok {
		return fmt.Errorf("monetlite: no such table %q", x.Table)
	}
	ci := tbl.Meta.ColIndex(x.Cols[0])
	if ci < 0 {
		return fmt.Errorf("monetlite: no column %q in table %q", x.Cols[0], x.Table)
	}
	if h := tbl.HashFor(tbl.Version(), ci); h == nil {
		return fmt.Errorf("monetlite: cannot build index on %s.%s", x.Table, x.Cols[0])
	}
	return nil
}

func metaFromAST(x *sqlparse.CreateTableStmt) (storage.TableMeta, error) {
	meta := storage.TableMeta{Name: x.Name}
	for _, cd := range x.Cols {
		kind := mtypes.ParseTypeName(cd.TypeName)
		if kind == mtypes.KUnknown {
			return meta, fmt.Errorf("monetlite: unknown type %q for column %q", cd.TypeName, cd.Name)
		}
		t := mtypes.Type{Kind: kind}
		if kind == mtypes.KDecimal {
			t.Prec, t.Scale = cd.Prec, cd.Scale
			if t.Prec == 0 {
				t.Prec = 18
			}
		}
		if kind == mtypes.KVarchar {
			t.Width = cd.Width
		}
		meta.Cols = append(meta.Cols, storage.ColDef{Name: cd.Name, Typ: t})
	}
	return meta, nil
}

func toParams(args []any) ([]mtypes.Value, error) {
	out := make([]mtypes.Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case nil:
			out[i] = mtypes.NullValue(mtypes.Varchar)
		case bool:
			out[i] = mtypes.NewBool(v)
		case int:
			out[i] = mtypes.NewInt(mtypes.BigInt, int64(v))
		case int32:
			out[i] = mtypes.NewInt(mtypes.Int, int64(v))
		case int64:
			out[i] = mtypes.NewInt(mtypes.BigInt, v)
		case float64:
			out[i] = mtypes.NewDouble(v)
		case string:
			out[i] = mtypes.NewString(v)
		default:
			return nil, fmt.Errorf("monetlite: unsupported parameter type %T", a)
		}
	}
	return out, nil
}
