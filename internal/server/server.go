// Package server hosts a monetlite engine behind a TCP socket — the
// client-server deployment of Figure 1a that the paper's evaluation
// contrasts with embedding. The same server can front either the columnar
// engine (a MonetDB-like server) or the volcano row store (a
// PostgreSQL/MariaDB-like server), so benchmarks isolate the transport and
// architecture variables.
//
// Robustness model: every query runs under a context derived from its
// connection, which is derived from the server. Server.Close cancels the
// root, aborting in-flight queries before waiting for connections to drain;
// a client that disconnects mid-query cancels just its own connection's
// context (a dedicated reader goroutine notices the EOF while the query is
// still executing). Per-connection read/write deadlines bound how long a
// silent peer can pin a connection, and request lines are size-capped so a
// rogue statement cannot balloon server memory.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"monetlite"
	"monetlite/internal/delta"
	"monetlite/internal/mtypes"
	"monetlite/internal/netproto"
	"monetlite/internal/rowstore"
	"monetlite/internal/vec"
)

// Queryer is the execution surface of one client's stream of statements. The
// context carries query cancellation: it is cancelled when the client
// disconnects, when the server shuts down, or when the per-query timeout
// expires.
type Queryer interface {
	Exec(ctx context.Context, sql string) (int64, error)
	// QueryRows returns a row-major result (text protocol).
	QueryRows(ctx context.Context, sql string) (cols []string, rows [][]mtypes.Value, err error)
	// QueryCols returns a columnar result (binary protocol).
	QueryCols(ctx context.Context, sql string) (names []string, data []*vec.Vector, err error)
}

// Session is one connection's execution context on the backend. Each served
// connection gets its own Session and uses it from a single goroutine, so
// sessions need no internal locking — this is what lets N clients execute
// concurrently instead of serializing on one shared backend mutex.
type Session interface {
	Queryer
	Close() error
}

// Backend abstracts the engine behind the socket as a session factory.
type Backend interface {
	NewSession() (Session, error)
}

// Options tune the server's protective limits. The zero value of any field
// selects its default; a negative duration disables that deadline.
type Options struct {
	// ReadTimeout bounds the wait for the next request line (default 10m).
	ReadTimeout time.Duration
	// WriteTimeout bounds each response flush (default 1m).
	WriteTimeout time.Duration
	// QueryTimeout bounds each query's execution (default: none).
	QueryTimeout time.Duration
	// MaxStatement caps the request line length in bytes (default 1 MiB).
	// Oversized statements get an error reply, not a dropped connection.
	MaxStatement int
}

func (o Options) withDefaults() Options {
	if o.ReadTimeout == 0 {
		o.ReadTimeout = 10 * time.Minute
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = time.Minute
	}
	if o.MaxStatement == 0 {
		o.MaxStatement = 1 << 20
	}
	return o
}

// Server accepts connections and serves the wire protocols.
type Server struct {
	backend Backend
	opts    Options
	ln      net.Listener
	wg      sync.WaitGroup

	baseCtx context.Context // root of every connection/query context
	cancel  context.CancelFunc

	conns       atomic.Int64 // connected clients
	inFlight    atomic.Int64 // requests executing right now
	maxInFlight atomic.Int64 // high-water mark of inFlight
	requests    atomic.Int64 // requests served, cumulative
}

// Stats is a point-in-time snapshot of the server's concurrency gauges. The
// overlap tests use MaxInFlight to prove two clients' queries actually ran
// at the same time rather than serializing on a shared backend lock.
type Stats struct {
	Conns       int64 // currently connected clients
	InFlight    int64 // requests executing right now
	MaxInFlight int64 // high-water mark of concurrent requests
	Requests    int64 // requests served, cumulative

	// Delta holds per-table delta-store gauges (pending rows, delete
	// density, merge count/latency) when the backend exposes them; nil for
	// backends without a delta store (e.g. the rowstore baseline).
	Delta []delta.TableStats
}

// deltaStatser is implemented by backends whose storage keeps per-table
// append/delete deltas (the columnar backend).
type deltaStatser interface {
	DeltaStats() []delta.TableStats
}

// Stats returns the server's concurrency gauges.
func (s *Server) Stats() Stats {
	st := Stats{
		Conns:       s.conns.Load(),
		InFlight:    s.inFlight.Load(),
		MaxInFlight: s.maxInFlight.Load(),
		Requests:    s.requests.Load(),
	}
	if ds, ok := s.backend.(deltaStatser); ok {
		st.Delta = ds.DeltaStats()
	}
	return st
}

// Serve starts listening on addr (e.g. "127.0.0.1:0") with default options.
func Serve(addr string, backend Backend) (*Server, error) {
	return ServeOptions(addr, backend, Options{})
}

// ServeOptions starts listening with explicit limits.
func ServeOptions(addr string, backend Backend, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{backend: backend, opts: opts.withDefaults(), ln: ln, baseCtx: ctx, cancel: cancel}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, cancels every in-flight query, and waits for
// active connections to wind down. Queries abort at their next interrupt
// check (one chunk of work), so Close returns promptly even mid-scan.
func (s *Server) Close() error {
	s.cancel()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// request is one framed client request, or the read error that ended the
// stream. A netproto.ErrTooLarge is recoverable (the line was drained); any
// other error is terminal.
type request struct {
	kind byte
	sql  string
	err  error
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	s.conns.Add(1)
	defer s.conns.Add(-1)
	// Per-connection session: each client executes on its own backend
	// session, so concurrent clients overlap instead of serializing.
	sess, err := s.backend.NewSession()
	if err != nil {
		fmt.Fprintf(conn, "E %s\n", oneLine(err))
		return
	}
	defer sess.Close()
	connCtx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	// Watchdog: when the connection's context dies — server shutdown, client
	// disconnect, or normal exit — close the socket so any blocked read or
	// write returns immediately.
	go func() {
		<-connCtx.Done()
		conn.Close()
	}()

	r := bufio.NewReaderSize(conn, 1<<20)
	w := bufio.NewWriterSize(conn, 1<<20)

	// Reader goroutine: decouples framing from execution so a client that
	// hangs up mid-query is noticed while the query still runs — the EOF
	// cancels connCtx and the engine aborts at its next interrupt check.
	reqs := make(chan request, 8)
	go func() {
		defer close(reqs)
		for {
			if s.opts.ReadTimeout > 0 {
				conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
			}
			kind, sql, err := netproto.ReadRequestLimit(r, s.opts.MaxStatement)
			select {
			case reqs <- request{kind: kind, sql: sql, err: err}:
			case <-connCtx.Done():
				return
			}
			if err != nil && !errors.Is(err, netproto.ErrTooLarge) {
				cancel() // terminal: abort any in-flight query
				return
			}
		}
	}()

	for rq := range reqs {
		if rq.err != nil {
			if !errors.Is(rq.err, netproto.ErrTooLarge) {
				return
			}
			fmt.Fprintf(w, "E %s\n", oneLine(rq.err))
		} else {
			s.serveRequest(connCtx, sess, w, rq)
		}
		if connCtx.Err() != nil {
			return
		}
		if s.opts.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// serveRequest executes one request under the per-query context and writes
// the response into w (not yet flushed). Backend errors — including
// mid-result serialization failures, which encode before any byte hits the
// wire — become clean "E" replies.
func (s *Server) serveRequest(connCtx context.Context, sess Session, w *bufio.Writer, rq request) {
	s.requests.Add(1)
	cur := s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	for {
		max := s.maxInFlight.Load()
		if cur <= max || s.maxInFlight.CompareAndSwap(max, cur) {
			break
		}
	}
	ctx := connCtx
	if s.opts.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(connCtx, s.opts.QueryTimeout)
		defer cancel()
	}
	switch rq.kind {
	case netproto.ReqExec:
		n, err := sess.Exec(ctx, rq.sql)
		if err != nil {
			fmt.Fprintf(w, "E %s\n", oneLine(err))
		} else {
			fmt.Fprintf(w, "OK %d\n", n)
		}
	case netproto.ReqQueryText:
		cols, rows, err := sess.QueryRows(ctx, rq.sql)
		if err != nil {
			fmt.Fprintf(w, "E %s\n", oneLine(err))
			return
		}
		fmt.Fprintf(w, "R %d %d\n", len(cols), len(rows))
		for i, name := range cols {
			if i > 0 {
				w.WriteByte('\t')
			}
			w.WriteString(netproto.EscapeText(name))
		}
		w.WriteByte('\n')
		for _, row := range rows {
			for i, v := range row {
				if i > 0 {
					w.WriteByte('\t')
				}
				w.WriteString(netproto.TextValue(v))
			}
			w.WriteByte('\n')
		}
	case netproto.ReqQueryBinary:
		names, data, err := sess.QueryCols(ctx, rq.sql)
		var payload []byte
		if err == nil {
			payload, err = netproto.EncodeColumns(names, data)
		}
		if err != nil {
			fmt.Fprintf(w, "E %s\n", oneLine(err))
			return
		}
		w.Write(payload)
	default:
		fmt.Fprintf(w, "E unknown request %q\n", rq.kind)
	}
}

func oneLine(err error) string {
	return strings.ReplaceAll(err.Error(), "\n", " ")
}

// ---------------------------------------------------------------------------
// Backends.
// ---------------------------------------------------------------------------

// ColumnarBackend serves an embedded monetlite database over the socket
// (the MonetDB-server configuration). Each served connection gets its own
// monetlite.Conn — connections are the paper's cheap "dummy clients", so one
// per socket costs nothing and lets queries from different clients execute
// concurrently (the engine's transaction manager provides isolation, the
// shared worker pool provides admission control).
type ColumnarBackend struct {
	db *monetlite.Database
}

// NewColumnarBackend wraps a database.
func NewColumnarBackend(db *monetlite.Database) *ColumnarBackend {
	return &ColumnarBackend{db: db}
}

// NewSession implements Backend: one engine connection per client.
func (b *ColumnarBackend) NewSession() (Session, error) {
	return &columnarSession{conn: b.db.Connect()}, nil
}

// DeltaStats surfaces the embedded database's per-table delta gauges through
// Server.Stats.
func (b *ColumnarBackend) DeltaStats() []delta.TableStats {
	return b.db.DeltaStats()
}

type columnarSession struct {
	conn *monetlite.Conn
}

func (s *columnarSession) Close() error { return nil }

func (s *columnarSession) Exec(ctx context.Context, sql string) (int64, error) {
	return s.conn.ExecContext(ctx, sql)
}

// QueryRows converts to row-major form for the text protocol. The conversion
// runs on the connection's goroutine, outside any shared lock.
func (s *columnarSession) QueryRows(ctx context.Context, sql string) ([]string, [][]mtypes.Value, error) {
	res, err := s.conn.QueryContext(ctx, sql)
	if err != nil {
		return nil, nil, err
	}
	rows := make([][]mtypes.Value, res.NumRows())
	for i := range rows {
		row := make([]mtypes.Value, res.NumCols())
		for c := 0; c < res.NumCols(); c++ {
			row[c] = resultValue(res, c, i)
		}
		rows[i] = row
	}
	return res.Names(), rows, nil
}

// QueryCols returns the native columnar result (binary protocol).
func (s *columnarSession) QueryCols(ctx context.Context, sql string) ([]string, []*vec.Vector, error) {
	res, err := s.conn.QueryContext(ctx, sql)
	if err != nil {
		return nil, nil, err
	}
	cols := make([]*vec.Vector, res.NumCols())
	for i := range cols {
		cols[i] = monetlite.InternalVector(res.Column(i))
	}
	return res.Names(), cols, nil
}

func resultValue(res *monetlite.Result, col, row int) mtypes.Value {
	return monetlite.InternalValue(res.Column(col), row)
}

// RowstoreBackend serves the volcano row store (the PostgreSQL/MariaDB
// configuration: row-major storage, execution and transfer). The row store
// has no per-connection state and locks internally (readers share, writers
// exclude), so sessions call straight into the shared DB.
type RowstoreBackend struct {
	DB *rowstore.DB
}

// NewRowstoreBackend wraps a row store.
func NewRowstoreBackend(db *rowstore.DB) *RowstoreBackend {
	return &RowstoreBackend{DB: db}
}

// NewSession implements Backend.
func (b *RowstoreBackend) NewSession() (Session, error) {
	return &rowstoreSession{db: b.DB}, nil
}

type rowstoreSession struct {
	db *rowstore.DB
}

func (s *rowstoreSession) Close() error { return nil }

// Exec honors cancellation only at statement start: the row store is the
// simple oracle baseline and has no internal interrupt checks.
func (s *rowstoreSession) Exec(ctx context.Context, sql string) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.db.Exec(sql)
}

func (s *rowstoreSession) QueryRows(ctx context.Context, sql string) ([]string, [][]mtypes.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	res, err := s.db.Query(sql)
	if err != nil {
		return nil, nil, err
	}
	return res.Cols, res.Rows, nil
}

// QueryCols transposes rows (a row store has no native columnar path — the
// conversion cost is part of what Figure 6 measures for SQLite).
func (s *rowstoreSession) QueryCols(ctx context.Context, sql string) ([]string, []*vec.Vector, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	res, err := s.db.Query(sql)
	if err != nil {
		return nil, nil, err
	}
	if len(res.Rows) == 0 {
		return res.Cols, nil, nil
	}
	ncols := len(res.Cols)
	out := make([]*vec.Vector, ncols)
	for c := 0; c < ncols; c++ {
		out[c] = vec.NewCap(res.Rows[0][c].Typ, len(res.Rows))
		for _, row := range res.Rows {
			out[c].AppendValue(row[c])
		}
	}
	return res.Cols, out, nil
}
