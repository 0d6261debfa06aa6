package server

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"monetlite"
	"monetlite/internal/client"
	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

// Shared adapts a single Queryer into a Backend whose sessions all share it
// behind one mutex, which is how these tests wire scripted backends; real
// deployments use the per-session ColumnarBackend/RowstoreBackend.
func Shared(q Queryer) Backend { return &sharedBackend{q: q} }

type sharedBackend struct {
	mu sync.Mutex
	q  Queryer
}

func (b *sharedBackend) NewSession() (Session, error) { return &sharedSession{b: b}, nil }

type sharedSession struct{ b *sharedBackend }

func (s *sharedSession) Exec(ctx context.Context, sql string) (int64, error) {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	return s.b.q.Exec(ctx, sql)
}

func (s *sharedSession) QueryRows(ctx context.Context, sql string) ([]string, [][]mtypes.Value, error) {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	return s.b.q.QueryRows(ctx, sql)
}

func (s *sharedSession) QueryCols(ctx context.Context, sql string) ([]string, []*vec.Vector, error) {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	return s.b.q.QueryCols(ctx, sql)
}

func (s *sharedSession) Close() error { return nil }

// blockingBackend parks every query on its context — the worst-case
// in-flight query, which only cancellation can unstick.
type blockingBackend struct {
	once    sync.Once
	started chan struct{}
}

func newBlockingBackend() *blockingBackend {
	return &blockingBackend{started: make(chan struct{})}
}

func (b *blockingBackend) block(ctx context.Context) error {
	b.once.Do(func() { close(b.started) })
	<-ctx.Done()
	return ctx.Err()
}

func (b *blockingBackend) Exec(ctx context.Context, sql string) (int64, error) {
	return 0, b.block(ctx)
}

func (b *blockingBackend) QueryRows(ctx context.Context, sql string) ([]string, [][]mtypes.Value, error) {
	return nil, nil, b.block(ctx)
}

func (b *blockingBackend) QueryCols(ctx context.Context, sql string) ([]string, []*vec.Vector, error) {
	return nil, nil, b.block(ctx)
}

// Server.Close must cancel in-flight queries, not just drain them: with a
// query parked on its context, Close can only return if cancellation reaches
// the backend.
func TestCloseCancelsInFlightQuery(t *testing.T) {
	backend := newBlockingBackend()
	srv, err := Serve("127.0.0.1:0", Shared(backend))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	qdone := make(chan error, 1)
	go func() {
		_, _, err := cl.QueryText(`SELECT forever`)
		qdone <- err
	}()
	<-backend.started

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Server.Close did not cancel the in-flight query within 3s")
	}
	if err := <-qdone; err == nil {
		t.Fatal("client should see an error for the aborted query")
	}
}

// signalBackend wraps a real backend and reports when a query has entered
// execution, so tests can land Close mid-scan deterministically.
type signalBackend struct {
	Backend
	once    sync.Once
	started chan struct{}
}

func (b *signalBackend) NewSession() (Session, error) {
	s, err := b.Backend.NewSession()
	if err != nil {
		return nil, err
	}
	return &signalSession{Session: s, b: b}, nil
}

type signalSession struct {
	Session
	b *signalBackend
}

func (s *signalSession) QueryRows(ctx context.Context, sql string) ([]string, [][]mtypes.Value, error) {
	s.b.once.Do(func() { close(s.b.started) })
	return s.Session.QueryRows(ctx, sql)
}

// A long scan on the real columnar engine aborts within the deadline when
// the server shuts down: Close's cancellation reaches the engine's interrupt
// checks through QueryContext.
func TestLongScanAbortsOnClose(t *testing.T) {
	db, err := monetlite.OpenInMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setup := db.Connect()
	if _, err := setup.Exec(`CREATE TABLE big (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec(`INSERT INTO big VALUES (1),(2),(3),(4),(5),(6),(7),(8)`); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 17; k++ { // double to ~1M rows
		if _, err := setup.Exec(`INSERT INTO big SELECT i FROM big`); err != nil {
			t.Fatal(err)
		}
	}

	backend := &signalBackend{Backend: NewColumnarBackend(db), started: make(chan struct{})}
	srv, err := Serve("127.0.0.1:0", backend)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	qdone := make(chan error, 1)
	go func() {
		_, _, err := cl.QueryText(
			`SELECT sum(i) FROM big WHERE i % 7 = 1 AND i % 11 = 2 AND i % 13 = 3 AND i % 17 = 4`)
		qdone <- err
	}()
	<-backend.started

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Server.Close did not abort the scan within 3s")
	}
	select {
	case <-qdone: // aborted (error) or finished just under the wire — either way, done
	case <-time.After(3 * time.Second):
		t.Fatal("client query did not return after Close")
	}
}

// An oversized statement gets an error reply and the connection keeps
// working — it must not balloon memory or drop the client.
func TestMaxStatementGuard(t *testing.T) {
	db, err := monetlite.OpenInMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := ServeOptions("127.0.0.1:0", NewColumnarBackend(db), Options{MaxStatement: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	_, err = cl.Exec(`CREATE TABLE ` + strings.Repeat("x", 4096) + ` (a INTEGER)`)
	if err == nil || !strings.Contains(err.Error(), "size limit") {
		t.Fatalf("oversized statement should report the size limit, got %v", err)
	}
	// The connection survives and serves the next request.
	if _, err := cl.Exec(`CREATE TABLE small (a INTEGER)`); err != nil {
		t.Fatalf("connection should survive an oversized statement: %v", err)
	}
}

// badColsBackend produces a result the binary protocol cannot serialize.
type badColsBackend struct{ blockingBackend }

func (b *badColsBackend) QueryCols(ctx context.Context, sql string) ([]string, []*vec.Vector, error) {
	return []string{"x"}, []*vec.Vector{{Typ: mtypes.Type{Kind: 99}}}, nil
}

// A backend error mid-result becomes a clean error reply: the payload is
// encoded before any status byte is written, so the client sees "E ..." and
// the connection stays usable (the old path dropped the connection).
func TestBinaryEncodeErrorCleanReply(t *testing.T) {
	backend := &badColsBackend{}
	srv, err := Serve("127.0.0.1:0", Shared(backend))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, _, err := cl.QueryBinary(`SELECT weird`); err == nil || !strings.Contains(err.Error(), "serialize") {
		t.Fatalf("want clean serialization error reply, got %v", err)
	}
	// Same connection still answers (Exec blocks in this backend, so use
	// another doomed binary query to prove the conn wasn't dropped).
	if _, _, err := cl.QueryBinary(`SELECT weird`); err == nil || !strings.Contains(err.Error(), "serialize") {
		t.Fatalf("connection should survive the encode error: %v", err)
	}
}

// An idle connection is reaped by the read deadline.
func TestReadDeadlineReapsIdleConn(t *testing.T) {
	db, err := monetlite.OpenInMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := ServeOptions("127.0.0.1:0", NewColumnarBackend(db), Options{ReadTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	time.Sleep(400 * time.Millisecond)
	if _, err := cl.Exec(`CREATE TABLE t (a INTEGER)`); err == nil {
		t.Fatal("idle connection should have been closed by the read deadline")
	}
}

// A client disconnecting mid-query cancels that query.
func TestClientDisconnectAbortsQuery(t *testing.T) {
	backend := newBlockingBackend()
	srv, err := Serve("127.0.0.1:0", Shared(backend))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	qdone := make(chan error, 1)
	go func() {
		_, _, err := cl.QueryText(`SELECT forever`)
		qdone <- err
	}()
	<-backend.started
	cl.Close() // hang up while the query runs

	select {
	case <-qdone:
	case <-time.After(3 * time.Second):
		t.Fatal("query goroutine stuck after disconnect")
	}
	// The server must notice the disconnect and cancel the parked query
	// promptly — otherwise Close would hang on the drain below.
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("disconnect did not cancel the in-flight query")
	}
}
