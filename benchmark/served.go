package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"monetlite/internal/client"
	"monetlite/internal/mtypes"
	"monetlite/internal/server"
	"monetlite/internal/tpch"
	"monetlite/internal/vec"
)

// adhoc-served: small parameterised queries over the wire. Every request's
// answer is recomputed from the generated host columns, so each one is checked
// exactly without a second engine.

const (
	hotTexts     = 64  // size of the fixed hot set
	groupKeySpan = 200 // template 4 groups the line items of this many order keys
)

var templateNames = [4]string{"point", "range", "join", "group"}

// request is one statement and the check of its answer.
type request struct {
	kind   string // template and whether the text is from the hot set
	text   string
	verify func(cols []*vec.Vector) error
}

// servedPlan derives the request streams from the seed and the host data
// alone; the engine sees only the texts.
type servedPlan struct {
	seed int64

	oCust   []int32
	oTotal  []float64
	oDate   []int32
	cName   []string
	lSupp   []int32
	lQty    []float64
	lFlag   []string
	nSupp   int
	firstLI []int32 // firstLI[k-1]..firstLI[k] are order key k's rows of lineitem
	minDay  int32
	dayRows [][]int32 // rows of lineitem by l_shipdate - minDay

	keyPerm  []int32 // order keys in seeded order: misses take them from the front, the hot set from the back
	dayPerm  []int32
	suppPerm []int32
	hot      []request
}

func newServedPlan(d *tpch.Data, seed int64) *servedPlan {
	p := &servedPlan{
		seed:   seed,
		oCust:  d.Orders.Cols[1].([]int32),
		oTotal: d.Orders.Cols[3].([]float64),
		oDate:  d.Orders.Cols[4].([]int32),
		cName:  d.Customer.Cols[1].([]string),
		lSupp:  d.Lineitem.Cols[2].([]int32),
		lQty:   d.Lineitem.Cols[4].([]float64),
		lFlag:  d.Lineitem.Cols[8].([]string),
		nSupp:  d.Supplier.Rows,
	}
	lOrder := d.Lineitem.Cols[0].([]int32)
	lShip := d.Lineitem.Cols[10].([]int32)
	nOrders := d.Orders.Rows

	p.firstLI = make([]int32, nOrders+1)
	for r := len(lOrder) - 1; r >= 0; r-- {
		p.firstLI[lOrder[r]-1] = int32(r)
	}
	p.firstLI[nOrders] = int32(len(lOrder))

	p.minDay = lShip[0]
	maxDay := lShip[0]
	for _, day := range lShip {
		p.minDay = min(p.minDay, day)
		maxDay = max(maxDay, day)
	}
	p.dayRows = make([][]int32, maxDay-p.minDay+1)
	for r, day := range lShip {
		p.dayRows[day-p.minDay] = append(p.dayRows[day-p.minDay], int32(r))
	}

	rng := rand.New(rand.NewSource(seed ^ 0x5e7ed))
	perm := func(n int) []int32 {
		out := make([]int32, n)
		for i, v := range rng.Perm(n) {
			out[i] = int32(v)
		}
		return out
	}
	p.keyPerm = perm(nOrders)
	p.dayPerm = perm(len(p.dayRows) - 2)
	p.suppPerm = perm(p.nSupp)
	for i := 0; i < hotTexts; i++ {
		p.hot = append(p.hot, p.request(i%4, nOrders-1-i, ".hot"))
	}
	return p
}

// request builds the n-th distinct request of a template: n picks the
// literals, so two different n never give the same text.
func (p *servedPlan) request(template, n int, suffix string) request {
	rq := request{kind: templateNames[template] + suffix}
	key := int(p.keyPerm[n%len(p.keyPerm)]) + 1
	switch template {
	case 0:
		rq.text = fmt.Sprintf("SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = %d", key)
		rq.verify = func(cols []*vec.Vector) error {
			if err := shape(cols, 4, 1); err != nil {
				return err
			}
			got := [4]int64{cell(cols[0], 0), cell(cols[1], 0), cell(cols[2], 0), cell(cols[3], 0)}
			want := [4]int64{int64(key), int64(p.oCust[key-1]), scaled(p.oTotal[key-1]), int64(p.oDate[key-1])}
			return same(got, want)
		}
	case 1:
		day := p.dayPerm[n%len(p.dayPerm)]
		supp := p.suppPerm[(n/len(p.dayPerm))%len(p.suppPerm)] + 1
		rq.text = fmt.Sprintf("SELECT count(*), sum(l_quantity) FROM lineitem WHERE l_shipdate >= date '%s' AND l_shipdate < date '%s' AND l_suppkey <> %d",
			mtypes.FormatDate(p.minDay+day), mtypes.FormatDate(p.minDay+day+3), supp)
		rq.verify = func(cols []*vec.Vector) error {
			if err := shape(cols, 2, 1); err != nil {
				return err
			}
			var count, qty int64
			for _, rows := range p.dayRows[day : day+3] {
				for _, r := range rows {
					if p.lSupp[r] != supp {
						count++
						qty += scaled(p.lQty[r])
					}
				}
			}
			if count == 0 {
				return same(cell(cols[0], 0), count) // the sum of no rows is NULL
			}
			return same([2]int64{cell(cols[0], 0), cell(cols[1], 0)}, [2]int64{count, qty})
		}
	case 2:
		rq.text = fmt.Sprintf("SELECT c_name, o_totalprice FROM customer, orders WHERE o_orderkey = %d AND c_custkey = o_custkey", key)
		rq.verify = func(cols []*vec.Vector) error {
			if err := shape(cols, 2, 1); err != nil {
				return err
			}
			if want := p.cName[p.oCust[key-1]-1]; cols[0].Str == nil || cols[0].Str[0] != want {
				return fmt.Errorf("got customer %v, want %q", cols[0].Str, want)
			}
			return same(cell(cols[1], 0), scaled(p.oTotal[key-1]))
		}
	case 3:
		last := min(key+groupKeySpan, len(p.firstLI)-1)
		rq.text = fmt.Sprintf("SELECT l_returnflag, count(*), sum(l_quantity) FROM lineitem WHERE l_orderkey BETWEEN %d AND %d GROUP BY l_returnflag", key, last)
		rq.verify = func(cols []*vec.Vector) error {
			want := map[string][2]int64{}
			for r := p.firstLI[key-1]; r < p.firstLI[last]; r++ {
				g := want[p.lFlag[r]]
				want[p.lFlag[r]] = [2]int64{g[0] + 1, g[1] + scaled(p.lQty[r])}
			}
			if err := shape(cols, 3, len(want)); err != nil {
				return err
			}
			for r, flag := range cols[0].Str {
				if err := same([2]int64{cell(cols[1], r), cell(cols[2], r)}, want[flag]); err != nil {
					return fmt.Errorf("group %q: %w", flag, err)
				}
			}
			return nil
		}
	}
	return rq
}

func shape(cols []*vec.Vector, ncols, nrows int) error {
	if len(cols) != ncols || (ncols > 0 && cols[0].Len() != nrows) {
		rows := 0
		if len(cols) > 0 {
			rows = cols[0].Len()
		}
		return fmt.Errorf("got %d columns of %d rows, want %d of %d", len(cols), rows, ncols, nrows)
	}
	return nil
}

func same[T comparable](got, want T) error {
	if got != want {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	return nil
}

// stream is one client's request sequence. Clients draw misses from disjoint
// residues, so no text is sent twice by anyone.
type stream struct {
	plan     *servedPlan
	rng      *rand.Rand
	client   int
	nclients int
	misses   int
}

func (p *servedPlan) stream(client, nclients int) *stream {
	return &stream{plan: p, rng: rand.New(rand.NewSource(p.seed*31 + int64(client))), client: client, nclients: nclients}
}

func (s *stream) next() request {
	template := s.rng.Intn(4)
	if s.rng.Intn(2) == 0 {
		return s.plan.hot[4*s.rng.Intn(hotTexts/4)+template]
	}
	n := s.misses*s.nclients + s.client
	s.misses++
	return s.plan.request(template, n, ".miss")
}

type servedInst struct {
	base
	plan    *servedPlan
	srv     *server.Server
	clients []*client.Client
	streams []*stream
}

func setupServed(e env) (instance, error) {
	w := &servedInst{base: base{env: e}}
	root := e.tr.op("setup")
	defer e.tr.end(root)
	data := tpch.Generate(e.sf, e.seed)
	w.setTables(data.Tables()...)
	w.plan = newServedPlan(data, e.seed)
	for _, rq := range w.plan.hot {
		w.texts = append(w.texts, rq.text)
	}
	if err := w.loadInMemory(root, true); err != nil {
		return nil, err
	}
	var err error
	sp := e.tr.start(root, "server.Serve")
	w.srv, err = server.Serve("127.0.0.1:0", server.NewColumnarBackend(w.db))
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	for c := 0; c < clients(); c++ {
		cl, err := client.Dial(w.srv.Addr())
		if err != nil {
			return nil, err
		}
		w.clients = append(w.clients, cl)
		w.streams = append(w.streams, w.plan.stream(c, clients()))
	}
	// The hot set is hot: every client has sent it once.
	for _, cl := range w.clients {
		for _, rq := range w.plan.hot {
			if _, _, err := cl.QueryBinary(rq.text); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return w, nil
}

func (w *servedInst) check(rec *recorder) {
	w.checkTexts(rec, true, func(text string) ([]values, error) {
		_, vecs, err := w.clients[0].QueryBinary(text)
		cols := make([]values, len(vecs))
		for i, v := range vecs {
			cols[i] = wireValues(v)
		}
		return cols, err
	})
}

func (w *servedInst) measure(d time.Duration, tr *tracer) *recorder {
	recs := make([]*recorder, len(w.clients))
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range w.clients {
		recs[c] = newRecorder()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				rq := w.streams[c].next()
				root := tr.op(rq.kind)
				t0 := time.Now()
				sp := tr.start(root, "client.QueryBinary")
				_, cols, err := w.clients[c].QueryBinary(rq.text)
				tr.end(sp)
				lat := time.Since(t0)
				tr.end(root)
				if err == nil {
					err = rq.verify(cols)
				}
				recs[c].add(rq.kind, lat, err)
			}
		}()
	}
	wg.Wait()
	for _, r := range recs[1:] {
		recs[0].merge(r)
	}
	return recs[0]
}

func (w *servedInst) release() {
	for _, cl := range w.clients {
		cl.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	w.base.release()
}
