package rowstore

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
	"monetlite/internal/sqlparse"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
)

// RowsResult is a row-major query result (the shape a row-store client API
// yields; converting it to columns is exactly the cost Figure 6 charges
// SQLite for).
type RowsResult struct {
	Cols []string
	Rows [][]mtypes.Value
}

// Query plans and executes one SELECT with the volcano executor.
func (db *DB) Query(sql string) (*RowsResult, error) {
	stmt, err := sqlparse.ParseOne(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("rowstore: Query needs a SELECT")
	}
	q, err := plan.BindSelect(db, sel, nil)
	if err != nil {
		return nil, err
	}
	return db.execute(q.Plan)
}

func (db *DB) execute(n plan.Node) (*RowsResult, error) {
	ex := &volcano{db: db}
	if db.Timeout > 0 {
		ex.deadline = time.Now().Add(db.Timeout)
	}
	it, err := ex.build(n)
	if err != nil {
		return nil, err
	}
	res := &RowsResult{}
	for _, c := range n.Schema() {
		res.Cols = append(res.Cols, c.Name)
	}
	for {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return res, nil
		}
		res.Rows = append(res.Rows, row)
	}
}

// iterator is the volcano tuple-at-a-time interface.
type iterator interface {
	Next() ([]mtypes.Value, bool, error)
}

type volcano struct {
	db       *DB
	deadline time.Time
	ticks    int
}

func (v *volcano) tick() error {
	v.ticks++
	if v.ticks%4096 == 0 && !v.deadline.IsZero() && time.Now().After(v.deadline) {
		return ErrTimeout
	}
	return nil
}

func (v *volcano) evalCtx(row []mtypes.Value) *plan.EvalCtx {
	return &plan.EvalCtx{Row: row, Subquery: func(p plan.Node) (mtypes.Value, error) {
		res, err := v.db.execute(p)
		if err != nil {
			return mtypes.Value{}, err
		}
		if len(res.Rows) == 0 {
			return mtypes.NullValue(mtypes.Varchar), nil
		}
		return res.Rows[0][0], nil
	}}
}

func (v *volcano) build(n plan.Node) (iterator, error) {
	switch x := n.(type) {
	case *plan.Scan:
		return v.buildScan(x)
	case *plan.Filter:
		in, err := v.build(x.Input)
		if err != nil {
			return nil, err
		}
		return &filterIter{v: v, in: in, pred: x.Pred}, nil
	case *plan.Project:
		if x.Input == nil {
			return &constIter{v: v, exprs: x.Exprs}, nil
		}
		in, err := v.build(x.Input)
		if err != nil {
			return nil, err
		}
		return &projectIter{v: v, in: in, exprs: x.Exprs}, nil
	case *plan.Join:
		return v.buildJoin(x)
	case *plan.Aggregate:
		in, err := v.build(x.Input)
		if err != nil {
			return nil, err
		}
		return newAggIter(v, x, in)
	case *plan.Sort:
		in, err := v.build(x.Input)
		if err != nil {
			return nil, err
		}
		return newSortIter(v, x, in)
	case *plan.Limit:
		in, err := v.build(x.Input)
		if err != nil {
			return nil, err
		}
		return &limitIter{in: in, skip: x.Offset, n: x.N}, nil
	case *plan.TopN:
		// The row store has no bounded-heap fast path: evaluate the fused
		// node as its unfused Sort + Limit equivalent. Keeping the tuple-
		// at-a-time baseline naive is the point of the comparison.
		in, err := v.build(x.Input)
		if err != nil {
			return nil, err
		}
		srt, err := newSortIter(v, &plan.Sort{Input: x.Input, Keys: x.Keys}, in)
		if err != nil {
			return nil, err
		}
		return &limitIter{in: srt, skip: x.Offset, n: x.N}, nil
	case *plan.Distinct:
		in, err := v.build(x.Input)
		if err != nil {
			return nil, err
		}
		return &distinctIter{v: v, in: in, seen: map[string]bool{}}, nil
	case *plan.Window:
		return v.buildWindow(x)
	default:
		return nil, fmt.Errorf("rowstore: unsupported node %T", n)
	}
}

// ---------------------------------------------------------------------------
// Scan.
// ---------------------------------------------------------------------------

type scanIter struct {
	v       *volcano
	meta    *storage.TableMeta
	cols    []int
	filters []plan.Expr
	rows    [][]byte // materialized tree payloads (cursor state)
	pos     int
}

func (v *volcano) buildScan(x *plan.Scan) (iterator, error) {
	// Hold the read lock across the tree walk: concurrent writers mutate the
	// tree under the write lock, and per-connection server sessions now run
	// queries concurrently (the old shared backend mutex used to hide this).
	// Payload slices are immutable once inserted, so materializing them here
	// lets Next() run lock-free.
	v.db.mu.RLock()
	defer v.db.mu.RUnlock()
	t, ok := v.db.tables[x.Table]
	if !ok {
		return nil, fmt.Errorf("rowstore: no such table %q", x.Table)
	}
	it := &scanIter{v: v, meta: &t.meta, cols: x.Cols, filters: x.Filters}
	t.tree.Ascend(func(key int64, val []byte) bool {
		it.rows = append(it.rows, val)
		return true
	})
	return it, nil
}

func (s *scanIter) Next() ([]mtypes.Value, bool, error) {
outer:
	for s.pos < len(s.rows) {
		if err := s.v.tick(); err != nil {
			return nil, false, err
		}
		full, err := decodeRow(s.rows[s.pos], s.meta)
		s.pos++
		if err != nil {
			return nil, false, err
		}
		// Project the scan's pruned columns; the full row was still decoded —
		// the row-store tax the paper describes.
		out := make([]mtypes.Value, len(s.cols))
		for i, ci := range s.cols {
			out[i] = full[ci]
		}
		for _, f := range s.filters {
			ok, err := plan.EvalRow(f, s.v.evalCtx(out))
			if err != nil {
				return nil, false, err
			}
			if ok.Null || ok.I == 0 {
				continue outer
			}
		}
		return out, true, nil
	}
	return nil, false, nil
}

// ---------------------------------------------------------------------------
// Filter / Project / Const.
// ---------------------------------------------------------------------------

type filterIter struct {
	v    *volcano
	in   iterator
	pred plan.Expr
}

func (f *filterIter) Next() ([]mtypes.Value, bool, error) {
	for {
		if err := f.v.tick(); err != nil {
			return nil, false, err
		}
		row, ok, err := f.in.Next()
		if err != nil || !ok {
			return nil, ok, err
		}
		keep, err := plan.EvalRow(f.pred, f.v.evalCtx(row))
		if err != nil {
			return nil, false, err
		}
		if !keep.Null && keep.I != 0 {
			return row, true, nil
		}
	}
}

type projectIter struct {
	v     *volcano
	in    iterator
	exprs []plan.Expr
}

func (p *projectIter) Next() ([]mtypes.Value, bool, error) {
	row, ok, err := p.in.Next()
	if err != nil || !ok {
		return nil, ok, err
	}
	out := make([]mtypes.Value, len(p.exprs))
	ctx := p.v.evalCtx(row)
	for i, e := range p.exprs {
		out[i], err = plan.EvalRow(e, ctx)
		if err != nil {
			return nil, false, err
		}
	}
	return out, true, nil
}

type constIter struct {
	v     *volcano
	exprs []plan.Expr
	done  bool
}

func (c *constIter) Next() ([]mtypes.Value, bool, error) {
	if c.done {
		return nil, false, nil
	}
	c.done = true
	out := make([]mtypes.Value, len(c.exprs))
	ctx := c.v.evalCtx(nil)
	var err error
	for i, e := range c.exprs {
		out[i], err = plan.EvalRow(e, ctx)
		if err != nil {
			return nil, false, err
		}
	}
	return out, true, nil
}

// ---------------------------------------------------------------------------
// Join: index-nested-loop style — the build side is materialized into a hash
// keyed by the equi columns (modelling SQLite probing a B-tree index), and
// each outer tuple probes it one at a time.
// ---------------------------------------------------------------------------

type joinIter struct {
	v     *volcano
	x     *plan.Join
	left  iterator
	built map[string][][]mtypes.Value
	// current outer row state
	cur     []mtypes.Value
	matches [][]mtypes.Value
	mi      int
	matched bool
	rWidth  int
}

func (v *volcano) buildJoin(x *plan.Join) (iterator, error) {
	left, err := v.build(x.Left)
	if err != nil {
		return nil, err
	}
	rightIt, err := v.build(x.Right)
	if err != nil {
		return nil, err
	}
	j := &joinIter{v: v, x: x, left: left, built: map[string][][]mtypes.Value{}, rWidth: len(x.Right.Schema())}
	// Materialize and index the right side.
	for {
		row, ok, err := rightIt.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		key, null, err := j.key(x.EquiR, row)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		j.built[key] = append(j.built[key], row)
	}
	return j, nil
}

func (j *joinIter) key(exprs []plan.Expr, row []mtypes.Value) (string, bool, error) {
	key := ""
	ctx := j.v.evalCtx(row)
	for _, e := range exprs {
		v, err := plan.EvalRow(e, ctx)
		if err != nil {
			return "", false, err
		}
		if v.Null {
			return "", true, nil
		}
		if v.Typ.Kind == mtypes.KDecimal {
			// Canonicalize cross-scale decimal keys.
			v = mtypes.NewDouble(v.AsFloat())
		}
		key += v.String() + "\x00"
	}
	return key, false, nil
}

func (j *joinIter) residualOK(combined []mtypes.Value) (bool, error) {
	if j.x.Residual == nil {
		return true, nil
	}
	v, err := plan.EvalRow(j.x.Residual, j.v.evalCtx(combined))
	if err != nil {
		return false, err
	}
	return !v.Null && v.I != 0, nil
}

func (j *joinIter) Next() ([]mtypes.Value, bool, error) {
	for {
		if err := j.v.tick(); err != nil {
			return nil, false, err
		}
		// Emit pending matches of the current outer row.
		for j.cur != nil && j.mi < len(j.matches) {
			r := j.matches[j.mi]
			j.mi++
			combined := append(append([]mtypes.Value{}, j.cur...), r...)
			ok, err := j.residualOK(combined)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue
			}
			j.matched = true
			switch j.x.Kind {
			case plan.JoinSemi:
				cur := j.cur
				j.cur = nil
				return cur, true, nil
			case plan.JoinAnti:
				j.mi = len(j.matches) // no more needed
			default:
				return combined, true, nil
			}
		}
		// Outer row exhausted: left-outer/anti epilogue.
		if j.cur != nil {
			cur := j.cur
			matched := j.matched
			j.cur = nil
			if j.x.Kind == plan.JoinAnti && !matched {
				return cur, true, nil
			}
			if j.x.Kind == plan.JoinLeft && !matched {
				out := append(append([]mtypes.Value{}, cur...), make([]mtypes.Value, j.rWidth)...)
				for i := len(cur); i < len(out); i++ {
					out[i] = mtypes.NullValue(mtypes.Varchar)
				}
				return out, true, nil
			}
		}
		// Advance the outer side.
		row, ok, err := j.left.Next()
		if err != nil || !ok {
			return nil, ok, err
		}
		j.cur = row
		j.matched = false
		j.mi = 0
		key, null, err := j.key(j.x.EquiL, row)
		if err != nil {
			return nil, false, err
		}
		if null {
			j.matches = nil
		} else {
			j.matches = j.built[key]
		}
	}
}

// ---------------------------------------------------------------------------
// Aggregate (hash aggregation, tuple at a time).
// ---------------------------------------------------------------------------

type aggState struct {
	keys   []mtypes.Value
	sums   []float64
	isums  []int64
	ihis   []int64 // carry words of isums
	counts []int64
	mins   []mtypes.Value
	maxs   []mtypes.Value
	all    [][]float64 // median buckets
	rows   int64
	seen   []map[string]bool // distinct sets
}

type aggIter struct {
	out [][]mtypes.Value
	pos int
}

func (a *aggIter) Next() ([]mtypes.Value, bool, error) {
	if a.pos >= len(a.out) {
		return nil, false, nil
	}
	r := a.out[a.pos]
	a.pos++
	return r, true, nil
}

func newAggIter(v *volcano, x *plan.Aggregate, in iterator) (iterator, error) {
	groups := map[string]*aggState{}
	var order []string
	na := len(x.Aggs)
	for {
		row, ok, err := in.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := v.tick(); err != nil {
			return nil, err
		}
		ctx := v.evalCtx(row)
		key := ""
		keyVals := make([]mtypes.Value, len(x.GroupBy))
		for i, g := range x.GroupBy {
			kv, err := plan.EvalRow(g, ctx)
			if err != nil {
				return nil, err
			}
			keyVals[i] = kv
			key += kv.String() + "\x00"
		}
		st := groups[key]
		if st == nil {
			st = &aggState{
				keys: keyVals, sums: make([]float64, na), isums: make([]int64, na), ihis: make([]int64, na),
				counts: make([]int64, na), mins: make([]mtypes.Value, na),
				maxs: make([]mtypes.Value, na), all: make([][]float64, na),
				seen: make([]map[string]bool, na),
			}
			for i := range st.mins {
				st.mins[i] = mtypes.NullValue(mtypes.Int)
				st.maxs[i] = mtypes.NullValue(mtypes.Int)
			}
			groups[key] = st
			order = append(order, key)
		}
		st.rows++
		for ai, a := range x.Aggs {
			if a.Arg == nil {
				continue
			}
			av, err := plan.EvalRow(a.Arg, ctx)
			if err != nil {
				return nil, err
			}
			if av.Null {
				continue
			}
			if a.Distinct {
				if st.seen[ai] == nil {
					st.seen[ai] = map[string]bool{}
				}
				if st.seen[ai][av.String()] {
					continue
				}
				st.seen[ai][av.String()] = true
			}
			st.counts[ai]++
			st.sums[ai] += av.AsFloat()
			// Integer sums carry into a high word: exact over any input.
			lo, c := bits.Add64(uint64(st.isums[ai]), uint64(av.I), 0)
			st.isums[ai] = int64(lo)
			st.ihis[ai] += int64(c) + av.I>>63
			if st.mins[ai].Null || mtypes.Compare(av, st.mins[ai]) < 0 {
				st.mins[ai] = av
			}
			if st.maxs[ai].Null || mtypes.Compare(av, st.maxs[ai]) > 0 {
				st.maxs[ai] = av
			}
			st.all[ai] = append(st.all[ai], av.AsFloat())
		}
	}
	if len(x.GroupBy) == 0 && len(order) == 0 {
		// SQL: global aggregates over empty input produce one row.
		groups[""] = &aggState{
			sums: make([]float64, na), isums: make([]int64, na), ihis: make([]int64, na),
			counts: make([]int64, na), mins: nullVals(na), maxs: nullVals(na),
			all: make([][]float64, na), seen: make([]map[string]bool, na),
		}
		order = append(order, "")
	}
	sch := x.Schema()
	it := &aggIter{}
	for _, key := range order {
		st := groups[key]
		row := make([]mtypes.Value, 0, len(x.GroupBy)+na)
		row = append(row, st.keys...)
		for ai, a := range x.Aggs {
			rt := sch[len(x.GroupBy)+ai].Typ
			if (a.Kind == vec.AggSum || a.Kind == vec.AggAvg) && a.Arg.Type().Kind != mtypes.KDouble &&
				st.counts[ai] > 0 && (st.ihis[ai] != st.isums[ai]>>63 || st.isums[ai] == mtypes.NullInt64) {
				return nil, fmt.Errorf("rowstore: %s: %w", a.Kind, mtypes.ErrOverflow)
			}
			var out mtypes.Value
			switch a.Kind {
			case vec.AggCount:
				out = mtypes.NewInt(mtypes.BigInt, st.counts[ai])
			case vec.AggCountStar:
				out = mtypes.NewInt(mtypes.BigInt, st.rows)
			case vec.AggSum:
				if st.counts[ai] == 0 {
					out = mtypes.NullValue(rt)
				} else if rt.Kind == mtypes.KDouble {
					out = mtypes.NewDouble(st.sums[ai])
				} else {
					out = mtypes.Value{Typ: rt, I: st.isums[ai]}
				}
			case vec.AggAvg:
				if st.counts[ai] == 0 {
					out = mtypes.NullValue(rt)
				} else {
					out = mtypes.NewDouble(st.sums[ai] / float64(st.counts[ai]))
				}
			case vec.AggMin:
				out = st.mins[ai]
				out.Typ = rt
			case vec.AggMax:
				out = st.maxs[ai]
				out.Typ = rt
			case vec.AggMedian:
				out = medianValue(st.all[ai])
			}
			row = append(row, out)
		}
		it.out = append(it.out, row)
	}
	return it, nil
}

func nullVals(n int) []mtypes.Value {
	out := make([]mtypes.Value, n)
	for i := range out {
		out[i] = mtypes.NullValue(mtypes.Int)
	}
	return out
}

func medianValue(vals []float64) mtypes.Value {
	if len(vals) == 0 {
		return mtypes.NullValue(mtypes.Double)
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return mtypes.NewDouble(vals[mid])
	}
	return mtypes.NewDouble((vals[mid-1] + vals[mid]) / 2)
}

// ---------------------------------------------------------------------------
// Sort / Limit / Distinct.
// ---------------------------------------------------------------------------

type sliceIter struct {
	rows [][]mtypes.Value
	pos  int
}

func (s *sliceIter) Next() ([]mtypes.Value, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

func newSortIter(v *volcano, x *plan.Sort, in iterator) (iterator, error) {
	var rows [][]mtypes.Value
	for {
		row, ok, err := in.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	keyVals := make([][]mtypes.Value, len(rows))
	for i, row := range rows {
		ks := make([]mtypes.Value, len(x.Keys))
		ctx := v.evalCtx(row)
		for k, key := range x.Keys {
			kv, err := plan.EvalRow(key.E, ctx)
			if err != nil {
				return nil, err
			}
			ks[k] = kv
		}
		keyVals[i] = ks
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for k, key := range x.Keys {
			c := mtypes.Compare(keyVals[idx[a]][k], keyVals[idx[b]][k])
			if c == 0 {
				continue
			}
			if key.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := make([][]mtypes.Value, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return &sliceIter{rows: out}, nil
}

type limitIter struct {
	in      iterator
	skip, n int64
	emitted int64
}

func (l *limitIter) Next() ([]mtypes.Value, bool, error) {
	for l.skip > 0 {
		_, ok, err := l.in.Next()
		if err != nil || !ok {
			return nil, ok, err
		}
		l.skip--
	}
	if l.emitted >= l.n {
		return nil, false, nil
	}
	row, ok, err := l.in.Next()
	if err != nil || !ok {
		return nil, ok, err
	}
	l.emitted++
	return row, true, nil
}

type distinctIter struct {
	v    *volcano
	in   iterator
	seen map[string]bool
}

func (d *distinctIter) Next() ([]mtypes.Value, bool, error) {
	for {
		row, ok, err := d.in.Next()
		if err != nil || !ok {
			return nil, ok, err
		}
		key := ""
		for _, v := range row {
			key += v.String() + "\x00"
		}
		if d.seen[key] {
			continue
		}
		d.seen[key] = true
		return row, true, nil
	}
}
