package exec

import (
	"fmt"
	"slices"
	"sort"

	"monetlite/internal/index"
	"monetlite/internal/mal"
	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
	"monetlite/internal/vec"
)

// execScan evaluates a scan with its pushed filters. Selection runs over the
// base columns with candidate lists, each conjunct through applyScanFilter's
// one access path (encoded domain, then an index, then the rows). The scan's
// output is a selection view — the base columns plus the surviving row ids —
// not a filtered copy: a column is gathered only where it is read, downstream.
// Mitosis (paper Figure 2) splits a filtered scan into chunks (no
// memory budget: chunk windows are views and tasks emit only row ids) and
// concatenates the per-chunk candidate lists in chunk order (bat.mergecand);
// one chunk is the serial scan.
func (e *Engine) execScan(x *plan.Scan) (*batch, error) {
	src, ok := e.Cat.Source(x.Table)
	if !ok {
		return nil, fmt.Errorf("exec: no such table %q", x.Table)
	}
	nrows := src.NumRows()
	e.Trace.Emit("sql.bind", x.Table, fmt.Sprintf("%d cols", len(x.Cols)))
	if sf := e.sideways; sf != nil && sf.scan == x {
		// A copy: the cached plan is shared and never changed.
		withKeys := *x
		withKeys.Filters = sf.filters
		x = &withKeys
	}

	cp := mal.ChunkPlan{Chunks: 1, Rows: nrows}
	if len(x.Filters) > 0 {
		// An unfiltered scan produces no candidate list — nothing to split.
		cp = e.chunkPlan(nrows, mal.MinChunkRows, 0)
	}
	encs := e.scanEncoded(x, src)
	cols, err := scanCols(x, src)
	if err != nil {
		return nil, err
	}
	if cp.Chunks > 1 {
		e.Trace.EmitVoid("optimizer.mitosis", fmt.Sprintf("%d chunks (scan)", cp.Chunks))
	}
	lists := make([][]int32, cp.Chunks) // relative to each chunk's window; nil = every row passed
	errs := make([]error, cp.Chunks)
	err = e.runTasks(cp.Chunks, func(ci int) {
		lo, hi := cp.Bounds(ci, nrows)
		lists[ci], _, errs[ci] = e.chunkEngine(cp.Chunks).scanRange(x, src, cols, lo, hi)
	})
	if err == nil {
		err = firstErr(errs)
	}
	if err != nil {
		return nil, err
	}
	sel := mergeCands(lists, cp, nrows)
	if cp.Chunks > 1 && sel != nil {
		e.Trace.Emit("bat.mergecand", fmt.Sprintf("%d cands", len(sel)))
	}
	b := viewBatch(cols, sel, nrows)
	b.enc = encs
	return b, nil
}

// firstErr returns the first non-nil error of errs, the chunks' own
// failures.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// scanCols loads the scanned columns, sliced to the snapshot row count: the
// stored vector may extend past this version's visible rows (storage's
// append contract).
func scanCols(x *plan.Scan, src TableSource) ([]*vec.Vector, error) {
	cols := make([]*vec.Vector, len(x.Cols))
	for i, ci := range x.Cols {
		full, err := src.Col(ci)
		if err != nil {
			return nil, err
		}
		cols[i] = full.Slice(0, src.NumRows())
	}
	return cols, nil
}

// mergeCands merges the chunks' window-relative candidate lists into one
// list of table rows (bat.mergecand): nil when every chunk kept every row,
// otherwise a chunk that did stands for all rows of its window.
func mergeCands(lists [][]int32, cp mal.ChunkPlan, nrows int) []int32 {
	all := true
	for _, l := range lists {
		all = all && l == nil
	}
	if all {
		return nil
	}
	for ci, l := range lists {
		if l == nil {
			lo, hi := cp.Bounds(ci, nrows)
			lists[ci] = vec.Range(hi - lo)
		}
	}
	return concatChunks(lists, int32(cp.Rows))
}

// window returns rows [lo, hi) of equally long vectors: the vectors
// themselves when they hold exactly those rows (a lone chunk), else slices.
func window(vs []*vec.Vector, lo, hi int) []*vec.Vector {
	if len(vs) == 0 || lo == 0 && vs[0].Len() == hi {
		return vs
	}
	out := make([]*vec.Vector, len(vs))
	for i, v := range vs {
		out[i] = v.Slice(lo, hi)
	}
	return out
}

// concatChunks concatenates per-chunk row lists in chunk order, shifting
// chunk ci's entries by ci*stride (its first row, for lists relative to a
// chunk's window; 0 for lists already in table rows). Chunk 0 needs no
// shift, so its list is the prefix as is and a lone chunk's list is
// returned uncopied.
func concatChunks(lists [][]int32, stride int32) []int32 {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := slices.Grow(slices.Clip(lists[0]), total-len(lists[0]))
	for ci, l := range lists[1:] {
		out = appendRebased(out, l, int32(ci+1)*stride)
	}
	return out
}

// scanEncoded collects the compressed forms of the scanned columns (nil when
// none is encoded) and emits one coordinator-level trace line naming them —
// chunk engines have no trace, so this is where encoded execution becomes
// visible in EXPLAIN output.
func (e *Engine) scanEncoded(x *plan.Scan, src TableSource) []*vec.Encoded {
	var encs []*vec.Encoded
	desc := ""
	for i, ci := range x.Cols {
		en := src.EncodedCol(ci)
		if en == nil || en.N < src.NumRows() {
			// A batch-wide encoding must cover every visible row; one that
			// stops short (an unmerged append-delta) still serves the scan's
			// filters (selectDomain), but downstream operators (group-by on
			// codes, sort by code) need full coverage.
			continue
		}
		if encs == nil {
			encs = make([]*vec.Encoded, len(x.Cols))
		}
		encs[i] = en
		if desc != "" {
			desc += " "
		}
		desc += src.Meta().Cols[ci].Name + "=" + en.Describe()
	}
	if encs != nil {
		e.Trace.EmitVoid("optimizer.encoding", desc)
	}
	return encs
}

// scanRange computes the candidate list of rows in [lo, hi) passing all scan
// filters over cols (scanCols' full-width columns), and returns the columns'
// windows [lo, hi) it filtered. When cands == nil every row in the window
// qualifies; candidates are relative to lo.
func (e *Engine) scanRange(x *plan.Scan, src TableSource, cols []*vec.Vector, lo, hi int) ([]int32, []*vec.Vector, error) {
	win := window(cols, lo, hi)
	// Deleted rows (rebased into the chunk window).
	var cands []int32
	if live := src.LiveCands(); live != nil {
		cands = make([]int32, 0, hi-lo)
		for _, r := range live {
			if int(r) >= lo && int(r) < hi {
				cands = append(cands, r-int32(lo))
			}
		}
	}
	for _, f := range x.Filters {
		// Per-conjunct interrupt check: in a mitosis scan each chunk worker
		// passes through here, so a cancelled query stops within one
		// chunk-conjunct of work.
		if err := e.checkInterrupt(); err != nil {
			return nil, nil, err
		}
		tested := vec.NumCands(hi-lo, cands)
		var err error
		cands, err = e.applyScanFilter(x, src, f, win, cands, lo, hi)
		if err != nil {
			return nil, nil, err
		}
		if sf, ok := f.(*sidewaysFilter); ok {
			sf.tested.Add(int64(tested))
			sf.kept.Add(int64(vec.NumCands(hi-lo, cands)))
		}
		if cands != nil && len(cands) == 0 {
			break
		}
	}
	return cands, win, nil
}

// applyScanFilter applies one conjunct over the scan window [rowLo, rowHi)
// by the one access path every scan conjunct takes: over an encoded column's
// value domain when that is smaller than the rows it would test
// (selectDomain), else through an index when the conjunct is a column
// predicate one answers over the whole table (indexSelect), else row by row
// (refineFilter), so the scan path and the post-scan Filter path share one
// candidate-list representation.
func (e *Engine) applyScanFilter(x *plan.Scan, src TableSource, f plan.Expr, cols []*vec.Vector, cands []int32, rowLo, rowHi int) ([]int32, error) {
	enc := func(slot int) *vec.Encoded { return src.EncodedCol(x.Cols[slot]) }
	if sel, ok, err := e.selectDomain(enc, f, cols, cands, rowLo, rowHi); ok || err != nil {
		return sel, err
	}
	if p, ok := matchColPred(f); ok && !e.NoIndexes && rowLo == 0 && rowHi == src.NumRows() {
		if sel, ok, err := e.indexSelect(src, x.Cols[p.slot], cols[p.slot], p, cands); ok || err != nil {
			return sel, err
		}
	}
	return e.refineFilter(f, cols, rowHi-rowLo, cands)
}

// colPred is a conjunct that sets one column against constants: col op val,
// where val is a constant or a scalar subquery (evaluated when the conjunct
// runs) and val op col is flipped into this form, or col BETWEEN lo AND hi
// with constant bounds.
type colPred struct {
	slot           int
	op             vec.CmpOp
	val            plan.Expr // *plan.Const or *plan.SubplanExpr; nil for BETWEEN
	lo, hi         mtypes.Value
	loIncl, hiIncl bool
}

// matchColPred recognizes a column predicate, the one shape the selection
// kernels, the indexes and conjunctRank all serve.
func matchColPred(f plan.Expr) (colPred, bool) {
	switch x := f.(type) {
	case *plan.BinOp:
		if x.Kind != plan.BinCmp {
			break
		}
		if cr, ok := x.L.(*plan.ColRef); ok && isValue(x.R) {
			return colPred{slot: cr.Slot, op: x.Cmp, val: x.R}, true
		}
		if cr, ok := x.R.(*plan.ColRef); ok && isValue(x.L) {
			return colPred{slot: cr.Slot, op: x.Cmp.Flip(), val: x.L}, true
		}
	case *plan.BetweenExpr:
		if cr, ok := x.E.(*plan.ColRef); ok && !x.Not {
			if lo, hi, ok := constBounds(x); ok {
				return colPred{slot: cr.Slot, lo: lo, hi: hi, loIncl: !x.LoExcl, hiIncl: !x.HiExcl}, true
			}
		}
	}
	return colPred{}, false
}

// isValue reports whether a comparison operand is one value per query: a
// constant or a scalar subquery.
func isValue(x plan.Expr) bool {
	switch x.(type) {
	case *plan.Const, *plan.SubplanExpr:
		return true
	}
	return false
}

// value returns a comparison's operand: its constant, or its scalar
// subquery's result (evaluated once per query).
func (e *Engine) value(p colPred) (mtypes.Value, error) {
	if c, ok := p.val.(*plan.Const); ok {
		return c.Val, nil
	}
	return e.evalSubplan(p.val.(*plan.SubplanExpr))
}

// predIndex returns the index that answers p on table column ci: the hash
// index for an equality, the order index for a one-sided comparison or a
// range. Both are nil when there is none.
func predIndex(src TableSource, ci int, p colPred) (*index.HashIndex, *index.OrderIndex) {
	switch {
	case p.val == nil:
		return nil, src.OrderIdx(ci)
	case p.op == vec.CmpEq:
		return src.HashIdx(ci), nil
	case p.op == vec.CmpNe:
		return nil, nil
	}
	return nil, src.OrderIdx(ci)
}

// indexSelect answers column predicate p on table column ci, col, through
// its index (predIndex), on a full scan only: the indexes hold table-global
// row ids. ok is false when no index serves p. The hash index may stop at
// the merged base; the append-delta tail past it is scanned raw. An order
// index covers every row of the snapshot it is served for.
func (e *Engine) indexSelect(src TableSource, ci int, col *vec.Vector, p colPred, cands []int32) ([]int32, bool, error) {
	h, oi := predIndex(src, ci, p)
	if h == nil && oi == nil {
		return nil, false, nil
	}
	if p.val == nil {
		e.Trace.Emit("algebra.rangeselect", "orderidx")
		return vec.Intersect(cands, oi.SelectRange(col, p.lo, p.hi, p.loIncl, p.hiIncl)), true, nil
	}
	val, err := e.value(p)
	if err != nil || val.Null {
		return nil, false, err
	}
	if oi != nil {
		e.Trace.Emit("algebra.select", "orderidx")
		return vec.Intersect(cands, oi.SelectCmp(col, p.op, val)), true, nil
	}
	key, ok := indexKey(col, val)
	if !ok {
		return nil, false, nil
	}
	e.Trace.Emit("algebra.select", "hashidx")
	rows := h.Lookup(key)
	// Never nil: an absent key means zero matches, and a nil candidate list
	// would mean "all rows" to Intersect.
	sorted := append(make([]int32, 0, len(rows)), rows...)
	slices.Sort(sorted)
	if hr := h.Rows(); hr < col.Len() {
		tail := vec.SelCmp(col.Slice(hr, col.Len()), vec.CmpEq, val, nil)
		sorted = appendRebased(sorted, tail, int32(hr))
	}
	return vec.Intersect(cands, sorted), true, nil
}

// selectDomain evaluates a conjunct that reads exactly one column — encoded,
// per enc(slot), over the start of the window — once per entry of the
// column's value domain (vec.Encoded.Domain: every dict or FOR code with code
// 0 as NULL, or every run in the window), with the same refineFilter the rows
// would run, so every predicate shape selects exactly the rows the raw path
// does while running per distinct value instead of per row; the rows whose
// code or run matched are selected. Only this function's algebra.select line
// is traced. It declines (ok=false) when the domain has more entries than the
// rows the conjunct would otherwise test, or when evaluating it fails — the
// domain may hold values no candidate row has, and only the rows decide
// whether the query errs. Rows past the encoding's end (an unmerged
// append-delta) run through refineFilter.
func (e *Engine) selectDomain(enc func(slot int) *vec.Encoded, f plan.Expr, cols []*vec.Vector, cands []int32, rowLo, rowHi int) ([]int32, bool, error) {
	slot, ok := conjunctSlot(f)
	if _, keys := f.(*sidewaysFilter); !ok || keys && cands != nil {
		// A key test per candidate costs less than walking the candidates
		// through the domain's codes or runs.
		return nil, false, nil
	}
	en := enc(slot)
	if en == nil || en.N <= rowLo {
		return nil, false, nil
	}
	encHi := min(rowHi, en.N)
	below, above := splitCands(cands, int32(encHi-rowLo))
	dom := en.Domain(rowLo, encHi, vec.NumCands(encHi-rowLo, below))
	if dom == nil {
		return nil, false, nil
	}
	domCols := make([]*vec.Vector, slot+1)
	domCols[slot] = dom
	match, err := e.untraced().refineFilter(f, domCols, dom.Len(), nil)
	if err != nil {
		return nil, false, nil
	}
	e.Trace.Emit("algebra.select", "encoded "+en.Describe(), fmt.Sprintf("domain %d", dom.Len()))
	sel := en.SelDomain(match, below, rowLo, encHi)
	if encHi < rowHi {
		tailCols := make([]*vec.Vector, len(cols))
		tailCols[slot] = cols[slot].Slice(encHi-rowLo, rowHi-rowLo)
		tail, err := e.refineFilter(f, tailCols, rowHi-encHi, above)
		if err != nil {
			return nil, false, err
		}
		sel = appendRebased(sel, tail, int32(encHi-rowLo))
	}
	return sel, true, nil
}

// refineFilter applies one filter conjunct under the current candidate list,
// returning the refined list — the shared core of scan filtering and the
// Filter operator. cols are full-width (width rows); cands is the usual
// nil-means-all selection. Recognized shapes route to the cands-aware
// selection kernels in vec: a column predicate (matchColPred) to SelCmp or
// SelRange, a comparison of two columns to SelColumns; tautological and
// contradictory constants short-circuit without touching any column; the
// general fallback evaluates the predicate densely over the survivors only
// (memo under the candidate list) and select-trues the aligned boolean
// vector.
func (e *Engine) refineFilter(f plan.Expr, cols []*vec.Vector, width int, cands []int32) ([]int32, error) {
	if p, ok := matchColPred(f); ok {
		col := cols[p.slot]
		if p.val == nil {
			e.Trace.Emit("algebra.rangeselect")
			return vec.SelRange(col, p.lo, p.hi, p.loIncl, p.hiIncl, cands), nil
		}
		val, err := e.value(p)
		if err != nil {
			return nil, err
		}
		e.Trace.Emit("algebra.thetaselect", p.op.String())
		return vec.SelCmp(col, p.op, val, cands), nil
	}
	switch p := f.(type) {
	case *sidewaysFilter:
		e.Trace.Emit("algebra.select", "keys", p.keys.Describe())
		return p.keys.Select(cols[p.slot], cands), nil
	case *plan.Const:
		if !p.Val.Null && p.Val.I != 0 {
			// Tautology: every current candidate survives, nothing to do.
			e.Trace.Emit("algebra.select", "const", "all")
			return cands, nil
		}
		// Contradiction (FALSE or NULL): empty — but never nil, which would
		// mean "all rows".
		e.Trace.Emit("algebra.select", "const", "none")
		return []int32{}, nil
	case *plan.BinOp:
		if p.Kind == plan.BinCmp {
			l, lok := p.L.(*plan.ColRef)
			r, rok := p.R.(*plan.ColRef)
			if lok && rok {
				if sel, ok := vec.SelColumns(p.Cmp, cols[l.Slot], cols[r.Slot], cands); ok {
					e.Trace.Emit("algebra.thetaselect", p.Cmp.String(), "columns")
					return sel, nil
				}
			}
		}
	case *plan.LikeExpr:
		if cr, ok := p.E.(*plan.ColRef); ok {
			e.Trace.Emit("algebra.likeselect", p.Pattern)
			if prefix, isPrefix := plan.LikePrefix(p.Pattern); isPrefix && !p.Not {
				// Prefix LIKE becomes a range select [prefix, prefix+0xFF).
				loV := mtypes.NewString(prefix)
				hiV := mtypes.NewString(prefix + "\xff\xff\xff\xff")
				return vec.SelRange(cols[cr.Slot], loV, hiV, true, true, cands), nil
			}
			pat := p.Pattern
			not := p.Not
			return vec.SelString(cols[cr.Slot], func(s string) bool {
				return plan.MatchLike(s, pat) != not
			}, cands), nil
		}
	case *plan.InListExpr:
		if cr, ok := p.E.(*plan.ColRef); ok && !p.Not {
			e.Trace.Emit("algebra.inselect")
			return vec.SelIn(cols[cr.Slot], p.Vals, cands), nil
		}
	case *plan.IsNullExpr:
		if cr, ok := p.E.(*plan.ColRef); ok {
			if p.Not {
				return vec.SelNotNull(cols[cr.Slot], cands), nil
			}
			return vec.SelNull(cols[cr.Slot], cands), nil
		}
	}
	// General predicate: dense boolean evaluation under the candidate list
	// (survivors only), then select-true on the aligned result.
	bv, err := newMemo(e).evalVec(f, viewBatch(cols, cands, width))
	if err != nil {
		return nil, err
	}
	e.Trace.Emit("algebra.thetaselect")
	return vec.SelTrue(bv, cands), nil
}

// splitCands splits a window-relative candidate list at pivot: below keeps
// candidates < pivot in place, above holds candidates >= pivot rebased to
// the tail (c - pivot). A nil list (= all rows) splits into nil, nil; a
// non-nil list always yields non-nil halves, so an exhausted side stays an
// explicit empty list rather than turning into "all rows".
func splitCands(cands []int32, pivot int32) (below, above []int32) {
	if cands == nil {
		return nil, nil
	}
	i := sort.Search(len(cands), func(j int) bool { return cands[j] >= pivot })
	below = cands[:i:i]
	above = make([]int32, len(cands)-i)
	for j, c := range cands[i:] {
		above[j] = c - pivot
	}
	return below, above
}

// appendRebased appends tail-relative candidates to dst shifted back into
// window coordinates. The tail list must be explicit (the raw kernels never
// return nil).
func appendRebased(dst, tail []int32, off int32) []int32 {
	for _, c := range tail {
		dst = append(dst, c+off)
	}
	return dst
}

// indexKey converts a constant to the key col's hash index holds for it:
// col's physical value (vec.CoerceConst), or a DOUBLE for a DOUBLE column.
// ok is false when col's domain cannot hold the constant exactly; the
// selection kernel, which compares it as a double, decides then.
func indexKey(col *vec.Vector, val mtypes.Value) (mtypes.Value, bool) {
	if col.Typ.Kind == mtypes.KDouble {
		return mtypes.NewDouble(val.AsFloat()), true
	}
	key := vec.CoerceConst(col, val)
	return key, key.Typ.Kind != mtypes.KDouble
}
