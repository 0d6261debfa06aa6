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
// base columns with candidate lists; indexable predicates (point/range on a
// column) go through imprints or the order index when available. The scan's
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
	skip0, tot0 := e.imprintsCounters()
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
	if cp.Chunks > 1 {
		e.emitImprintsDelta(skip0, tot0)
		if sel != nil {
			e.Trace.Emit("bat.mergecand", fmt.Sprintf("%d cands", len(sel)))
		}
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

// imprintsCounters snapshots the per-query imprint pruning totals; paired
// with emitImprintsDelta it lets the coordinator report pruning that chunk
// workers (which have no trace) performed.
func (e *Engine) imprintsCounters() (skipped, total int64) {
	if e.stats == nil {
		return 0, 0
	}
	return e.stats.imprintsBlocksSkipped.Load(), e.stats.imprintsBlocksTotal.Load()
}

func (e *Engine) emitImprintsDelta(skip0, tot0 int64) {
	skip1, tot1 := e.imprintsCounters()
	if tot1 > tot0 {
		e.Trace.Emit("algebra.rangeselect", "imprints",
			fmt.Sprintf("%d/%d blocks skipped (parallel)", skip1-skip0, tot1-tot0))
	}
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
		var err error
		cands, err = e.applyScanFilter(x, src, f, win, cands, lo, hi)
		if err != nil {
			return nil, nil, err
		}
		if cands != nil && len(cands) == 0 {
			break
		}
	}
	return cands, win, nil
}

// applyScanFilter applies one conjunct over the scan window [rowLo, rowHi).
// A one-column conjunct on an encoded column runs over the column's value
// domain when that is smaller than the rows it would test (selectDomain);
// otherwise the predicate shapes indexes understand get secondary-index
// acceleration (hash/order indexes, imprints), and everything else delegates
// to refineFilter, so the scan path and the post-scan Filter path share one
// candidate-list representation.
func (e *Engine) applyScanFilter(x *plan.Scan, src TableSource, f plan.Expr, cols []*vec.Vector, cands []int32, rowLo, rowHi int) ([]int32, error) {
	enc := func(slot int) *vec.Encoded { return src.EncodedCol(x.Cols[slot]) }
	if sel, ok, err := e.selectDomain(enc, f, cols, cands, rowLo, rowHi); ok || err != nil {
		return sel, err
	}
	switch p := f.(type) {
	case *plan.BinOp:
		if p.Kind == plan.BinCmp {
			if cr, ok := p.L.(*plan.ColRef); ok {
				if c, ok := p.R.(*plan.Const); ok {
					return e.selectCmp(x, src, cols, cr, p.Cmp, c.Val, cands, rowLo, rowHi)
				}
				if sp, ok := p.R.(*plan.SubplanExpr); ok {
					v, err := e.evalSubplan(sp)
					if err != nil {
						return nil, err
					}
					return e.selectCmp(x, src, cols, cr, p.Cmp, v, cands, rowLo, rowHi)
				}
			}
			if cr, ok := p.R.(*plan.ColRef); ok {
				if c, ok := p.L.(*plan.Const); ok {
					return e.selectCmp(x, src, cols, cr, p.Cmp.Flip(), c.Val, cands, rowLo, rowHi)
				}
			}
		}
	case *plan.BetweenExpr:
		if cr, ok := p.E.(*plan.ColRef); ok && !p.Not {
			if lo, hi, ok := constBounds(p); ok {
				return e.selectRange(x, src, cols, cr, lo, hi, !p.LoExcl, !p.HiExcl, cands, rowLo, rowHi)
			}
		}
	}
	return e.refineFilter(f, cols, rowHi-rowLo, cands)
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
	used := map[int]bool{}
	plan.SlotsUsed(f, used)
	if len(used) != 1 {
		return nil, false, nil
	}
	var slot int
	for s := range used {
		slot = s
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
// selection kernels in vec, a comparison of two columns included (read in
// place by vec.SelColumns); tautological and contradictory constants
// short-circuit without touching any column; the general fallback evaluates
// the predicate densely over the survivors only (memo under the candidate
// list) and select-trues the aligned boolean vector.
func (e *Engine) refineFilter(f plan.Expr, cols []*vec.Vector, width int, cands []int32) ([]int32, error) {
	switch p := f.(type) {
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
			if cr, ok := p.L.(*plan.ColRef); ok {
				if c, ok := p.R.(*plan.Const); ok {
					e.Trace.Emit("algebra.thetaselect", p.Cmp.String())
					return vec.SelCmp(cols[cr.Slot], p.Cmp, c.Val, cands), nil
				}
				if r, ok := p.R.(*plan.ColRef); ok {
					if sel, ok := vec.SelColumns(p.Cmp, cols[cr.Slot], cols[r.Slot], cands); ok {
						e.Trace.Emit("algebra.thetaselect", p.Cmp.String(), "columns")
						return sel, nil
					}
				}
				if sp, ok := p.R.(*plan.SubplanExpr); ok {
					v, err := e.evalSubplan(sp)
					if err != nil {
						return nil, err
					}
					e.Trace.Emit("algebra.thetaselect", p.Cmp.String())
					return vec.SelCmp(cols[cr.Slot], p.Cmp, v, cands), nil
				}
			}
			if cr, ok := p.R.(*plan.ColRef); ok {
				if c, ok := p.L.(*plan.Const); ok {
					e.Trace.Emit("algebra.thetaselect", p.Cmp.Flip().String())
					return vec.SelCmp(cols[cr.Slot], p.Cmp.Flip(), c.Val, cands), nil
				}
			}
		}
	case *plan.BetweenExpr:
		if cr, ok := p.E.(*plan.ColRef); ok && !p.Not {
			if lo, hi, ok := constBounds(p); ok {
				e.Trace.Emit("algebra.rangeselect")
				return vec.SelRange(cols[cr.Slot], lo, hi, !p.LoExcl, !p.HiExcl, cands), nil
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
	return vec.SelTrue(bv, cands, true), nil
}

// selectCmp runs a comparison select over the scan window [rowLo, rowHi),
// preferring the hash index for equality (full scans only — its row lists
// are table-global) and the order index / imprints for ranges. Imprints
// prune at cache-line-block granularity, so they also apply to mitosis chunk
// windows: blocks overlapping the window are tested against the predicate's
// bin mask and skipped wholesale when they cannot match.
func (e *Engine) selectCmp(x *plan.Scan, src TableSource, cols []*vec.Vector, cr *plan.ColRef, op vec.CmpOp, val mtypes.Value, cands []int32, rowLo, rowHi int) ([]int32, error) {
	col := cols[cr.Slot]
	tableCol := x.Cols[cr.Slot]
	fullScan := rowLo == 0 && rowHi == src.NumRows()
	if !e.NoIndexes && !val.Null {
		switch op {
		case vec.CmpEq:
			if key, ok := indexKey(col, val); ok && fullScan {
				if h := src.HashIdx(tableCol); h != nil {
					e.Trace.Emit("algebra.select", "hashidx")
					rows := h.Lookup(key)
					// Never nil: an absent key means zero matches, and a nil
					// candidate list would mean "all rows" to Intersect.
					sorted := append(make([]int32, 0, len(rows)), rows...)
					slices.Sort(sorted)
					if hr := h.Rows(); hr < rowHi {
						// The index stops at the merged base; raw-scan the
						// append-delta tail (already sorted above any entry).
						tail := vec.SelCmp(col.Slice(hr, rowHi), op, val, nil)
						sorted = appendRebased(sorted, tail, int32(hr))
					}
					return vec.Intersect(cands, sorted), nil
				}
			}
		case vec.CmpLt, vec.CmpLe, vec.CmpGt, vec.CmpGe:
			lo, hi, loI, hiI := openRange(col.Typ, op, val)
			if fullScan {
				if oi := src.OrderIdx(tableCol); oi != nil {
					e.Trace.Emit("algebra.select", "orderidx")
					return vec.Intersect(cands, oi.SelectRange(col, lo, hi, loI, hiI)), nil
				}
			}
			if im := src.Imprints(tableCol); im != nil && im.Len() > rowLo {
				return e.imprintSelect(im, col, lo, hi, loI, hiI, rowLo, rowHi, cands, "algebra.select"), nil
			}
		}
	}
	e.Trace.Emit("algebra.thetaselect", op.String())
	return vec.SelCmp(col, op, val, cands), nil
}

func (e *Engine) selectRange(x *plan.Scan, src TableSource, cols []*vec.Vector, cr *plan.ColRef, lo, hi mtypes.Value, loI, hiI bool, cands []int32, rowLo, rowHi int) ([]int32, error) {
	col := cols[cr.Slot]
	tableCol := x.Cols[cr.Slot]
	fullScan := rowLo == 0 && rowHi == src.NumRows()
	if !e.NoIndexes {
		if fullScan {
			if oi := src.OrderIdx(tableCol); oi != nil {
				e.Trace.Emit("algebra.rangeselect", "orderidx")
				return vec.Intersect(cands, oi.SelectRange(col, lo, hi, loI, hiI)), nil
			}
		}
		if im := src.Imprints(tableCol); im != nil && im.Len() > rowLo {
			return e.imprintSelect(im, col, lo, hi, loI, hiI, rowLo, rowHi, cands, "algebra.rangeselect"), nil
		}
	}
	e.Trace.Emit("algebra.rangeselect")
	return vec.SelRange(col, lo, hi, loI, hiI, cands), nil
}

// imprintSelect runs one imprint-pruned range select over the scan window
// [rowLo, rowHi), recording the pruning counters. col is the window slice,
// cands window-relative. Imprints may stop short of the window (they cover
// the merged base only): the covered prefix is pruned block-wise and the
// uncovered append-delta tail is range-scanned raw — rows past im.Len() must
// NEVER be fed to SelectRangeSlice, whose mask iteration would silently drop
// them. Chunk engines have no trace, so the per-query totals accumulated in
// execStats are what the coordinator reports for parallel scans.
func (e *Engine) imprintSelect(im *index.Imprints, col *vec.Vector, lo, hi mtypes.Value, loI, hiI bool, rowLo, rowHi int, cands []int32, traceOp string) []int32 {
	pivot := min(rowHi, im.Len())
	below, above := splitCands(cands, int32(pivot-rowLo))
	sel, skipped, total := im.SelectRangeSlice(col.Slice(0, pivot-rowLo), lo, hi, loI, hiI, rowLo)
	if e.stats != nil {
		e.stats.imprintsBlocksSkipped.Add(int64(skipped))
		e.stats.imprintsBlocksTotal.Add(int64(total))
	}
	e.Trace.Emit(traceOp, "imprints", fmt.Sprintf("%d/%d blocks skipped", skipped, total))
	out := vec.Intersect(below, sel)
	if pivot < rowHi {
		tail := vec.SelRange(col.Slice(pivot-rowLo, rowHi-rowLo), lo, hi, loI, hiI, above)
		out = appendRebased(out, tail, int32(pivot-rowLo))
	}
	return out
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

// openRange converts a one-sided comparison into SelectRange bounds.
func openRange(t mtypes.Type, op vec.CmpOp, val mtypes.Value) (lo, hi mtypes.Value, loIncl, hiIncl bool) {
	minV, maxV := typeExtremes(t)
	switch op {
	case vec.CmpLt:
		return minV, val, true, false
	case vec.CmpLe:
		return minV, val, true, true
	case vec.CmpGt:
		return val, maxV, false, true
	default:
		return val, maxV, true, true
	}
}

// typeExtremes returns sentinel-safe minimum and maximum values of a type's
// physical domain (the NULL sentinel sits just below the minimum).
func typeExtremes(t mtypes.Type) (mtypes.Value, mtypes.Value) {
	switch t.Kind {
	case mtypes.KDouble:
		return mtypes.NewDouble(-1e308), mtypes.NewDouble(1e308)
	case mtypes.KBool, mtypes.KTinyInt:
		return mtypes.Value{Typ: t, I: int64(mtypes.NullInt8) + 1}, mtypes.Value{Typ: t, I: 1<<7 - 1}
	case mtypes.KSmallInt:
		return mtypes.Value{Typ: t, I: int64(mtypes.NullInt16) + 1}, mtypes.Value{Typ: t, I: 1<<15 - 1}
	case mtypes.KInt, mtypes.KDate:
		return mtypes.Value{Typ: t, I: int64(mtypes.NullInt32) + 1}, mtypes.Value{Typ: t, I: 1<<31 - 1}
	default:
		return mtypes.Value{Typ: t, I: mtypes.NullInt64 + 1}, mtypes.Value{Typ: t, I: 1<<63 - 1}
	}
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
