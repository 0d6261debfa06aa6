package rowstore

import (
	"fmt"
	"math/bits"
	"sort"

	"monetlite/internal/mtypes"
	"monetlite/internal/plan"
)

// Naive row-at-a-time window evaluation: materialize the input, stable-sort
// row indexes by (partition keys ascending, order keys), walk partitions, and
// compute every call per row by plainly rescanning its frame. Rows are
// emitted in the original input order with the window columns appended.
//
// This evaluator doubles as the differential oracle for the columnar window
// operator (the fast-path/oracle convention of docs/ARCHITECTURE.md), so it
// follows the same semantic contract exactly: NULL sorts smallest (last under
// DESC), the default frame is the whole partition without ORDER BY and the
// peer-inclusive running frame with it, and framed aggregates accumulate in
// frame order in the argument's native domain (int64 for the integer-backed
// kinds, float64 for DOUBLE; plan.WinAvgInt/WinAvgFloat finish AVG), which
// makes even floating-point outputs bitwise comparable across engines.

func (v *volcano) buildWindow(x *plan.Window) (iterator, error) {
	in, err := v.build(x.Input)
	if err != nil {
		return nil, err
	}
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
	n := len(rows)
	nPart := len(x.PartitionBy)
	nOrd := len(x.OrderBy)

	// Evaluate the shared specification's key expressions per row.
	keyVals := make([][]mtypes.Value, n)
	for i, row := range rows {
		ks := make([]mtypes.Value, 0, nPart+nOrd)
		ctx := v.evalCtx(row)
		for _, pe := range x.PartitionBy {
			kv, err := plan.EvalRow(pe, ctx)
			if err != nil {
				return nil, err
			}
			ks = append(ks, kv)
		}
		for _, k := range x.OrderBy {
			kv, err := plan.EvalRow(k.E, ctx)
			if err != nil {
				return nil, err
			}
			ks = append(ks, kv)
		}
		keyVals[i] = ks
	}

	// Stable sort by (partition asc, order keys); mtypes.Compare puts NULL
	// smallest, and negating under DESC puts it last — the vec sort-code
	// semantics.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keyVals[idx[a]], keyVals[idx[b]]
		for k := 0; k < nPart; k++ {
			if c := mtypes.Compare(ka[k], kb[k]); c != 0 {
				return c < 0
			}
		}
		for k, key := range x.OrderBy {
			c := mtypes.Compare(ka[nPart+k], kb[nPart+k])
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
	keysEqual := func(a, b int, lo, hi int) bool {
		for k := lo; k < hi; k++ {
			if mtypes.Compare(keyVals[a][k], keyVals[b][k]) != 0 {
				return false
			}
		}
		return true
	}

	// Per-call outputs, indexed by original row position.
	outCols := make([][]mtypes.Value, len(x.Calls))
	for ci := range outCols {
		outCols[ci] = make([]mtypes.Value, n)
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && keysEqual(idx[lo], idx[hi], 0, nPart) {
			hi++
		}
		part := idx[lo:hi]
		for ci := range x.Calls {
			if err := v.windowPartition(x, &x.Calls[ci], rows, keyVals, part, nPart, keysEqual, outCols[ci]); err != nil {
				return nil, err
			}
		}
		lo = hi
	}

	out := make([][]mtypes.Value, n)
	for i, row := range rows {
		r := make([]mtypes.Value, 0, len(row)+len(x.Calls))
		r = append(r, row...)
		for ci := range x.Calls {
			r = append(r, outCols[ci][i])
		}
		out[i] = r
	}
	return &sliceIter{rows: out}, nil
}

// windowPartition computes one call over one partition (part holds original
// row indexes in sorted order), writing into out at original positions.
func (v *volcano) windowPartition(x *plan.Window, c *plan.WindowCall, rows [][]mtypes.Value,
	keyVals [][]mtypes.Value, part []int, nPart int, keysEqual func(a, b, lo, hi int) bool,
	out []mtypes.Value) error {
	m := len(part)
	nKeys := nPart + len(x.OrderBy)
	peer := func(a, b int) bool { return keysEqual(a, b, 0, nKeys) }

	switch c.Func {
	case plan.WinRowNumber:
		for i, r := range part {
			out[r] = mtypes.NewInt(mtypes.BigInt, int64(i+1))
		}
		return nil
	case plan.WinRank:
		rank := int64(1)
		for i, r := range part {
			if i > 0 && !peer(part[i-1], r) {
				rank = int64(i + 1)
			}
			out[r] = mtypes.NewInt(mtypes.BigInt, rank)
		}
		return nil
	case plan.WinDenseRank:
		rank := int64(1)
		for i, r := range part {
			if i > 0 && !peer(part[i-1], r) {
				rank++
			}
			out[r] = mtypes.NewInt(mtypes.BigInt, rank)
		}
		return nil
	case plan.WinLag, plan.WinLead:
		rt := plan.WindowResultType(*c)
		for i, r := range part {
			j := i - int(c.Offset)
			if c.Func == plan.WinLead {
				j = i + int(c.Offset)
			}
			switch {
			case j >= 0 && j < m:
				av, err := plan.EvalRow(c.Arg, v.evalCtx(rows[part[j]]))
				if err != nil {
					return err
				}
				out[r] = av
			case c.Default != nil:
				dv, err := plan.EvalRow(c.Default, v.evalCtx(rows[r]))
				if err != nil {
					return err
				}
				out[r] = dv
			default:
				out[r] = mtypes.NullValue(rt)
			}
		}
		return nil
	}

	// Windowed aggregate: precompute argument values, then rescan each row's
	// frame left to right (the accumulation order the typed kernels promise).
	var args []mtypes.Value
	if c.Arg != nil {
		args = make([]mtypes.Value, m)
		for i, r := range part {
			av, err := plan.EvalRow(c.Arg, v.evalCtx(rows[r]))
			if err != nil {
				return err
			}
			args[i] = av
		}
	}
	frame := func(i int) (int, int) { // inclusive [lo, hi] in partition offsets
		if c.Frame == nil {
			if len(x.OrderBy) == 0 {
				return 0, m - 1
			}
			hi := i
			for hi+1 < m && peer(part[hi+1], part[i]) {
				hi++
			}
			return 0, hi // running frame includes the current row's peers
		}
		return plan.FrameRowBounds(c.Frame, i, m)
	}
	rt := plan.WindowResultType(*c)
	isFloat := c.Arg != nil && c.Arg.Type().Kind == mtypes.KDouble
	scale := 0
	if c.Arg != nil {
		scale = c.Arg.Type().Scale
	}
	for i, r := range part {
		lo, hi := frame(i)
		var frameRows, count, isumHi int64
		var isum uint64 // with isumHi, a 128-bit sum: exact while the total fits
		var fsum float64
		minV := mtypes.NullValue(rt)
		maxV := mtypes.NullValue(rt)
		for j := lo; j <= hi; j++ {
			frameRows++
			if c.Arg == nil {
				continue
			}
			av := args[j]
			if av.Null {
				continue
			}
			count++
			if isFloat {
				fsum += av.F
			} else {
				var carry uint64
				isum, carry = bits.Add64(isum, uint64(av.I), 0)
				isumHi += av.I>>63 + int64(carry)
			}
			if minV.Null || mtypes.Compare(av, minV) < 0 {
				minV = av
			}
			if maxV.Null || mtypes.Compare(av, maxV) > 0 {
				maxV = av
			}
		}
		sum := int64(isum)
		if !isFloat && count > 0 && (c.Func == plan.WinSum || c.Func == plan.WinAvg) &&
			(isumHi != sum>>63 || sum == mtypes.NullInt64) {
			return fmt.Errorf("rowstore: window %s: %w", c.Func, mtypes.ErrOverflow)
		}
		switch c.Func {
		case plan.WinCountStar:
			out[r] = mtypes.NewInt(mtypes.BigInt, frameRows)
		case plan.WinCount:
			out[r] = mtypes.NewInt(mtypes.BigInt, count)
		case plan.WinSum:
			switch {
			case count == 0:
				out[r] = mtypes.NullValue(rt)
			case isFloat:
				out[r] = mtypes.NewDouble(fsum)
			default:
				out[r] = mtypes.Value{Typ: rt, I: sum}
			}
		case plan.WinAvg:
			switch {
			case count == 0:
				out[r] = mtypes.NullValue(rt)
			case isFloat:
				out[r] = mtypes.NewDouble(plan.WinAvgFloat(fsum, count))
			default:
				out[r] = mtypes.NewDouble(plan.WinAvgInt(sum, scale, count))
			}
		case plan.WinMin:
			mv := minV
			mv.Typ = rt
			out[r] = mv
		case plan.WinMax:
			mv := maxV
			mv.Typ = rt
			out[r] = mv
		}
	}
	return nil
}
