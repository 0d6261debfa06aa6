package vec

import (
	"slices"

	"monetlite/internal/mtypes"
)

// intComparable reports whether CmpVec compares a and b as integers: neither
// is VARCHAR or DOUBLE, and both or neither are DECIMAL, of one scale. Mixed
// integer widths widen to int64. Other pairs compare as strings or doubles.
func intComparable(a, b mtypes.Type) bool {
	if a.Kind == mtypes.KVarchar || b.Kind == mtypes.KVarchar || a.Kind == mtypes.KDouble || b.Kind == mtypes.KDouble {
		return false
	}
	return (a.Kind == mtypes.KDecimal) == (b.Kind == mtypes.KDecimal) && scaleOf(a) == scaleOf(b)
}

// SelColumns returns the candidates i (cands; nil = every row) where
// a[i] op b[i] holds: the rows CmpVec + SelTrue select, a NULL on either side
// never selected. cands may be in any order, and the output keeps it. ok is
// false, and nothing is selected, when CmpVec would not compare the pair as
// integers (intComparable); the caller then takes the general path.
func SelColumns(op CmpOp, a, b *Vector, cands []int32) ([]int32, bool) {
	return selColumns(op, a, cands, b, cands, cands, NumCands(a.Len(), cands))
}

// SelColumnPairs returns the positions k in [0, n) where a[ia[k]] op b[ib[k]]
// holds (a column comparison read through two row lists), under SelColumns'
// rules. A nil list reads row k itself.
func SelColumnPairs(op CmpOp, a *Vector, ia []int32, b *Vector, ib []int32, n int) ([]int32, bool) {
	return selColumns(op, a, ia, b, ib, nil, n)
}

// selColumns compares n rows, a read at ia and b at ib (nil: row k itself),
// and emits emit[k] (nil: k) for each row that holds. It runs a block at a
// time: both sides are widened into int64 buffers, then one loop per
// operator compacts the block's matches without a branch. After the first
// block the output is sized from that block's yield, as selCodes does.
func selColumns(op CmpOp, a *Vector, ia []int32, b *Vector, ib, emit []int32, n int) ([]int32, bool) {
	ca, cb := intsOf(a), intsOf(b)
	if ca == nil || cb == nil || !intComparable(a.Typ, b.Typ) {
		return nil, false
	}
	if op == CmpGt || op == CmpGe {
		ca, cb, ia, ib, op = cb, ca, ib, ia, op.Flip()
	}
	na, nb := ca.null(), cb.null()
	out := []int32{}
	var xs, ys [unpackBlock]int64
	var sel [unpackBlock]int32
	block := func(idx []int32, lo, m int) []int32 {
		if idx == nil {
			return nil
		}
		return idx[lo : lo+m]
	}
	for lo := 0; lo < n; lo += unpackBlock {
		m := min(unpackBlock, n-lo)
		x, y, s := xs[:m], ys[:m], sel[:m]
		ca.widen(lo, block(ia, lo, m), x)
		cb.widen(lo, block(ib, lo, m), y)
		if emit == nil {
			for k := range s {
				s[k] = int32(lo + k)
			}
		} else {
			copy(s, emit[lo:lo+m])
		}
		cnt := 0
		switch op {
		case CmpEq:
			for k := range s {
				s[cnt] = s[k]
				cnt += int(b2u(x[k] == y[k]) & b2u(x[k] != na) & b2u(y[k] != nb))
			}
		case CmpNe:
			for k := range s {
				s[cnt] = s[k]
				cnt += int(b2u(x[k] != y[k]) & b2u(x[k] != na) & b2u(y[k] != nb))
			}
		case CmpLt:
			for k := range s {
				s[cnt] = s[k]
				cnt += int(b2u(x[k] < y[k]) & b2u(x[k] != na) & b2u(y[k] != nb))
			}
		default: // CmpLe
			for k := range s {
				s[cnt] = s[k]
				cnt += int(b2u(x[k] <= y[k]) & b2u(x[k] != na) & b2u(y[k] != nb))
			}
		}
		if lo == 0 && n > m {
			out = slices.Grow(out, cnt*(n/m)+cnt/2+8) // sized from the first block's yield
		}
		out = append(out, s[:cnt]...)
	}
	return out, true
}
