package index

import (
	"slices"
	"sort"

	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

// OrderIndex is an array of row numbers in the sort order of a column,
// created via CREATE ORDER INDEX (paper §3.1 "Order Index"). Point and range
// queries are answered by binary search; equi- and range-joins can use it
// for merge joins.
type OrderIndex struct {
	Order []int32 // row ids in ascending value order (NULLs first)
	nulls int     // the NULL rows, Order's prefix
}

// BuildOrderIndex sorts the column and records the permutation.
func BuildOrderIndex(v *vec.Vector) *OrderIndex {
	order := vec.SortedOrderOf(v)
	nulls := sort.Search(len(order), func(i int) bool { return !v.IsNull(int(order[i])) })
	return &OrderIndex{Order: order, nulls: nulls}
}

// Rows returns the covered row count.
func (oi *OrderIndex) Rows() int { return len(oi.Order) }

// SelectRange answers lo <= v <= hi (inclusivity flags) by binary search,
// returning a sorted candidate list. Equivalent to vec.SelRange.
func (oi *OrderIndex) SelectRange(v *vec.Vector, lo, hi mtypes.Value, loIncl, hiIncl bool) []int32 {
	if lo.Null || hi.Null {
		return []int32{}
	}
	a, b := vec.BinarySearchRange(v, oi.Order, lo, hi, loIncl, hiIncl)
	return oi.rows(a, max(a, b)) // b < a when lo > hi
}

// SelectCmp answers the one-sided comparison v op val (<, <=, > or >=) by
// one binary search, returning a sorted candidate list. NULLs sort first and
// match no comparison, so the rows below val start after them. Equivalent
// to vec.SelCmp.
func (oi *OrderIndex) SelectCmp(v *vec.Vector, op vec.CmpOp, val mtypes.Value) []int32 {
	switch {
	case val.Null:
		return []int32{}
	case op == vec.CmpLt || op == vec.CmpLe:
		return oi.rows(oi.nulls, vec.SearchOrder(v, oi.Order, val, op == vec.CmpLt))
	}
	return oi.rows(vec.SearchOrder(v, oi.Order, val, op == vec.CmpGe), len(oi.Order))
}

// rows returns the row ids at order positions [a, b), ascending; never nil,
// since a nil candidate list means every row.
func (oi *OrderIndex) rows(a, b int) []int32 {
	out := make([]int32, b-a)
	copy(out, oi.Order[a:b])
	slices.Sort(out)
	return out
}

// MergeJoin joins two columns that both have order indexes, returning the
// matching row-id pairs (inner equi-join, NULLs excluded). Runs in
// O(n+m+|result|).
func MergeJoin(lv *vec.Vector, lo *OrderIndex, rv *vec.Vector, ro *OrderIndex) (lsel, rsel []int32) {
	i, j := 0, 0
	L, R := lo.Order, ro.Order
	for i < len(L) && j < len(R) {
		li, rj := L[i], R[j]
		if lv.IsNull(int(li)) {
			i++
			continue
		}
		if rv.IsNull(int(rj)) {
			j++
			continue
		}
		c := mtypes.Compare(lv.Value(int(li)), rv.Value(int(rj)))
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Emit the cross product of the equal runs.
			ie := i
			for ie < len(L) && !lv.IsNull(int(L[ie])) && mtypes.Compare(lv.Value(int(L[ie])), rv.Value(int(rj))) == 0 {
				ie++
			}
			je := j
			for je < len(R) && !rv.IsNull(int(R[je])) && mtypes.Compare(lv.Value(int(li)), rv.Value(int(R[je]))) == 0 {
				je++
			}
			for a := i; a < ie; a++ {
				for b := j; b < je; b++ {
					lsel = append(lsel, L[a])
					rsel = append(rsel, R[b])
				}
			}
			i, j = ie, je
		}
	}
	return lsel, rsel
}
