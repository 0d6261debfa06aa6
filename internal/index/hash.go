package index

import (
	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

// HashIndex maps column values to the row ids holding them. It accelerates
// equi-selections, group-bys and equi-joins. Following the paper, it is
// maintained incrementally on appends (Extend) and must be dropped by the
// owner on updates or deletes.
type HashIndex struct {
	num map[int64][]int32
	str map[string][]int32
	n   int // rows covered
}

// BuildHashIndex constructs a hash index over the full column.
func BuildHashIndex(v *vec.Vector) *HashIndex {
	h := &HashIndex{}
	if v.Typ.Kind == mtypes.KVarchar {
		h.str = make(map[string][]int32, v.Len())
	} else {
		h.num = make(map[int64][]int32, v.Len())
	}
	h.Extend(v, 0)
	return h
}

// Extend indexes the suffix of v starting at row 'from' (append maintenance).
func (h *HashIndex) Extend(v *vec.Vector, from int) {
	switch {
	case h.str != nil:
		for i := from; i < v.Len(); i++ {
			s := v.Str[i]
			if s == vec.StrNull {
				continue
			}
			h.str[s] = append(h.str[s], int32(i))
		}
	case v.Typ.Kind == mtypes.KDouble:
		for i := from; i < v.Len(); i++ {
			f := v.F64[i]
			if mtypes.IsNullF64(f) {
				continue
			}
			k := vec.FloatKey(f) // -0.0 and +0.0 are one key
			h.num[k] = append(h.num[k], int32(i))
		}
	default:
		xs := vec.AsInts64(v.Slice(from, v.Len()))
		for k, x := range xs {
			if x == mtypes.NullInt64 {
				continue
			}
			h.num[x] = append(h.num[x], int32(from+k))
		}
	}
	h.n = v.Len()
}

// Extended returns a new index covering all of v, sharing row-list backing
// arrays with the receiver, which is left untouched. The background merger
// uses this so readers holding the old index are never raced: the clone's
// map is fresh, and appending to a shared row list writes only elements past
// the old length, which old readers (bounded by their own slice length)
// never read.
func (h *HashIndex) Extended(v *vec.Vector, from int) *HashIndex {
	nh := &HashIndex{n: h.n}
	if h.str != nil {
		nh.str = make(map[string][]int32, len(h.str))
		for k, rows := range h.str {
			nh.str[k] = rows
		}
	} else {
		nh.num = make(map[int64][]int32, len(h.num))
		for k, rows := range h.num {
			nh.num[k] = rows
		}
	}
	nh.Extend(v, from)
	return nh
}

// Rows returns the covered row count.
func (h *HashIndex) Rows() int { return h.n }

// Distinct returns the number of distinct indexed values.
func (h *HashIndex) Distinct() int {
	if h.str != nil {
		return len(h.str)
	}
	return len(h.num)
}

// Lookup returns the row ids whose value equals val (NULL matches nothing).
// The value must already be in the column's physical domain (the planner
// coerces constants before index lookups).
func (h *HashIndex) Lookup(val mtypes.Value) []int32 {
	if val.Null {
		return nil
	}
	if h.str != nil {
		return h.str[val.S]
	}
	if val.Typ.Kind == mtypes.KDouble {
		return h.num[vec.FloatKey(val.F)]
	}
	return h.num[val.I]
}
