package vec

import (
	"encoding/binary"
	"math"
	"strings"

	"monetlite/internal/mtypes"
)

// Typed sort kernels: instead of dispatching through a per-comparison closure
// (SortOrder, the tests' oracle), each sort key
// column is compiled once into a vector of order-preserving uint64 "sort
// codes" such that
//
//	code(a) < code(b)  ⇒  row a sorts before row b on this key
//	code(a) > code(b)  ⇒  row a sorts after row b
//	code(a) == code(b) ⇒  equal for fixed-width kinds; VARCHAR prefix tie,
//	                      resolved by a full string comparison
//
// with NULL-smallest semantics (NULL first ascending, last descending) made
// explicit for every kind — no reliance on the in-domain sentinel values
// happening to be minimal. Descending keys invert the code bits, which also
// moves NULL to the largest code, i.e. last. The hot comparison loop is then
// pure uint64 arithmetic with no closure or interface dispatch; only VARCHAR
// code ties fall back to a string comparison.
//
// On top of the codes sit a stable-equivalent merge sort, a k-way merge of
// sorted runs, and a bounded top-k heap. All three order rows by the total
// order (codes, row index): because ties on every key fall back to the
// original row index, the resulting permutations are *identical* to the
// stable serial sort — which is what the differential fuzzer asserts.

// descBits flips a code for descending keys (order-reversing involution).
const descBits = ^uint64(0)

// nullCode is the ascending-order code of SQL NULL: strictly the smallest.
// For fixed-width kinds no non-NULL value maps to 0 (see the encoders), so a
// 0 code ⇔ NULL. VARCHAR strings of leading NUL bytes also encode to 0; the
// tie-break comparison handles that collision explicitly.
const nullCode = uint64(0)

// CodedSort is the compiled form of a multi-key ORDER BY over n rows.
type CodedSort struct {
	codes [][]uint64
	// tie[k] resolves code ties on key k: nil when codes are exact
	// (fixed-width kinds), a full comparison for VARCHAR prefixes.
	tie []func(a, b int32) int
	n   int
}

// NewCodedSort compiles the sort keys into code vectors. Each key's encoder
// is specialized on the column's physical type.
func NewCodedSort(keys []SortKey, n int) *CodedSort {
	cs := &CodedSort{
		codes: make([][]uint64, len(keys)),
		tie:   make([]func(a, b int32) int, len(keys)),
		n:     n,
	}
	for k, key := range keys {
		cs.codes[k], cs.tie[k] = encodeSortKey(key.Vec, key.Desc, n)
	}
	return cs
}

// encodeSortKey builds one key's code vector (and tie-break for VARCHAR).
func encodeSortKey(v *Vector, desc bool, n int) ([]uint64, func(a, b int32) int) {
	codes := make([]uint64, n)
	flip := uint64(0)
	if desc {
		flip = descBits
	}
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		for i, x := range v.I8 {
			if x == mtypes.NullInt8 { // explicit NULL-smallest
				codes[i] = nullCode ^ flip
			} else {
				codes[i] = intCode(int64(x)) ^ flip
			}
		}
	case mtypes.KSmallInt:
		for i, x := range v.I16 {
			if x == mtypes.NullInt16 {
				codes[i] = nullCode ^ flip
			} else {
				codes[i] = intCode(int64(x)) ^ flip
			}
		}
	case mtypes.KInt, mtypes.KDate:
		for i, x := range v.I32 {
			if x == mtypes.NullInt32 {
				codes[i] = nullCode ^ flip
			} else {
				codes[i] = intCode(int64(x)) ^ flip
			}
		}
	case mtypes.KBigInt, mtypes.KDecimal:
		for i, x := range v.I64 {
			if x == mtypes.NullInt64 {
				codes[i] = nullCode ^ flip
			} else {
				codes[i] = intCode(x) ^ flip
			}
		}
	case mtypes.KDouble:
		for i, x := range v.F64 {
			if mtypes.IsNullF64(x) { // every NaN payload is NULL
				codes[i] = nullCode ^ flip
			} else {
				codes[i] = floatCode(x) ^ flip
			}
		}
	case mtypes.KVarchar:
		for i, s := range v.Str {
			if s == StrNull {
				codes[i] = nullCode ^ flip
			} else {
				codes[i] = strPrefixCode(s) ^ flip
			}
		}
		str := v.Str
		tie := func(a, b int32) int {
			x, y := str[a], str[b]
			xn, yn := x == StrNull, y == StrNull
			var c int
			if xn || yn {
				c = nullCmp(xn, yn)
			} else {
				c = strings.Compare(x, y)
			}
			if desc {
				return -c
			}
			return c
		}
		return codes, tie
	default:
		panic("vec: cannot encode sort key of kind " + v.Typ.String())
	}
	return codes, nil
}

// intCode maps an int64 onto uint64 preserving order via a sign flip.
// Only math.MinInt64 maps to 0 — and that is the BIGINT NULL sentinel,
// filtered by the caller before encoding (narrower integer kinds widen, so
// their domain minima map well above 0) — hence no non-NULL value ever
// collides with nullCode.
func intCode(x int64) uint64 {
	return uint64(x) ^ (1 << 63) // MinInt64→0, -1→2^63-1, 0→2^63
}

// floatCode maps a non-NaN float64 onto uint64 preserving IEEE-754 total
// order with -0.0 canonicalized to +0.0 (SQL treats them as equal, and the
// stable oracle keeps their input order — so their codes must tie too).
// The smallest encodable value, -Inf, maps to 0x000FFFFFFFFFFFFF > nullCode.
func floatCode(f float64) uint64 {
	if f == 0 {
		f = 0 // -0.0 → +0.0
	}
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits // negative: reverse order below zero
	}
	return bits | (1 << 63) // positive: above all negatives
}

// strPrefixCode packs the first 8 bytes big-endian (zero-padded), so uint64
// comparison agrees with the lexicographic order whenever the codes differ;
// equal codes mean "prefix tie" and defer to the full comparison.
func strPrefixCode(s string) uint64 {
	var buf [8]byte
	copy(buf[:], s)
	return binary.BigEndian.Uint64(buf[:])
}

// Compare three-way-compares two rows over all keys (0 only when the rows are
// equal on every key — VARCHAR prefix ties are resolved, not reported).
func (cs *CodedSort) Compare(a, b int32) int {
	return cs.ComparePrefix(a, b, len(cs.codes))
}

// ComparePrefix compares two rows on the first nkeys keys only. The window
// operator uses it for partition-boundary discovery: with partition keys
// encoded first, a non-zero prefix comparison between sort-adjacent rows
// marks a new partition, and a zero full Compare marks order-key peers.
func (cs *CodedSort) ComparePrefix(a, b int32, nkeys int) int {
	for k := 0; k < nkeys; k++ {
		codes := cs.codes[k]
		ca, cb := codes[a], codes[b]
		if ca < cb {
			return -1
		}
		if ca > cb {
			return 1
		}
		if t := cs.tie[k]; t != nil {
			if c := t(a, b); c != 0 {
				return c
			}
		}
	}
	return 0
}

// Less is the strict total order (keys, then original row index) every kernel
// below sorts by. Breaking key ties by index makes any comparison sort
// reproduce the stable permutation exactly, and makes merges of
// position-ordered runs stable across runs for free.
func (cs *CodedSort) Less(a, b int32) bool {
	if c := cs.Compare(a, b); c != 0 {
		return c < 0
	}
	return a < b
}

// Sort orders idx by Less: a bottom-up merge sort with an insertion-sort base
// case, allocating one temp buffer. Because Less is total, the output equals
// the stable sort of idx by the keys whenever idx is position-ordered.
func (cs *CodedSort) Sort(idx []int32) {
	if len(idx) < 2 {
		return
	}
	tmp := make([]int32, len(idx))
	cs.sortInto(idx, tmp)
}

const sortInsertionCutoff = 24

func (cs *CodedSort) sortInto(idx, tmp []int32) {
	n := len(idx)
	// Insertion-sorted base blocks.
	for lo := 0; lo < n; lo += sortInsertionCutoff {
		hi := min(lo+sortInsertionCutoff, n)
		for i := lo + 1; i < hi; i++ {
			for j := i; j > lo && cs.Less(idx[j], idx[j-1]); j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
	}
	// Bottom-up merge passes, ping-ponging between idx and tmp.
	src, dst := idx, tmp
	for width := sortInsertionCutoff; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			cs.merge2(src[lo:mid], src[mid:hi], dst[lo:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
}

// merge2 merges two Less-sorted runs into out (len(out) == len(a)+len(b)).
func (cs *CodedSort) merge2(a, b, out []int32) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cs.Less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

// MergeRuns k-way-merges Less-sorted runs into one sorted slice. Runs over
// disjoint ascending index ranges (mitosis chunks) merge stably because Less
// breaks key ties by index. A binary heap of run heads keeps the merge at
// O(n log k); with two runs it degenerates to the plain two-way merge, and a
// lone non-empty run is returned as is.
func (cs *CodedSort) MergeRuns(runs [][]int32) []int32 {
	live := runs[:0]
	total := 0
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
			total += len(r)
		}
	}
	switch len(live) {
	case 0:
		return []int32{}
	case 1:
		return live[0]
	}
	out := make([]int32, total)
	if len(live) == 2 {
		cs.merge2(live[0], live[1], out)
		return out
	}
	// heap[i] = index into live; ordered by Less of each run's head.
	heap := make([]int, len(live))
	pos := make([]int, len(live))
	for i := range live {
		heap[i] = i
	}
	headLess := func(x, y int) bool {
		return cs.Less(live[x][pos[x]], live[y][pos[y]])
	}
	siftDown := func(i, n int) {
		for {
			l, r := 2*i+1, 2*i+2
			s := i
			if l < n && headLess(heap[l], heap[s]) {
				s = l
			}
			if r < n && headLess(heap[r], heap[s]) {
				s = r
			}
			if s == i {
				return
			}
			heap[i], heap[s] = heap[s], heap[i]
			i = s
		}
	}
	n := len(heap)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	for k := range out {
		r := heap[0]
		out[k] = live[r][pos[r]]
		pos[r]++
		if pos[r] == len(live[r]) {
			heap[0] = heap[n-1]
			n--
		}
		if n == 0 {
			break
		}
		siftDown(0, n)
	}
	return out
}

// TopK returns the k smallest rows of [lo, hi) under Less, in ascending
// order — exactly the first k entries the stable full sort of that range
// would produce. A bounded max-heap keeps memory and comparisons at O(k):
// this is the per-chunk kernel of the TopN (ORDER BY … LIMIT) operator.
func (cs *CodedSort) TopK(lo, hi, k int) []int32 {
	if k <= 0 || lo >= hi {
		return nil
	}
	if k > hi-lo {
		k = hi - lo
	}
	// Max-heap under Less: root is the worst of the k best so far.
	heap := make([]int32, 0, k)
	for i := lo; i < hi; i++ {
		row := int32(i)
		if len(heap) < k {
			heap = append(heap, row)
			for c := len(heap) - 1; c > 0; {
				p := (c - 1) / 2
				if !cs.Less(heap[p], heap[c]) {
					break
				}
				heap[p], heap[c] = heap[c], heap[p]
				c = p
			}
			continue
		}
		if cs.Less(row, heap[0]) {
			heap[0] = row
			cs.maxSiftDown(heap, 0)
		}
	}
	// Heap-sort extraction: pop the max to the back until sorted ascending.
	for end := len(heap) - 1; end > 0; end-- {
		heap[0], heap[end] = heap[end], heap[0]
		cs.maxSiftDown(heap[:end], 0)
	}
	return heap
}

// maxSiftDown restores the max-heap property (parent not Less than children)
// at index i of h. Shared by TopK's bounded insert and its extraction phase.
func (cs *CodedSort) maxSiftDown(h []int32, i int) {
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < len(h) && cs.Less(h[s], h[l]) {
			s = l
		}
		if r < len(h) && cs.Less(h[s], h[r]) {
			s = r
		}
		if s == i {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}
