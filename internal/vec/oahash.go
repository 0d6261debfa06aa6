package vec

import (
	"cmp"
	"math"

	"monetlite/internal/mtypes"
)

// This file implements the key machinery shared by grouping (GroupBy), hash
// joins (parthash.go) and the dataframe library's group/join paths: a
// linear-probing distinct-key table (OATable) over fused multi-column key
// hashes, with exact-key verification against a representative row per
// distinct key, and KeySet, a typed view that reads key vectors in place.
// GroupBy addresses small integer key boxes directly and hashes the rest.
// It replaces the MonetDB-style iterative refinement grouping (kept beside
// the tests as GroupByRefine, their oracle): one pass over the input,
// power-of-two table sizing, no per-column map allocations.

// HashSeed is the initial value of a fused key hash.
const HashSeed uint64 = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashInt64 folds one numeric key payload into a fused hash.
func HashInt64(h uint64, v int64) uint64 {
	return mix64(h ^ mix64(uint64(v)))
}

// HashString folds one string key into a fused hash (FNV-1a core).
func HashString(h uint64, s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	sh := uint64(offset64)
	for i := 0; i < len(s); i++ {
		sh ^= uint64(s[i])
		sh *= prime64
	}
	return mix64(h ^ sh)
}

// ---------------------------------------------------------------------------
// OATable: the open-addressing distinct-key table core.
// ---------------------------------------------------------------------------

// OATable assigns dense ids (0, 1, 2, ...) to distinct keys in first-
// insertion order, using linear probing over a power-of-two slot array.
// Keys are identified by caller-domain row numbers: the caller supplies each
// row's fused hash and an equality predicate over rows; the table stores one
// representative row per distinct key and verifies hash collisions exactly.
type OATable struct {
	mask    uint64
	slots   []int32  // slot -> dense id, -1 = empty
	hashes  []uint64 // slot -> fused hash of the resident key
	repr    []int32  // id -> representative row (first inserted)
	maxLoad int
	eq      func(a, b int32) bool
}

// NewOATable creates a table expecting roughly sizeHint distinct keys.
// eq must report whether two caller-domain rows hold equal keys.
func NewOATable(sizeHint int, eq func(a, b int32) bool) *OATable {
	size := 16
	for size*7/10 < sizeHint {
		size <<= 1
	}
	t := &OATable{
		mask:    uint64(size - 1),
		slots:   make([]int32, size),
		hashes:  make([]uint64, size),
		maxLoad: size * 7 / 10,
		eq:      eq,
	}
	for i := range t.slots {
		t.slots[i] = -1
	}
	return t
}

// Len returns the number of distinct keys inserted so far.
func (t *OATable) Len() int { return len(t.repr) }

// Reprs returns the representative row of each dense id, in id order. The
// slice is owned by the table; callers must not modify it.
func (t *OATable) Reprs() []int32 { return t.repr }

// Insert finds or creates the dense id of row's key, given its fused hash h.
// fresh reports whether a new id was allocated.
func (t *OATable) Insert(row int32, h uint64) (id int32, fresh bool) {
	if len(t.repr) >= t.maxLoad {
		t.grow()
	}
	i := h & t.mask
	for {
		s := t.slots[i]
		if s < 0 {
			id = int32(len(t.repr))
			t.slots[i] = id
			t.hashes[i] = h
			t.repr = append(t.repr, row)
			return id, true
		}
		if t.hashes[i] == h && t.eq(t.repr[s], row) {
			return s, false
		}
		i = (i + 1) & t.mask
	}
}

// Lookup returns the dense id whose key matches, or -1. eqRepr is called
// with candidate representative rows (table domain), letting callers probe
// with keys from a different domain (e.g. the probe side of a join).
func (t *OATable) Lookup(h uint64, eqRepr func(repr int32) bool) int32 {
	i := h & t.mask
	for {
		s := t.slots[i]
		if s < 0 {
			return -1
		}
		if t.hashes[i] == h && eqRepr(t.repr[s]) {
			return s
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the slot array, reinserting by stored hash (keys stay put).
func (t *OATable) grow() {
	size := 2 * len(t.slots)
	oldSlots, oldHashes := t.slots, t.hashes
	t.slots = make([]int32, size)
	t.hashes = make([]uint64, size)
	t.mask = uint64(size - 1)
	t.maxLoad = size * 7 / 10
	for i := range t.slots {
		t.slots[i] = -1
	}
	for j, s := range oldSlots {
		if s < 0 {
			continue
		}
		h := oldHashes[j]
		i := h & t.mask
		for t.slots[i] >= 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
		t.hashes[i] = h
	}
}

// ---------------------------------------------------------------------------
// KeySet: a typed view of a multi-column key set.
// ---------------------------------------------------------------------------

// hashBlock is how many rows probes and GroupBy hash at a time, into one
// reused buffer rather than a per-row hash array.
const hashBlock = 1024

// keyCol is one key column read where it lies: the vector's own payload,
// compared in its own width. Only DOUBLE keys canonicalize (FloatKey), as
// they are read.
type keyCol struct {
	v    *Vector
	ints intCol // the integer view; nil for DOUBLE and VARCHAR
}

// KeySet is a typed view of the key vectors of a join side or a grouping.
// A hashed join build also fills the per-row fused hashes and NULL flags it
// partitions by; probes and GroupBy hash in blocks instead.
type KeySet struct {
	n    int
	cols []keyCol
	one  [1]keyCol // backs cols for a one-column key, the common case
	hash []uint64  // per-row fused hash; join build only
	null []bool    // rows with a NULL in any key column; join build only
}

// NewKeySet views keys in place; nothing is copied.
func NewKeySet(keys []*Vector) *KeySet {
	ks := &KeySet{n: keys[0].Len()}
	ks.cols = ks.one[:0]
	for _, v := range keys {
		ks.cols = append(ks.cols, keyCol{v: v, ints: intsOf(v)})
	}
	return ks
}

// hashAll fills the per-row hash and NULL arrays of every row.
func (ks *KeySet) hashAll() {
	ks.hash = make([]uint64, ks.n)
	ks.null = make([]bool, ks.n)
	ks.hashRows(0, ks.n, ks.hash, ks.null)
}

// hashRows fuses the key hashes of rows [lo, hi) into h and, unless null is
// nil, flags the rows with a NULL key in null.
func (ks *KeySet) hashRows(lo, hi int, h []uint64, null []bool) {
	h = h[:hi-lo]
	for k := range h {
		h[k] = HashSeed
	}
	if null != nil {
		clear(null[:hi-lo])
	}
	for _, c := range ks.cols {
		switch {
		case c.ints != nil:
			c.ints.fold(lo, hi, h, null)
		case c.v.Typ.Kind == mtypes.KDouble:
			for k, f := range c.v.F64[lo:hi] {
				h[k] = HashInt64(h[k], FloatKey(f))
				if null != nil && mtypes.IsNullF64(f) {
					null[k] = true
				}
			}
		default:
			for k, s := range c.v.Str[lo:hi] {
				h[k] = HashString(h[k], s)
				if null != nil && s == StrNull {
					null[k] = true
				}
			}
		}
	}
}

// nullF64Key is the key payload of every NaN: a quiet-NaN bit pattern, which
// no non-NaN double has.
const nullF64Key = int64(0x7ff8000000000001)

// FloatKey is a double's key payload: every NaN is the one NULL payload and
// -0.0 is +0.0, so doubles SQL calls equal hash and compare equal.
func FloatKey(f float64) int64 {
	if mtypes.IsNullF64(f) {
		return nullF64Key
	}
	if f == 0 {
		return 0
	}
	return int64(math.Float64bits(f))
}

// eqAt reports whether row a of c and row b of o hold equal keys. Both
// columns have the same payload width: the planner unifies join key types.
func (c keyCol) eqAt(a int32, o keyCol, b int32) bool {
	switch v, w := c.v, o.v; v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		return v.I8[a] == w.I8[b]
	case mtypes.KSmallInt:
		return v.I16[a] == w.I16[b]
	case mtypes.KInt, mtypes.KDate:
		return v.I32[a] == w.I32[b]
	case mtypes.KBigInt, mtypes.KDecimal:
		return v.I64[a] == w.I64[b]
	case mtypes.KDouble:
		return FloatKey(v.F64[a]) == FloatKey(w.F64[b])
	default:
		return v.Str[a] == w.Str[b]
	}
}

// keySetsEqual compares row a of ks with row b of other.
func keySetsEqual(ks *KeySet, a int32, other *KeySet, b int32) bool {
	for i, c := range ks.cols {
		if !c.eqAt(a, other.cols[i], b) {
			return false
		}
	}
	return true
}

// eqFunc returns the row equality an OATable over ks verifies collisions
// with: a direct comparison for one integer column, keySetsEqual otherwise.
func (ks *KeySet) eqFunc() func(a, b int32) bool {
	if len(ks.cols) == 1 && ks.cols[0].ints != nil {
		return ks.cols[0].ints.eqFunc()
	}
	return func(a, b int32) bool { return keySetsEqual(ks, a, ks, b) }
}

// ---------------------------------------------------------------------------
// intCol: the typed loops over an integer column.
// ---------------------------------------------------------------------------

// intCol is an integer column of one payload width, read in place: the
// loops the join table, GroupBy and CmpVec run over it, each instantiated
// for the width.
type intCol interface {
	// fold folds rows [lo, hi) into the fused hashes h, flagging NULLs in
	// null unless it is nil.
	fold(lo, hi int, h []uint64, null []bool)
	// eqFunc compares two rows.
	eqFunc() func(a, b int32) bool
	// bounds returns the smallest and largest non-NULL value; ok is false
	// when every row is NULL.
	bounds() (lo, hi int64, ok bool)
	// addDigits adds the dense-group digit of rows [lo, hi) times stride
	// to their slots: x - base for a value, null for NULL.
	addDigits(lo, hi int, base int64, null, stride int, slots []int)
	// setBits sets the key filter's bit of every non-NULL row.
	setBits(f *keyFilter)
	// chain links the non-NULL rows of each key into the key filter's
	// positional table, in row order, through next.
	chain(f *keyFilter, next []int32)
	// heads looks rows [lo, hi) up in pt, whose build keys are build (of
	// the same width), and sets each row's chain head, -1 for none.
	heads(pt *PartitionedHashTable, build intCol, lo, hi int, heads []int32)
	// cmp sets out to the comparison of each row with the same row of o and
	// reports true, or reports false when o is of another width.
	cmp(op CmpOp, o intCol, out []int8) bool
	// widen writes int64 values to dst: rows lo.. in order when idx is nil,
	// else the rows idx[k].
	widen(lo int, idx []int32, dst []int64)
	// null is the width's NULL sentinel, widened.
	null() int64
}

type intKey interface {
	~int8 | ~int16 | ~int32 | ~int64
}

// ints is the intCol of one width. nullv, the width's NULL sentinel, is its
// smallest value, below every non-NULL value.
type ints[T intKey] struct {
	xs    []T
	nullv T
}

// intsOf returns the intCol of a vector of integer kind (BOOL, TINYINT,
// SMALLINT, INT, DATE, BIGINT, DECIMAL), or nil.
func intsOf(v *Vector) intCol {
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		return ints[int8]{v.I8, mtypes.NullInt8}
	case mtypes.KSmallInt:
		return ints[int16]{v.I16, mtypes.NullInt16}
	case mtypes.KInt, mtypes.KDate:
		return ints[int32]{v.I32, mtypes.NullInt32}
	case mtypes.KBigInt, mtypes.KDecimal:
		return ints[int64]{v.I64, mtypes.NullInt64}
	}
	return nil
}

func (c ints[T]) fold(lo, hi int, h []uint64, null []bool) {
	for k, x := range c.xs[lo:hi] {
		h[k] = HashInt64(h[k], int64(x))
		if null != nil && x == c.nullv {
			null[k] = true
		}
	}
}

func (c ints[T]) eqFunc() func(a, b int32) bool {
	xs := c.xs
	return func(a, b int32) bool { return xs[a] == xs[b] }
}

func (c ints[T]) bounds() (lo, hi int64, ok bool) {
	mn, mx := c.nullv, c.nullv
	for _, x := range c.xs {
		mx = max(mx, x)
		if x != c.nullv && (x < mn || mn == c.nullv) {
			mn = x
		}
	}
	return int64(mn), int64(mx), mx != c.nullv
}

func (c ints[T]) addDigits(lo, hi int, base int64, null, stride int, slots []int) {
	for k, x := range c.xs[lo:hi] {
		d := null
		if x != c.nullv {
			d = int(int64(x) - base)
		}
		slots[k] += d * stride
	}
}

func (c ints[T]) setBits(f *keyFilter) {
	for _, x := range c.xs {
		if x != c.nullv {
			f.bits.Set(int32(int64(x) - f.lo))
		}
	}
}

// chain walks the rows backwards, so that pushing each on its key's chain
// leaves every chain in ascending row order.
func (c ints[T]) chain(f *keyFilter, next []int32) {
	for r := len(c.xs) - 1; r >= 0; r-- {
		next[r] = -1
		if x := c.xs[r]; x != c.nullv {
			d := int64(x) - f.lo
			if f.pos[d] < 0 {
				f.keys++
			}
			next[r], f.pos[d] = f.pos[d], int32(r)
		}
	}
}

func (c ints[T]) heads(pt *PartitionedHashTable, build intCol, lo, hi int, heads []int32) {
	f := pt.filter
	if f != nil && f.pos != nil {
		for k, x := range c.xs[lo:hi] {
			heads[k] = -1
			if d := uint64(int64(x)) - uint64(f.lo); d < f.n {
				heads[k] = f.pos[d]
			}
		}
		return
	}
	bx := build.(ints[T]).xs
	for k, x := range c.xs[lo:hi] {
		heads[k] = -1
		if f != nil {
			if !f.has(int64(x)) {
				continue
			}
		} else if x == c.nullv {
			continue
		}
		heads[k] = lookupInt(pt, bx, x)
	}
}

func (c ints[T]) cmp(op CmpOp, o intCol, out []int8) bool {
	ys, ok := o.(ints[T])
	if !ok {
		return false
	}
	for i, x := range c.xs {
		switch y := ys.xs[i]; {
		case x == c.nullv || y == c.nullv:
			out[i] = mtypes.NullInt8
		case cmpHolds(op, cmp.Compare(x, y)):
			out[i] = 1
		}
	}
	return true
}

func (c ints[T]) widen(lo int, idx []int32, dst []int64) {
	if idx == nil {
		for k, x := range c.xs[lo : lo+len(dst)] {
			dst[k] = int64(x)
		}
		return
	}
	for k, i := range idx {
		dst[k] = int64(c.xs[i])
	}
}

func (c ints[T]) null() int64 { return int64(c.nullv) }

// ---------------------------------------------------------------------------
// GroupBy: direct addressing for dense integer keys, else the OATable.
// ---------------------------------------------------------------------------

// GroupBy assigns group ids to the rows of a multi-column key in a single
// pass, in first-appearance order (the numbering the refinement oracle
// GroupByRefine produces). reprs holds one representative row per group (its
// first member), used to materialize the key output columns. Integer keys
// whose value box is small (denseBox) index a table of group ids directly,
// and dense reports that; other keys are hashed in blocks into an
// open-addressing table.
//
// SQL semantics: NULL keys form their own group (NULLs group together).
func GroupBy(keys []*Vector) (gids []int32, ngroups int, reprs []int32, dense bool) {
	ks := NewKeySet(keys)
	gids = make([]int32, ks.n)
	if box := ks.denseBox(); box != nil {
		reprs = box.group(ks, gids)
		return gids, len(reprs), reprs, true
	}
	t := NewOATable(ks.n/8+16, ks.eqFunc())
	h := make([]uint64, min(ks.n, hashBlock))
	for lo := 0; lo < ks.n; lo += hashBlock {
		hi := min(lo+hashBlock, ks.n)
		ks.hashRows(lo, hi, h, nil)
		for k := lo; k < hi; k++ {
			gids[k], _ = t.Insert(int32(k), h[k-lo])
		}
	}
	reprs = t.Reprs()
	if reprs == nil {
		reprs = []int32{} // nil would gather every row
	}
	return gids, len(reprs), reprs, false
}

// groupBox is the direct-address layout of integer group keys. Column c's
// digit is x - lo[c] for a value and span[c]-1 for NULL; a row's slot is the
// mixed-radix number of its digits, column 0 least significant.
type groupBox struct {
	lo, span []int64
	size     int
}

// denseBox returns the key box when every key column is of integer kind and
// the product of the column spans (each [min, max] plus one NULL slot) is at
// most max(2 x rows, 1024) slots, else nil.
func (ks *KeySet) denseBox() *groupBox {
	for _, c := range ks.cols {
		if c.ints == nil {
			return nil
		}
	}
	limit := int64(max(2*ks.n, 1024))
	box := &groupBox{lo: make([]int64, len(ks.cols)), span: make([]int64, len(ks.cols)), size: 1}
	for i, c := range ks.cols {
		span := int64(1)
		if lo, hi, ok := c.ints.bounds(); ok {
			if d := uint64(hi) - uint64(lo); d >= uint64(limit) {
				return nil
			}
			box.lo[i], span = lo, hi-lo+2
		}
		if span > limit/int64(box.size) {
			return nil
		}
		box.span[i] = span
		box.size *= int(span)
	}
	return box
}

// group numbers the rows' slots in first-appearance order through a table
// of group ids (-1: unseen) and returns the first row of each group.
func (box *groupBox) group(ks *KeySet, gids []int32) []int32 {
	table := make([]int32, box.size)
	for i := range table {
		table[i] = -1
	}
	reprs := []int32{}
	slots := make([]int, min(ks.n, hashBlock))
	for lo := 0; lo < ks.n; lo += hashBlock {
		hi := min(lo+hashBlock, ks.n)
		s := slots[:hi-lo]
		clear(s)
		stride := 1
		for i, c := range ks.cols {
			c.ints.addDigits(lo, hi, box.lo[i], int(box.span[i]-1), stride, s)
			stride *= int(box.span[i])
		}
		for k, slot := range s {
			g := table[slot]
			if g < 0 {
				g = int32(len(reprs))
				table[slot] = g
				reprs = append(reprs, int32(lo+k))
			}
			gids[lo+k] = g
		}
	}
	return reprs
}
