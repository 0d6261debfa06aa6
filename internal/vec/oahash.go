package vec

import (
	"math"

	"monetlite/internal/mtypes"
)

// This file implements the open-addressing hash infrastructure shared by
// grouping (GroupBy), hash joins (parthash.go) and the dataframe library's
// group/join paths: a linear-probing distinct-key table (OATable) over fused
// multi-column key hashes, with exact-key verification against a
// representative row per distinct key. It replaces the MonetDB-style
// iterative refinement grouping (kept beside the tests as GroupByRefine, their
// oracle) and the Go-map-based join chains: one pass over the input,
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
// KeySet: canonical hash-ready form of a multi-column key set.
// ---------------------------------------------------------------------------

// keyCol is one canonicalized key column: exactly one of i64/str is set.
// Numeric payloads follow the engine's canonical encoding: integer kinds
// widen to int64 (NULL sentinels widen with them), DECIMAL keeps its scaled
// integer, DOUBLE uses its bit pattern with every NaN payload collapsed to
// mtypes.NullInt64 (float NULL canonicalization).
type keyCol struct {
	i64 []int64
	str []string
}

// KeySet holds the canonical payloads and fused per-row hashes of the
// effective candidate rows of a multi-column key, plus (optionally) which
// rows carry at least one NULL key — joins exclude those, grouping keeps
// them (NULLs group together).
type KeySet struct {
	n     int
	cols  []keyCol
	hash  []uint64
	null  []bool  // nil unless trackNulls
	cands []int32 // effective index -> original row id (nil = identity)
}

// NewKeySet canonicalizes keys over the candidate list and fuses per-row
// hashes in one column-at-a-time pass.
func NewKeySet(keys []*Vector, cands []int32, trackNulls bool) *KeySet {
	n := NumCands(keys[0].Len(), cands)
	ks := &KeySet{n: n, cols: make([]keyCol, len(keys)), cands: cands}
	ks.hash = make([]uint64, n)
	for k := range ks.hash {
		ks.hash[k] = HashSeed
	}
	if trackNulls {
		ks.null = make([]bool, n)
	}
	for ci, key := range keys {
		ks.addCol(ci, key, cands)
	}
	return ks
}

// RowAt maps an effective index back to its original row id.
func (ks *KeySet) RowAt(k int) int32 {
	if ks.cands == nil {
		return int32(k)
	}
	return ks.cands[k]
}

func (ks *KeySet) addCol(ci int, key *Vector, cands []int32) {
	if key.Typ.Kind == mtypes.KVarchar {
		ss := key.Str
		if cands != nil {
			ss = make([]string, ks.n)
			for k, c := range cands {
				ss[k] = key.Str[c]
			}
		}
		ks.cols[ci].str = ss
		for k, s := range ss {
			ks.hash[k] = HashString(ks.hash[k], s)
			if ks.null != nil && s == StrNull {
				ks.null[k] = true
			}
		}
		return
	}
	pay := canonPayloads(key, cands)
	ks.cols[ci].i64 = pay
	for k, v := range pay {
		ks.hash[k] = HashInt64(ks.hash[k], v)
	}
	if ks.null != nil {
		markNulls(key, cands, pay, ks.null)
	}
}

// canonPayloads widens one numeric column into canonical int64 payloads over
// the candidate list. BIGINT/DECIMAL vectors with no candidate list are
// aliased, not copied.
func canonPayloads(v *Vector, cands []int32) []int64 {
	switch v.Typ.Kind {
	case mtypes.KBigInt, mtypes.KDecimal:
		if cands == nil {
			return v.I64
		}
		out := make([]int64, len(cands))
		for k, c := range cands {
			out[k] = v.I64[c]
		}
		return out
	case mtypes.KInt, mtypes.KDate:
		out := make([]int64, NumCands(len(v.I32), cands))
		if cands == nil {
			for k, x := range v.I32 {
				out[k] = int64(x)
			}
		} else {
			for k, c := range cands {
				out[k] = int64(v.I32[c])
			}
		}
		return out
	case mtypes.KSmallInt:
		out := make([]int64, NumCands(len(v.I16), cands))
		if cands == nil {
			for k, x := range v.I16 {
				out[k] = int64(x)
			}
		} else {
			for k, c := range cands {
				out[k] = int64(v.I16[c])
			}
		}
		return out
	case mtypes.KDouble:
		out := make([]int64, NumCands(len(v.F64), cands))
		if cands == nil {
			for k, f := range v.F64 {
				out[k] = canonF64(f)
			}
		} else {
			for k, c := range cands {
				out[k] = canonF64(v.F64[c])
			}
		}
		return out
	default: // KBool, KTinyInt
		out := make([]int64, NumCands(len(v.I8), cands))
		if cands == nil {
			for k, x := range v.I8 {
				out[k] = int64(x)
			}
		} else {
			for k, c := range cands {
				out[k] = int64(v.I8[c])
			}
		}
		return out
	}
}

// canonF64 maps a double to its canonical payload: every NaN bit pattern
// becomes the NULL sentinel, everything else its raw bits.
func canonF64(f float64) int64 {
	if mtypes.IsNullF64(f) {
		return mtypes.NullInt64
	}
	return int64(math.Float64bits(f))
}

// markNulls flags rows whose key is the column's NULL sentinel. For doubles
// the canonical payload already equals NullInt64 exactly when the value is
// NaN or -0.0; only NaN is SQL NULL, so doubles are re-checked on the raw
// vector.
func markNulls(v *Vector, cands []int32, pay []int64, null []bool) {
	var sentinel int64
	switch v.Typ.Kind {
	case mtypes.KBigInt, mtypes.KDecimal:
		sentinel = mtypes.NullInt64
	case mtypes.KInt, mtypes.KDate:
		sentinel = int64(mtypes.NullInt32)
	case mtypes.KSmallInt:
		sentinel = int64(mtypes.NullInt16)
	case mtypes.KDouble:
		for k := range pay {
			i := k
			if cands != nil {
				i = int(cands[k])
			}
			if mtypes.IsNullF64(v.F64[i]) {
				null[k] = true
			}
		}
		return
	default:
		sentinel = int64(mtypes.NullInt8)
	}
	for k, p := range pay {
		if p == sentinel {
			null[k] = true
		}
	}
}

// equal reports whether effective rows a and b hold equal keys.
func (ks *KeySet) equal(a, b int32) bool {
	for i := range ks.cols {
		c := &ks.cols[i]
		if c.i64 != nil {
			if c.i64[a] != c.i64[b] {
				return false
			}
		} else if c.str[a] != c.str[b] {
			return false
		}
	}
	return true
}

// keySetsEqual compares row a of ks with row b of other (aligned layouts:
// the planner unifies join key types before building).
func keySetsEqual(ks *KeySet, a int32, other *KeySet, b int32) bool {
	for i := range ks.cols {
		ca, cb := &ks.cols[i], &other.cols[i]
		if ca.i64 != nil {
			if cb.i64 == nil || ca.i64[a] != cb.i64[b] {
				return false
			}
		} else if cb.str == nil || ca.str[a] != cb.str[b] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// GroupBy over the open-addressing table.
// ---------------------------------------------------------------------------

// GroupBy assigns group ids to the candidate rows of a multi-column key in a
// single pass: fused per-row hashes feed an open-addressing table that
// allocates dense group ids in first-appearance order (the same numbering
// the refinement oracle GroupByRefine produces). The returned gids are
// positionally aligned with the effective candidate list; reprs holds one
// representative row id per group (the first member), used to materialize
// the key output columns.
//
// SQL semantics: NULL keys form their own group (NULLs group together).
func GroupBy(keys []*Vector, cands []int32) (gids []int32, ngroups int, reprs []int32) {
	ks := NewKeySet(keys, cands, false)
	gids = make([]int32, ks.n)
	t := NewOATable(ks.n/8+16, ks.equal)
	for k := 0; k < ks.n; k++ {
		id, _ := t.Insert(int32(k), ks.hash[k])
		gids[k] = id
	}
	ngroups = t.Len()
	reprs = make([]int32, ngroups)
	for g, k := range t.Reprs() {
		reprs[g] = ks.RowAt(int(k))
	}
	return gids, ngroups, reprs
}
