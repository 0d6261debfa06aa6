package vec

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"

	"monetlite/internal/mtypes"
)

// Compressed column encodings (ROADMAP item 3, paper §appendix on string
// heaps). A column's physical form can be one of three encodings chosen by
// size estimation over the actual data:
//
//   - EncDict: varchar values become bit-packed codes over a *sorted*
//     dictionary. Because the dictionary is sorted, group-by keys hash the
//     integer codes instead of strings and sort can order by code.
//   - EncFOR: integer-family values become frame-of-reference codes
//     (value - min + 1) bit-packed to the width of the observed range.
//   - EncRLE: sorted/clustered columns of any kind become (run value,
//     run end) pairs.
//
// All three reserve a NULL representation: Dict and FOR use code 0, RLE
// carries the kind's null sentinel in its run values. Decode() rebuilds the
// exact raw vector (modulo NaN-payload canonicalization for doubles, which
// the package invariants already require). Predicates run on encoded data
// one way for all three: the raw kernels evaluate them once per entry of the
// value domain (Domain: one entry per code, or per run of the window) and
// SelDomain expands the matching entries to rows, so an encoded selection is
// the raw one by construction (encoding_test.go holds the two against each
// other).

// Encoding identifies a column's physical representation.
type Encoding uint8

const (
	EncNone Encoding = iota
	EncDict
	EncFOR
	EncRLE
)

// String names the encoding as it appears in trace lines and the on-disk
// format spec (docs/STORAGE_FORMAT.md).
func (e Encoding) String() string {
	switch e {
	case EncDict:
		return "dict"
	case EncFOR:
		return "for"
	case EncRLE:
		return "rle"
	}
	return "none"
}

// DictMaxCard caps dictionary cardinality: columns with more distinct values
// fall back to FOR/RLE/none. 2^16 codes keep the packed width at most 17
// bits and mirror the string heap's dedup threshold.
const DictMaxCard = 1 << 16

// PackedInts is a bit-packed array of n unsigned integers of a fixed width
// (1..64 bits), stored little-endian within and across 64-bit words.
type PackedInts struct {
	Width int // bits per value
	N     int
	Words []uint64
	mask  uint64
}

// NewPackedInts wraps existing words (e.g. mapped from disk) as a packed
// array.
func NewPackedInts(words []uint64, width, n int) PackedInts {
	return PackedInts{Width: width, N: n, Words: words, mask: widthMask(width)}
}

func widthMask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(width) - 1
}

// PackUints bit-packs vals at the given width. Values must fit in width bits.
func PackUints(vals []uint64, width int) PackedInts {
	nbits := uint64(len(vals)) * uint64(width)
	words := make([]uint64, (nbits+63)/64)
	for i, v := range vals {
		bit := uint64(i) * uint64(width)
		w, off := bit>>6, bit&63
		words[w] |= v << off
		if off+uint64(width) > 64 {
			words[w+1] |= v >> (64 - off)
		}
	}
	return NewPackedInts(words, width, len(vals))
}

// Get returns value i. Values may straddle a word boundary.
func (p PackedInts) Get(i int) uint64 {
	bit := uint64(i) * uint64(p.Width)
	w, off := bit>>6, bit&63
	v := p.Words[w] >> off
	if off+uint64(p.Width) > 64 {
		v |= p.Words[w+1] << (64 - off)
	}
	return v & p.mask
}

// Bytes returns the packed payload size.
func (p PackedInts) Bytes() int64 { return int64(len(p.Words)) * 8 }

// Encoded is a compressed physical column. Exactly the fields of the active
// encoding are populated:
//
//	EncDict: Codes (0 = NULL, k = Dict[k-1]), CodeMax = len(Dict), Dict sorted
//	EncFOR:  Codes (0 = NULL, k = Base+k-1), CodeMax = range+1, Base = min
//	EncRLE:  RunVals (null sentinels allowed), RunEnds exclusive, last == N
type Encoded struct {
	Typ mtypes.Type
	Enc Encoding
	N   int

	Codes   PackedInts
	CodeMax uint64
	Dict    []string
	Base    int64

	RunVals *Vector
	RunEnds []int32

	// domain caches the dict/FOR value domain (Domain), built on first use.
	// An Encoded is immutable once built, so the domain never goes stale;
	// callers must not mutate it.
	domain atomic.Pointer[Vector]
}

// Describe renders a short human-readable form for trace lines.
func (e *Encoded) Describe() string {
	switch e.Enc {
	case EncDict:
		return fmt.Sprintf("dict(%d,%db)", len(e.Dict), e.Codes.Width)
	case EncFOR:
		return fmt.Sprintf("for(base=%d,%db)", e.Base, e.Codes.Width)
	case EncRLE:
		return fmt.Sprintf("rle(%d runs)", len(e.RunEnds))
	}
	return "none"
}

// SizeBytes returns the encoded payload size (what the representation costs
// in memory and on disk, excluding file headers).
func (e *Encoded) SizeBytes() int64 {
	switch e.Enc {
	case EncDict:
		sz := e.Codes.Bytes()
		for _, s := range e.Dict {
			sz += int64(len(s)) + 4
		}
		return sz
	case EncFOR:
		return e.Codes.Bytes() + 16
	case EncRLE:
		return rawPayloadBytes(e.RunVals) + 4*int64(len(e.RunEnds))
	}
	return 0
}

// RawSizeBytes returns the size the same rows would occupy unencoded (the
// MLC1 representation: fixed payloads, or offsets + deduplicated heap for
// varchar). The compression ratio reported by benches is RawSizeBytes /
// SizeBytes.
func (e *Encoded) RawSizeBytes() int64 {
	if e.Typ.Kind == mtypes.KVarchar {
		var heap int64 = 2 // the heap's NULL entry
		switch e.Enc {
		case EncDict:
			for _, s := range e.Dict {
				heap += int64(len(s)) + 1 // uvarint length (1 byte for short strings)
			}
		case EncRLE:
			seen := map[string]struct{}{}
			for _, s := range e.RunVals.Str {
				if s == StrNull {
					continue
				}
				if _, ok := seen[s]; !ok {
					seen[s] = struct{}{}
					heap += int64(len(s)) + 1
				}
			}
		}
		return 4*int64(e.N) + heap
	}
	return int64(e.N) * int64(kindPayloadWidth(e.Typ.Kind))
}

func kindPayloadWidth(k mtypes.Kind) int {
	switch k {
	case mtypes.KBool, mtypes.KTinyInt:
		return 1
	case mtypes.KSmallInt:
		return 2
	case mtypes.KInt, mtypes.KDate:
		return 4
	}
	return 8
}

// RawBytes returns the unencoded payload size of v: fixed-width values, or
// per-string bytes plus a 4-byte offset each for varchar (no heap dedup).
func RawBytes(v *Vector) int64 { return rawPayloadBytes(v) }

func rawPayloadBytes(v *Vector) int64 {
	if v.Typ.Kind == mtypes.KVarchar {
		var sz int64
		for _, s := range v.Str {
			sz += int64(len(s)) + 4
		}
		return sz
	}
	return int64(v.Len()) * int64(kindPayloadWidth(v.Typ.Kind))
}

// ---------------------------------------------------------------------------
// Encoding choice.
// ---------------------------------------------------------------------------

// EncodeColumn picks the cheapest encoding for v by measured size, or nil
// when no encoding saves at least a third over the raw representation (the
// hysteresis keeps borderline columns raw — decode costs are not free).
// ndvHint, when > 0, is a distinct-count estimate (storage's ColStats) used
// to skip hopeless dictionary attempts without scanning.
func EncodeColumn(v *Vector, ndvHint int) *Encoded {
	n := v.Len()
	if n == 0 {
		return nil
	}
	var raw int64
	var candidates []*Encoded
	switch v.Typ.Kind {
	case mtypes.KVarchar:
		dict, heapBytes := encodeDict(v, ndvHint)
		raw = 4*int64(n) + heapBytes
		if dict != nil {
			candidates = append(candidates, dict)
		}
		if rle := encodeRLE(v, raw); rle != nil {
			candidates = append(candidates, rle)
		}
	case mtypes.KDouble:
		raw = int64(n) * 8
		if rle := encodeRLE(v, raw); rle != nil {
			candidates = append(candidates, rle)
		}
	default:
		raw = int64(n) * int64(kindPayloadWidth(v.Typ.Kind))
		if f := encodeFOR(v); f != nil {
			candidates = append(candidates, f)
		}
		if rle := encodeRLE(v, raw); rle != nil {
			candidates = append(candidates, rle)
		}
	}
	var best *Encoded
	for _, c := range candidates {
		if best == nil || c.SizeBytes() < best.SizeBytes() {
			best = c
		}
	}
	if best == nil || best.SizeBytes()*3 > raw*2 {
		return nil
	}
	return best
}

// DictHintPrunes reports whether EncodeColumn, given ndvHint, skips the
// dictionary candidate without scanning: the estimate is far enough above
// DictMaxCard that the dictionary attempt is hopeless.
func DictHintPrunes(ndvHint int) bool { return ndvHint > DictMaxCard+DictMaxCard/2 }

// encodeDict builds a sorted-dictionary encoding of a varchar column. It
// also returns the deduplicated heap size of the values it saw (for the raw
// size estimate); on abort (cardinality above DictMaxCard) the heap size
// falls back to the offsets-dominated floor.
func encodeDict(v *Vector, ndvHint int) (*Encoded, int64) {
	n := len(v.Str)
	if DictHintPrunes(ndvHint) {
		return nil, 4 * int64(n)
	}
	seen := make(map[string]uint64, min(n, DictMaxCard))
	var heapBytes int64 = 2
	for _, s := range v.Str {
		if s == StrNull {
			continue
		}
		if _, ok := seen[s]; !ok {
			if len(seen) >= DictMaxCard {
				return nil, heapBytes
			}
			seen[s] = 0
			heapBytes += int64(len(s)) + 1
		}
	}
	if len(seen) == 0 {
		return nil, heapBytes // all NULL: RLE covers it
	}
	dict := make([]string, 0, len(seen))
	for s := range seen {
		dict = append(dict, s)
	}
	sort.Strings(dict)
	for i, s := range dict {
		seen[s] = uint64(i + 1)
	}
	codes := make([]uint64, n)
	for i, s := range v.Str {
		if s != StrNull {
			codes[i] = seen[s]
		}
	}
	width := bits.Len64(uint64(len(dict)))
	return &Encoded{
		Typ: v.Typ, Enc: EncDict, N: n,
		Codes: PackUints(codes, width), CodeMax: uint64(len(dict)), Dict: dict,
	}, heapBytes
}

// forMaxRange caps the FOR code width at 56 bits; wider ranges cannot
// compress an 8-byte value meaningfully and risk CodeMax overflow.
const forMaxRange = 1 << 56

// encodeFOR builds a frame-of-reference encoding of an integer-family
// column: code = value - min + 1 (0 reserved for NULL), bit-packed.
func encodeFOR(v *Vector) *Encoded {
	xs := AsInts64(v)
	var lo, hi int64
	any := false
	for _, x := range xs {
		if x == mtypes.NullInt64 {
			continue
		}
		if !any {
			lo, hi, any = x, x, true
		} else if x < lo {
			lo = x
		} else if x > hi {
			hi = x
		}
	}
	if !any {
		return nil // all NULL: RLE covers it
	}
	rangeU := uint64(hi) - uint64(lo) // two's-complement wrap-safe for hi >= lo
	if rangeU >= forMaxRange {
		return nil
	}
	codeMax := rangeU + 1
	width := bits.Len64(codeMax)
	codes := make([]uint64, len(xs))
	for i, x := range xs {
		if x != mtypes.NullInt64 {
			codes[i] = uint64(x) - uint64(lo) + 1
		}
	}
	return &Encoded{
		Typ: v.Typ, Enc: EncFOR, N: len(xs),
		Codes: PackUints(codes, width), CodeMax: codeMax, Base: lo,
	}
}

// encodeRLE builds a run-length encoding: one (value, exclusive end) pair
// per maximal run of equal values. NULL runs keep the kind's sentinel as the
// run value; for doubles every NaN payload is one NULL run value (the
// package-level canonicalization invariant). Runs are counted first, so a
// column whose RLE payload could never pass EncodeColumn's hysteresis
// against raw bytes returns nil before any run is materialized.
func encodeRLE(v *Vector, raw int64) *Encoded {
	n := v.Len()
	if n == 0 {
		return nil
	}
	var nruns int
	var size int64 // run-value payload bytes (see SizeBytes)
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		nruns = countRuns(v.I8)
	case mtypes.KSmallInt:
		nruns = countRuns(v.I16)
	case mtypes.KInt, mtypes.KDate:
		nruns = countRuns(v.I32)
	case mtypes.KBigInt, mtypes.KDecimal:
		nruns = countRuns(v.I64)
	case mtypes.KDouble:
		nruns = countRuns(v.F64)
	case mtypes.KVarchar:
		nruns, size = countStrRuns(v.Str)
	}
	if v.Typ.Kind != mtypes.KVarchar {
		size = int64(nruns) * int64(kindPayloadWidth(v.Typ.Kind))
	}
	if size += 4 * int64(nruns); size*3 > raw*2 {
		return nil
	}
	rv := &Vector{Typ: v.Typ}
	var ends []int32
	switch v.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		rv.I8, ends = buildRuns(v.I8, nruns)
	case mtypes.KSmallInt:
		rv.I16, ends = buildRuns(v.I16, nruns)
	case mtypes.KInt, mtypes.KDate:
		rv.I32, ends = buildRuns(v.I32, nruns)
	case mtypes.KBigInt, mtypes.KDecimal:
		rv.I64, ends = buildRuns(v.I64, nruns)
	case mtypes.KDouble:
		rv.F64, ends = buildRuns(v.F64, nruns)
		for i, x := range rv.F64 {
			if mtypes.IsNullF64(x) {
				rv.F64[i] = mtypes.NullFloat64()
			}
		}
	case mtypes.KVarchar:
		rv.Str, ends = buildRuns(v.Str, nruns)
	}
	return &Encoded{Typ: v.Typ, Enc: EncRLE, N: n, RunVals: rv, RunEnds: ends}
}

// runBreak reports whether b starts a new run after a. x != x holds only
// for NaN, so every NaN payload (a DOUBLE NULL) continues a NaN run, -0.0
// and +0.0 share a run, and the integer and string instantiations reduce to
// plain inequality.
func runBreak[T comparable](a, b T) bool {
	return a != b && (a == a || b == b)
}

func countRuns[T comparable](xs []T) int {
	runs := 1
	for i := 1; i < len(xs); i++ {
		if runBreak(xs[i-1], xs[i]) {
			runs++
		}
	}
	return runs
}

// countStrRuns counts varchar runs and sums their values' payload bytes
// (length plus a 4-byte length prefix each, as rawPayloadBytes counts them).
func countStrRuns(xs []string) (int, int64) {
	runs, size := 1, int64(len(xs[0]))+4
	for i := 1; i < len(xs); i++ {
		if xs[i-1] != xs[i] {
			runs++
			size += int64(len(xs[i])) + 4
		}
	}
	return runs, size
}

// buildRuns returns each run's first value and exclusive end.
func buildRuns[T comparable](xs []T, nruns int) ([]T, []int32) {
	vals := make([]T, 0, nruns)
	ends := make([]int32, 0, nruns)
	vals = append(vals, xs[0])
	for i := 1; i < len(xs); i++ {
		if runBreak(xs[i-1], xs[i]) {
			ends = append(ends, int32(i))
			vals = append(vals, xs[i])
		}
	}
	return vals, append(ends, int32(len(xs)))
}

// ---------------------------------------------------------------------------
// Decode.
// ---------------------------------------------------------------------------

// Decode materializes the exact raw vector the encoding was built from.
// Dictionary decode shares the dictionary's string backing (no byte copies).
func (e *Encoded) Decode() *Vector {
	out := New(e.Typ, e.N)
	switch e.Enc {
	case EncDict:
		for i := 0; i < e.N; i++ {
			if c := e.Codes.Get(i); c == 0 {
				out.Str[i] = StrNull
			} else {
				out.Str[i] = e.Dict[c-1]
			}
		}
	case EncFOR:
		for i := 0; i < e.N; i++ {
			if c := e.Codes.Get(i); c == 0 {
				out.SetNull(i)
			} else {
				e.setInt(out, i, int64(uint64(e.Base)+c-1))
			}
		}
	case EncRLE:
		start := 0
		for r, end := range e.RunEnds {
			e.fillRun(out, start, int(end), r)
			start = int(end)
		}
	}
	return out
}

func (e *Encoded) setInt(out *Vector, i int, x int64) {
	switch e.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		out.I8[i] = int8(x)
	case mtypes.KSmallInt:
		out.I16[i] = int16(x)
	case mtypes.KInt, mtypes.KDate:
		out.I32[i] = int32(x)
	default:
		out.I64[i] = x
	}
}

func (e *Encoded) fillRun(out *Vector, lo, hi, run int) {
	switch e.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		fill(out.I8[lo:hi], e.RunVals.I8[run])
	case mtypes.KSmallInt:
		fill(out.I16[lo:hi], e.RunVals.I16[run])
	case mtypes.KInt, mtypes.KDate:
		fill(out.I32[lo:hi], e.RunVals.I32[run])
	case mtypes.KBigInt, mtypes.KDecimal:
		fill(out.I64[lo:hi], e.RunVals.I64[run])
	case mtypes.KDouble:
		fill(out.F64[lo:hi], e.RunVals.F64[run])
	case mtypes.KVarchar:
		fill(out.Str[lo:hi], e.RunVals.Str[run])
	}
}

func fill[T any](dst []T, v T) {
	for i := range dst {
		dst[i] = v
	}
}

// ---------------------------------------------------------------------------
// Value domains: a predicate evaluated once per distinct value.
// ---------------------------------------------------------------------------

// Domain returns the values rows [lo, hi) are drawn from, or nil when there
// are more than limit of them. For dict and FOR, entry k is the value of code
// k: entry 0 is NULL, then the sorted dictionary, or Base, Base+1, … up to
// Base+CodeMax-1 in the column's type (values no row holds included). For RLE
// the entries are the values of the runs overlapping the window, in order.
// A predicate evaluated over the domain therefore decides every row of the
// window from its code or run alone (SelDomain). A dict or FOR domain is
// built once per Encoded and shared by every caller, who must not mutate it.
func (e *Encoded) Domain(lo, hi, limit int) *Vector {
	switch e.Enc {
	case EncDict, EncFOR:
		if limit <= 0 || e.CodeMax >= uint64(limit) {
			return nil
		}
		if d := e.domain.Load(); d != nil {
			return d
		}
		out := New(e.Typ, int(e.CodeMax)+1)
		out.SetNull(0)
		if e.Enc == EncDict {
			copy(out.Str[1:], e.Dict)
		} else {
			for k := uint64(1); k <= e.CodeMax; k++ {
				e.setInt(out, int(k), int64(uint64(e.Base)+k-1))
			}
		}
		e.domain.Store(out)
		return out
	case EncRLE:
		r0, r1 := e.windowRuns(lo, hi)
		if r1-r0 > limit {
			return nil
		}
		return e.RunVals.Slice(r0, r1)
	}
	return nil
}

// windowRuns returns the half-open range of runs overlapping rows [lo, hi).
func (e *Encoded) windowRuns(lo, hi int) (r0, r1 int) {
	r0 = sort.Search(len(e.RunEnds), func(r int) bool { return int(e.RunEnds[r]) > lo })
	r1 = sort.Search(len(e.RunEnds), func(r int) bool { return int(e.RunEnds[r]) >= hi }) + 1
	return r0, min(r1, len(e.RunEnds))
}

// SelDomain selects the window rows [lo, hi) whose value is a domain entry
// listed in match (ascending indexes into Domain(lo, hi, ·); nil = every
// entry) under the usual candidate-list contract: cands are relative to lo,
// nil means every row of the window, and the result is never nil.
func (e *Encoded) SelDomain(match []int32, cands []int32, lo, hi int) []int32 {
	if match == nil {
		if cands == nil {
			return Range(hi - lo)
		}
		return cands
	}
	out := make([]int32, 0, NumCands(hi-lo, cands)/2+8)
	if len(match) == 0 {
		return out
	}
	if e.Enc == EncRLE {
		r0, r1 := e.windowRuns(lo, hi)
		return e.expandRuns(match, r0, r1, cands, lo, hi, out)
	}
	hit := make([]bool, e.CodeMax+1)
	for _, k := range match {
		hit[k] = true
	}
	if cands == nil {
		for g := lo; g < hi; g++ {
			if hit[e.Codes.Get(g)] {
				out = append(out, int32(g-lo))
			}
		}
		return out
	}
	for _, i := range cands {
		if hit[e.Codes.Get(lo+int(i))] {
			out = append(out, i)
		}
	}
	return out
}

// expandRuns appends to out the window-relative rows of the matching runs
// (indexes relative to r0; runs [r0, r1) cover the window), intersected with
// cands.
func (e *Encoded) expandRuns(matchRuns []int32, r0, r1 int, cands []int32, lo, hi int, out []int32) []int32 {
	if cands == nil {
		for _, k := range matchRuns {
			r := r0 + int(k)
			start := lo
			if r > 0 {
				start = max(start, int(e.RunEnds[r-1]))
			}
			for g := start; g < min(int(e.RunEnds[r]), hi); g++ {
				out = append(out, int32(g-lo))
			}
		}
		return out
	}
	match := make([]bool, r1-r0)
	for _, k := range matchRuns {
		match[k] = true
	}
	r := r0
	for _, i := range cands {
		for int(e.RunEnds[r]) <= lo+int(i) {
			r++
		}
		if match[r-r0] {
			out = append(out, i)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Code extraction for group-by and sort.
// ---------------------------------------------------------------------------

// CodesI32 returns the dictionary codes of window rows [lo, hi) as an INT
// vector, dense over sel (window-relative candidates; nil = all rows).
// Code 0 represents NULL and — because the dictionary is sorted — the codes
// order, group and compare exactly like the strings they stand for: NULL (0)
// below everything, ties identical. Only valid for EncDict (codes fit i32).
func (e *Encoded) CodesI32(lo, hi int, sel []int32) *Vector {
	var out *Vector
	if sel == nil {
		out = New(mtypes.Int, hi-lo)
		for g := lo; g < hi; g++ {
			out.I32[g-lo] = int32(e.Codes.Get(g))
		}
		return out
	}
	out = New(mtypes.Int, len(sel))
	for k, i := range sel {
		out.I32[k] = int32(e.Codes.Get(lo + int(i)))
	}
	return out
}

// DecodeCodes maps an INT vector of dictionary codes (as produced by
// CodesI32, possibly gathered) back to the varchar values.
func (e *Encoded) DecodeCodes(codes *Vector) *Vector {
	out := New(e.Typ, codes.Len())
	for i, c := range codes.I32 {
		if c == 0 {
			out.Str[i] = StrNull
		} else {
			out.Str[i] = e.Dict[c-1]
		}
	}
	return out
}
