package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"monetlite/internal/mtypes"
)

func TestPackedIntsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 3, 7, 8, 13, 31, 33, 56, 63, 64} {
		n := 1 + rng.Intn(200)
		vals := make([]uint64, n)
		mask := widthMask(width)
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		p := PackUints(vals, width)
		for i, want := range vals {
			if got := p.Get(i); got != want {
				t.Fatalf("width %d: Get(%d) = %d want %d", width, i, got, want)
			}
		}
	}
}

// TestPackedIntsFunnelMatchesGet holds the block-wise funnel readers
// (Unpack, UnpackAt) to Get at every width from 1 to 64, over windows that
// start and end anywhere, across word boundaries and into the last word of
// an unpadded Words slice (exactly as long as the bits need, as a mapped
// file holds it).
func TestPackedIntsFunnelMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for width := 1; width <= 64; width++ {
		n := 1 + rng.Intn(300)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & widthMask(width)
		}
		p := PackUints(vals, width)
		if want := (n*width + 63) / 64; len(p.Words) != want {
			t.Fatalf("width %d: %d words, want %d (no padding)", width, len(p.Words), want)
		}
		p = NewPackedInts(p.Words[:len(p.Words):len(p.Words)], width, n)
		for trial := 0; trial < 20; trial++ {
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			if trial == 0 {
				lo, hi = 0, n
			}
			got := make([]uint64, hi-lo)
			p.Unpack(lo, got)
			idx := make([]int32, rng.Intn(n-lo+1))
			for k := range idx {
				idx[k] = int32(rng.Intn(n - lo))
			}
			at := make([]uint64, len(idx))
			p.UnpackAt(lo, idx, at)
			for k, v := range got {
				if want := p.Get(lo + k); v != want || v != vals[lo+k] {
					t.Fatalf("width %d: Unpack(%d)[%d] = %d, Get = %d, packed %d", width, lo, k, v, want, vals[lo+k])
				}
			}
			for k, i := range idx {
				if want := p.Get(lo + int(i)); at[k] != want {
					t.Fatalf("width %d: UnpackAt(%d, %d) = %d, Get = %d", width, lo, i, at[k], want)
				}
			}
		}
	}
}

// BenchmarkSelDomain selects from a dictionary-coded column of 2^20 rows
// (1 000 codes, 10 bits) at 1% and at 90% selectivity, over the whole
// window and under a candidate list of every other row.
func BenchmarkSelDomain(b *testing.B) {
	const n, card = 1 << 20, 1000
	rng := rand.New(rand.NewSource(3))
	v := New(mtypes.Varchar, n)
	for i := range v.Str {
		v.Str[i] = fmt.Sprintf("v%04d", rng.Intn(card))
	}
	e := EncodeColumn(v, 0)
	if e == nil || e.Enc != EncDict {
		b.Fatal("column not dictionary-coded")
	}
	half := make([]int32, 0, n/2)
	for i := int32(0); i < n; i += 2 {
		half = append(half, i)
	}
	for _, sel := range []struct {
		name  string
		codes int
	}{{"1pct", card / 100}, {"90pct", card * 9 / 10}} {
		match := make([]int32, sel.codes)
		for k := range match {
			match[k] = int32(k + 1)
		}
		for _, c := range []struct {
			name  string
			cands []int32
		}{{"window", nil}, {"cands", half}} {
			b.Run(sel.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e.SelDomain(match, c.cands, 0, n)
				}
			})
		}
	}
}

// vecEqualNullAware compares two vectors row-for-row treating NULL == NULL
// (doubles canonicalize NaN payloads, so Value comparison alone is not
// enough).
func vecEqualNullAware(a, b *Vector) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("length %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		an, bn := a.IsNull(i), b.IsNull(i)
		if an != bn {
			return fmt.Errorf("row %d: null %v vs %v", i, an, bn)
		}
		if an {
			continue
		}
		av, bv := a.Value(i), b.Value(i)
		if av.Typ.Kind == mtypes.KDouble {
			if av.F != bv.F {
				return fmt.Errorf("row %d: %v vs %v", i, av.F, bv.F)
			}
		} else if av.Typ.Kind == mtypes.KVarchar {
			if av.S != bv.S {
				return fmt.Errorf("row %d: %q vs %q", i, av.S, bv.S)
			}
		} else if av.I != bv.I {
			return fmt.Errorf("row %d: %d vs %d", i, av.I, bv.I)
		}
	}
	return nil
}

// randTestVec builds a random vector of the given type. domain controls the
// distinct-value spread (small domains force runs and dictionaries) and
// nullFrac the NULL density.
func randTestVec(rng *rand.Rand, typ mtypes.Type, n, domain int, nullFrac float64) *Vector {
	v := New(typ, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < nullFrac {
			v.SetNull(i)
			continue
		}
		x := rng.Intn(domain)
		switch typ.Kind {
		case mtypes.KVarchar:
			v.Str[i] = fmt.Sprintf("val-%04d", x)
		case mtypes.KDouble:
			v.F64[i] = float64(x) * 1.5
		case mtypes.KBool:
			v.I8[i] = int8(x % 2)
		case mtypes.KTinyInt:
			v.I8[i] = int8(x%100 - 50)
		case mtypes.KSmallInt:
			v.I16[i] = int16(x - domain/2)
		case mtypes.KInt, mtypes.KDate:
			v.I32[i] = int32(x*7 - domain)
		default:
			v.I64[i] = int64(x)*11 - int64(domain)
		}
	}
	return v
}

var encTestTypes = []mtypes.Type{
	mtypes.Bool, mtypes.TinyInt, mtypes.SmallInt, mtypes.Int,
	mtypes.BigInt, mtypes.Date, mtypes.Decimal(10, 2), mtypes.Double,
	mtypes.VarcharN(32),
}

// sortTestVec stable-sorts v in place (ascending, NULLs first) so sorted
// inputs exercise RLE run detection and FOR on clustered data.
func sortTestVec(v *Vector) {
	if v.Len() == 0 {
		return
	}
	*v = *Gather(v, SortOrder([]SortKey{{Vec: v}}, v.Len()))
}

// TestEncodeDecodeRoundTrip fuzzes every encoder: whatever EncodeColumn (or
// a forced individual encoder) produces must Decode back to the original
// vector, NULLs included.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 300; iter++ {
		typ := encTestTypes[rng.Intn(len(encTestTypes))]
		n := rng.Intn(400)
		domain := 1 + rng.Intn(50)
		if rng.Intn(3) == 0 {
			domain = 1 + rng.Intn(100000) // high cardinality
		}
		nullFrac := 0.0
		switch rng.Intn(4) {
		case 1:
			nullFrac = 0.1
		case 2:
			nullFrac = 0.9
		case 3:
			nullFrac = 1.0 // all NULL
		}
		v := randTestVec(rng, typ, n, domain, nullFrac)
		if rng.Intn(2) == 0 {
			sortTestVec(v) // sorted input: exercises RLE run detection
		}
		encs := []*Encoded{EncodeColumn(v, 0)}
		if typ.Kind == mtypes.KVarchar {
			d, _ := encodeDict(v, 0)
			encs = append(encs, d)
		} else if typ.Kind != mtypes.KDouble {
			encs = append(encs, encodeFOR(v))
		}
		if n > 0 {
			encs = append(encs, encodeRLE(v, rleAnySize))
		}
		for _, e := range encs {
			if e == nil {
				continue
			}
			if err := vecEqualNullAware(v, e.Decode()); err != nil {
				t.Fatalf("iter %d %s %s n=%d: %v", iter, typ, e.Describe(), n, err)
			}
		}
	}
}

// TestEncodeRoundTripEdgeCases pins the corners the fuzzer may miss: empty,
// single value, max-cardinality dictionary abort, and FOR ranges adjacent to
// the overflow cap.
func TestEncodeRoundTripEdgeCases(t *testing.T) {
	if EncodeColumn(New(mtypes.Int, 0), 0) != nil {
		t.Fatal("empty column must not encode")
	}
	one := strVec("x")
	if d, _ := encodeDict(one, 0); d != nil {
		if err := vecEqualNullAware(one, d.Decode()); err != nil {
			t.Fatalf("single value dict: %v", err)
		}
	}

	// Max-cardinality abort: more distinct strings than DictMaxCard.
	big := New(mtypes.VarcharN(16), DictMaxCard+8)
	for i := range big.Str {
		big.Str[i] = fmt.Sprintf("s%06d", i)
	}
	if d, _ := encodeDict(big, 0); d != nil {
		t.Fatalf("dict should abort above DictMaxCard, got %s", d.Describe())
	}
	// The NDV hint alone must also veto the attempt.
	if d, _ := encodeDict(big, 2*DictMaxCard); d != nil {
		t.Fatal("dict should abort on ndv hint")
	}

	// FOR deltas adjacent to the overflow cap: range forMaxRange-1 encodes,
	// range forMaxRange does not.
	v := New(mtypes.BigInt, 3)
	v.I64[0], v.I64[1], v.I64[2] = -10, 5, -10+forMaxRange-1
	f := encodeFOR(v)
	if f == nil {
		t.Fatal("range just under cap must encode")
	}
	if err := vecEqualNullAware(v, f.Decode()); err != nil {
		t.Fatalf("overflow-adjacent FOR: %v", err)
	}
	v.I64[2] = -10 + forMaxRange
	if encodeFOR(v) != nil {
		t.Fatal("range at cap must not encode")
	}

	// Negative extremes: values straddling zero with a NULL sentinel nearby.
	w := New(mtypes.BigInt, 4)
	w.I64[0] = math.MinInt64 + 1 // NullInt64 is MinInt64
	w.I64[1] = math.MinInt64 + 5
	w.SetNull(2)
	w.I64[3] = math.MinInt64 + 2
	f = encodeFOR(w)
	if f == nil {
		t.Fatal("near-sentinel range must encode")
	}
	if err := vecEqualNullAware(w, f.Decode()); err != nil {
		t.Fatalf("near-sentinel FOR: %v", err)
	}
}

// randCmpConst picks a comparison constant, sometimes from the column's
// domain, sometimes off-domain (including other types to exercise coercion
// and kernel fallback).
func randCmpConst(rng *rand.Rand, typ mtypes.Type, v *Vector) mtypes.Value {
	switch rng.Intn(6) {
	case 0: // existing value
		if v.Len() > 0 {
			i := rng.Intn(v.Len())
			if !v.IsNull(i) {
				return v.Value(i)
			}
		}
		fallthrough
	case 1, 2: // same-type random
		switch typ.Kind {
		case mtypes.KVarchar:
			return mtypes.NewString(fmt.Sprintf("val-%04d", rng.Intn(60)))
		case mtypes.KDouble:
			return mtypes.NewDouble(float64(rng.Intn(100)) * 1.5)
		default:
			return mtypes.Value{Typ: typ, I: int64(rng.Intn(200) - 100)}
		}
	case 3: // int constant (coerces against decimal; truncates against narrow)
		return mtypes.NewInt(mtypes.Int, int64(rng.Intn(1000)-500))
	case 4: // double constant (forces float-comparison fallback on int cols)
		return mtypes.NewDouble(float64(rng.Intn(100)) - 49.5)
	default: // NULL
		return mtypes.NullValue(typ)
	}
}

var cmpOps = []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}

// domainSel is selection on encoded data as the engine runs it: a raw kernel
// evaluated over the value domain of window [lo, hi), its matches expanded to
// the window's rows by SelDomain.
func domainSel(e *Encoded, lo, hi int, cands []int32, kernel func(v *Vector, cands []int32) []int32) []int32 {
	return e.SelDomain(kernel(e.Domain(lo, hi, math.MaxInt), nil), cands, lo, hi)
}

// selKernel is a raw selection kernel bound to its constants.
type selKernel struct {
	name string
	run  func(v *Vector, cands []int32) []int32
}

// selKernels binds SelCmp, SelRange, SelIn and SelNull to the given
// constants.
func selKernels(op CmpOp, val, loV, hiV mtypes.Value, loI, hiI bool, in []mtypes.Value) []selKernel {
	return []selKernel{
		{fmt.Sprintf("%v %v", op, val), func(v *Vector, c []int32) []int32 { return SelCmp(v, op, val, c) }},
		{fmt.Sprintf("range [%v,%v] %v%v", loV, hiV, loI, hiI), func(v *Vector, c []int32) []int32 {
			return SelRange(v, loV, hiV, loI, hiI, c)
		}},
		{fmt.Sprintf("in %v", in), func(v *Vector, c []int32) []int32 { return SelIn(v, in, c) }},
		{"is null", SelNull},
	}
}

// TestEncodedKernelDifferential holds selection on encoded data (domainSel)
// against the raw-slice kernels over the same window: for random vectors,
// encodings, windows, candidate lists and constants, SelCmp, SelRange, SelIn
// and SelNull over the domain must select exactly the rows they select over
// the raw window.
func TestEncodedKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 600; iter++ {
		typ := encTestTypes[rng.Intn(len(encTestTypes))]
		n := 1 + rng.Intn(300)
		v := randTestVec(rng, typ, n, 1+rng.Intn(40), []float64{0, 0.15}[rng.Intn(2)])
		if rng.Intn(2) == 0 {
			sortTestVec(v)
		}
		var encs []*Encoded
		if typ.Kind == mtypes.KVarchar {
			if d, _ := encodeDict(v, 0); d != nil {
				encs = append(encs, d)
			}
		} else if typ.Kind != mtypes.KDouble {
			if f := encodeFOR(v); f != nil {
				encs = append(encs, f)
			}
		}
		if r := encodeRLE(v, rleAnySize); r != nil {
			encs = append(encs, r)
		}
		// Window and candidate list (window-relative).
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		var cands []int32
		if rng.Intn(2) == 0 {
			for i := 0; i < hi-lo; i++ {
				if rng.Intn(3) > 0 {
					cands = append(cands, int32(i))
				}
			}
			if cands == nil {
				cands = []int32{}
			}
		}
		win := v.Slice(lo, hi)
		for _, e := range encs {
			op := cmpOps[rng.Intn(len(cmpOps))]
			val := randCmpConst(rng, typ, v)
			loV, hiV := randCmpConst(rng, typ, v), randCmpConst(rng, typ, v)
			loI, hiI := rng.Intn(2) == 0, rng.Intn(2) == 0
			in := make([]mtypes.Value, 1+rng.Intn(4))
			for i := range in {
				in[i] = randCmpConst(rng, typ, v)
			}
			for _, k := range selKernels(op, val, loV, hiV, loI, hiI, in) {
				got := domainSel(e, lo, hi, cands, k.run)
				if want := k.run(win, cands); !eqCands(got, want) {
					t.Fatalf("iter %d %s %s %s window [%d,%d): got %v want %v",
						iter, typ, e.Describe(), k.name, lo, hi, got, want)
				}
			}
		}
	}
}

// TestDictCodesRoundTrip pins the group-by/sort contract: CodesI32 over a
// window+selection followed by DecodeCodes reproduces the gathered strings,
// and code order equals string order.
func TestDictCodesRoundTrip(t *testing.T) {
	v := strVec("cherry", StrNull, "apple", "banana", "apple", "cherry")
	d, _ := encodeDict(v, 0)
	if d == nil {
		t.Fatal("dict encode failed")
	}
	codes := d.CodesI32(1, 6, []int32{0, 1, 3, 4})
	back := d.DecodeCodes(codes)
	want := strVec(StrNull, "apple", "apple", "cherry")
	if err := vecEqualNullAware(back, want); err != nil {
		t.Fatalf("codes round trip: %v", err)
	}
	// Sorted dictionary: code comparisons mirror string comparisons, with
	// NULL (code 0) below every value.
	all := d.CodesI32(0, 6, nil)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			ci, cj := all.I32[i], all.I32[j]
			si, sj := v.Str[i], v.Str[j]
			strLess := (si == StrNull && sj != StrNull) || (si != StrNull && sj != StrNull && si < sj)
			if (ci < cj) != strLess {
				t.Fatalf("code order mismatch at %d,%d", i, j)
			}
		}
	}
}

// fuzzVec decodes one row per byte into a vector of typ: 0x80 is NULL, any
// other byte b is int8(b) — spanning TINYINT's whole range and SMALLINT's
// nearly so, narrower than the other kinds' so a FOR domain stays small — or
// a short string for varchar.
func fuzzVec(typ mtypes.Type, data []byte) *Vector {
	v := New(typ, len(data))
	for i, b := range data {
		if b == 0x80 {
			v.SetNull(i)
			continue
		}
		x := int64(int8(b))
		switch typ.Kind {
		case mtypes.KVarchar:
			v.Str[i] = fmt.Sprintf("s%02x", b%32)
		case mtypes.KDouble:
			v.F64[i] = float64(x) / 4
		case mtypes.KBool:
			v.I8[i] = int8(x & 1)
		case mtypes.KTinyInt:
			v.I8[i] = int8(x)
		case mtypes.KSmallInt:
			v.I16[i] = int16(x * 258)
		case mtypes.KInt, mtypes.KDate:
			v.I32[i] = int32(x * 5)
		default:
			v.I64[i] = x * 7
		}
	}
	return v
}

// fuzzConst builds a comparison constant of one of four kinds: the column's
// own type, INT, DOUBLE or NULL.
func fuzzConst(typ mtypes.Type, kind uint8, c int64) mtypes.Value {
	switch kind % 4 {
	case 1:
		return mtypes.NewInt(mtypes.Int, c)
	case 2:
		return mtypes.NewDouble(float64(c) / 8)
	case 3:
		return mtypes.NullValue(typ)
	}
	switch typ.Kind {
	case mtypes.KVarchar:
		return mtypes.NewString(fmt.Sprintf("s%02x", uint8(c)%32))
	case mtypes.KDouble:
		return mtypes.NewDouble(float64(c) / 4)
	}
	return mtypes.Value{Typ: typ, I: c}
}

// FuzzEncodedSelect checks selection on encoded data (domainSel) against the
// raw kernels over the same window: the fuzz bytes become a vector, encoded
// as dict, FOR or RLE (RLE where the picked encoding does not apply), and
// SelCmp, SelRange, SelIn and SelNull run over a fuzzed window and candidate
// list with fuzzed constants. The committed corpus in
// testdata/fuzz/FuzzEncodedSelect is its seed set.
func FuzzEncodedSelect(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind, enc, op uint8, c, d int64, lo, hi uint16, candBits uint64, data []byte) {
		if len(data) == 0 {
			return
		}
		typ := encTestTypes[int(kind)%len(encTestTypes)]
		v := fuzzVec(typ, data)
		var e *Encoded
		switch enc % 3 {
		case 0:
			if typ.Kind == mtypes.KVarchar {
				e, _ = encodeDict(v, 0)
			}
		case 1:
			if typ.Kind != mtypes.KVarchar && typ.Kind != mtypes.KDouble {
				e = encodeFOR(v)
			}
		}
		if e == nil {
			e = encodeRLE(v, rleAnySize)
		}
		n := len(data)
		wlo := int(lo) % n
		whi := wlo + 1 + int(hi)%(n-wlo)
		var cands []int32
		if candBits != 0 {
			cands = []int32{}
			for i := 0; i < whi-wlo; i++ {
				if candBits>>(i%64)&1 == 1 {
					cands = append(cands, int32(i))
				}
			}
		}
		cmp := cmpOps[int(op)%len(cmpOps)]
		val := fuzzConst(typ, op/6, c)
		loV, hiV := fuzzConst(typ, op/24, c), fuzzConst(typ, op/96, d)
		loI, hiI := op&1 == 0, op&2 == 0
		win := v.Slice(wlo, whi)
		for _, k := range selKernels(cmp, val, loV, hiV, loI, hiI, []mtypes.Value{loV, hiV}) {
			want := k.run(win, cands)
			if got := domainSel(e, wlo, whi, cands, k.run); !eqCands(got, want) {
				t.Fatalf("%s %s %s window [%d,%d): got %v want %v", typ, e.Describe(), k.name, wlo, whi, got, want)
			}
			// A narrow integer column selects what its values widened to
			// BIGINT select: no constant wraps.
			switch typ.Kind {
			case mtypes.KBool, mtypes.KTinyInt, mtypes.KSmallInt, mtypes.KInt, mtypes.KDate:
				wide := &Vector{Typ: mtypes.BigInt, I64: AsInts64(win)}
				if wideSel := k.run(wide, cands); !eqCands(want, wideSel) {
					t.Fatalf("%s %s: selects %v, widened to BIGINT %v", typ, k.name, want, wideSel)
				}
			}
		}
	})
}
