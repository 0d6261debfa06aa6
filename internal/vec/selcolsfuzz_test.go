package vec_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

// selColsTypes are the column types FuzzSelectColumns draws from: every
// integer width, DATE, DECIMALs of two scales and the types the kernel
// leaves to the general path (DOUBLE, VARCHAR).
var selColsTypes = []mtypes.Type{
	mtypes.TinyInt, mtypes.SmallInt, mtypes.Int, mtypes.Date, mtypes.BigInt,
	mtypes.Decimal(18, 2), mtypes.Decimal(9, 2), mtypes.Decimal(18, 4),
	mtypes.Double, mtypes.Varchar,
}

// intCompared is CmpVec's rule for comparing two columns as integers.
func intCompared(a, b mtypes.Type) bool {
	other := func(t mtypes.Type) bool { return t.Kind == mtypes.KDouble || t.Kind == mtypes.KVarchar }
	if other(a) || other(b) || (a.Kind == mtypes.KDecimal) != (b.Kind == mtypes.KDecimal) {
		return false
	}
	return a.Kind != mtypes.KDecimal || a.Scale == b.Scale
}

// setColValue stores x in row i of v, clamped into v's range; null stores
// the NULL sentinel.
func setColValue(v *vec.Vector, i int, x int64, null bool) {
	switch {
	case null:
		v.SetNull(i)
	case v.Typ.Kind == mtypes.KVarchar:
		v.Str[i] = fmt.Sprintf("%+021d", x) // zero-padded: string order is number order
	case v.Typ.Kind == mtypes.KDouble:
		v.F64[i] = float64(x)
	default:
		lo, hi := mtypes.IntRange(v.Typ.Kind)
		v.Set(i, mtypes.Value{Typ: v.Typ, I: min(max(x, lo), hi)})
	}
}

// byteColValue maps one fuzzed byte to a value: 0xFF is NULL, 0xFE and 0xFD
// the largest and smallest value of the range, anything else a value in
// [-3, 3], so equal values are common.
func byteColValue(v *vec.Vector, i int, c byte) {
	switch c {
	case 0xFF:
		setColValue(v, i, 0, true)
	case 0xFE:
		setColValue(v, i, math.MaxInt64, false)
	case 0xFD:
		setColValue(v, i, math.MinInt64+1, false)
	default:
		setColValue(v, i, int64(c%7)-3, false)
	}
}

// FuzzSelectColumns checks vec.SelColumns and vec.SelColumnPairs against
// CmpVec + SelTrue over gathered columns: every operator, every width pair
// (the kernel must decline exactly the pairs CmpVec does not compare as
// integers), NULL sentinels and range boundaries, and nil, ascending and
// unordered candidates with duplicates. Rows 0 and 1 take x and y whole
// (math.MinInt64 is NULL); the bytes of data give two values per further
// row; mode picks the candidates and whether the rows are tiled past two
// kernel blocks.
func FuzzSelectColumns(f *testing.F) {
	f.Add(uint8(vec.CmpLt), uint8(2), uint8(2), uint8(0), int64(5), int64(6), []byte{1, 2, 0xFF, 3, 4, 0xFF})
	f.Add(uint8(vec.CmpNe), uint8(2), uint8(4), uint8(9), int64(math.MinInt64), int64(7), []byte{0xFE, 0xFE, 0xFD, 0xFE})
	f.Fuzz(func(t *testing.T, op, ka, kb, mode uint8, x, y int64, data []byte) {
		o := vec.CmpOp(op % 6)
		at, bt := selColsTypes[int(ka)%len(selColsTypes)], selColsTypes[int(kb)%len(selColsTypes)]
		rows := 2 + len(data)/2
		n := rows
		if mode&8 != 0 {
			n = 2100 // three kernel blocks
		}
		a, b := vec.New(at, n), vec.New(bt, n)
		for i := 0; i < n; i++ {
			switch r := i % rows; r {
			case 0:
				setColValue(a, i, x, x == math.MinInt64)
				setColValue(b, i, y, y == math.MinInt64)
			case 1:
				setColValue(a, i, y, y == math.MinInt64)
				setColValue(b, i, x, x == math.MinInt64)
			default:
				byteColValue(a, i, data[2*(r-2)])
				byteColValue(b, i, data[2*(r-2)+1])
			}
		}
		var cands []int32
		switch mode % 3 {
		case 1: // ascending
			for i := int32(0); int(i) < n; i++ {
				if (int(i)+int(mode))%3 != 0 {
					cands = append(cands, i)
				}
			}
		case 2: // unordered, with duplicates
			for i := int32(n) - 1; i >= 0; i-- {
				cands = append(cands, i)
				if i%4 == 1 {
					cands = append(cands, i/2)
				}
			}
		}
		// The reference: gather both sides, compare, select the TRUE rows.
		reference := func(ia, ib, emit []int32) []int32 {
			bv, err := vec.CmpVec(o, vec.Gather(a, ia), vec.Gather(b, ib))
			if err != nil {
				t.Fatal(err)
			}
			want := []int32{}
			for _, k := range vec.SelTrue(bv, nil, true) {
				if emit != nil {
					k = emit[k]
				}
				want = append(want, k)
			}
			return want
		}
		covered := intCompared(at, bt)
		got, ok := vec.SelColumns(o, a, b, cands)
		if ok != covered {
			t.Fatalf("SelColumns(%s %s %s): ok %v, want %v", at, o, bt, ok, covered)
		}
		if ok {
			if want := reference(cands, cands, cands); !slices.Equal(got, want) {
				t.Fatalf("SelColumns(%s %s %s, %d cands):\n got  %v\n want %v", at, o, bt, len(cands), got, want)
			}
		}
		// Pairs: a read in candidate order, b one row further on.
		ia := cands
		if ia == nil {
			ia = vec.Range(n)
		}
		ib := make([]int32, len(ia))
		for k, i := range ia {
			ib[k] = (i + 1) % int32(n)
		}
		got, ok = vec.SelColumnPairs(o, a, ia, b, ib, len(ia))
		if ok != covered {
			t.Fatalf("SelColumnPairs(%s %s %s): ok %v, want %v", at, o, bt, ok, covered)
		}
		if ok {
			if want := reference(ia, ib, nil); !slices.Equal(got, want) {
				t.Fatalf("SelColumnPairs(%s %s %s):\n got  %v\n want %v", at, o, bt, got, want)
			}
		}
		// A nil list reads row k itself.
		ib = ib[:min(len(ib), n)]
		if got, ok = vec.SelColumnPairs(o, a, nil, b, ib, len(ib)); ok {
			if want := reference(vec.Range(len(ib)), ib, nil); !slices.Equal(got, want) {
				t.Fatalf("SelColumnPairs(%s %s %s, nil, ib):\n got  %v\n want %v", at, o, bt, got, want)
			}
		}
	})
}
