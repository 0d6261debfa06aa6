package main

import (
	"fmt"
	"math"
	"strings"

	"monetlite"
	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

// values is one column as the host program holds it: exactly one slice is set.
// DECIMAL columns are held as float64, which is how the generator makes them
// and how Column.AsFloats hands them out.
type values struct {
	i32 []int32
	i64 []int64
	f64 []float64
	str []string
}

func (v values) len() int {
	return len(v.i32) + len(v.i64) + len(v.f64) + len(v.str)
}

// fetch reads a result column through its natural accessor, as a host program
// would: the zero-copy accessor where the type matches, AsFloats for DECIMAL.
func fetch(tr *tracer, parent int32, c *monetlite.Column) (values, error) {
	var v values
	var err error
	typ := c.Type()
	switch {
	case typ == "INTEGER" || typ == "DATE":
		sp := tr.start(parent, "Column.Ints32")
		v.i32, err = c.Ints32()
		tr.end(sp)
	case typ == "BIGINT":
		sp := tr.start(parent, "Column.Ints64")
		v.i64, err = c.Ints64()
		tr.end(sp)
	case typ == "DOUBLE":
		sp := tr.start(parent, "Column.Floats64")
		v.f64, err = c.Floats64()
		tr.end(sp)
	case strings.HasPrefix(typ, "DECIMAL"):
		sp := tr.start(parent, "Column.AsFloats")
		v.f64 = c.AsFloats()
		tr.end(sp)
	case strings.HasPrefix(typ, "VARCHAR"):
		sp := tr.start(parent, "Column.Strings")
		v.str, err = c.Strings()
		tr.end(sp)
	default: // no workload's queries return the narrow integer types
		err = fmt.Errorf("column %s: no accessor for type %s", c.Name(), typ)
	}
	return v, err
}

// fetchAll fetches every column of a result.
func fetchAll(tr *tracer, parent int32, res *monetlite.Result) ([]values, error) {
	cols := make([]values, res.NumCols())
	for i := range cols {
		v, err := fetch(tr, parent, res.Column(i))
		if err != nil {
			return nil, err
		}
		cols[i] = v
	}
	return cols, nil
}

// wireValues views a vector that came over the wire the way fetch views an
// embedded column, so results of the two paths compare.
func wireValues(v *vec.Vector) values {
	if v.Typ.Kind == mtypes.KDecimal {
		return values{f64: vec.AsFloats(v)}
	}
	return values{i32: v.I32, i64: v.I64, f64: v.F64, str: v.Str}
}

// hostValues views a generated host column (one of the slice types
// Conn.Append accepts from the TPC-H generator).
func hostValues(col any) values {
	switch x := col.(type) {
	case []int32:
		return values{i32: x}
	case []int64:
		return values{i64: x}
	case []float64:
		return values{f64: x}
	case []string:
		return values{str: x}
	}
	panic(fmt.Sprintf("benchmark: generator made a %T column", col))
}

// userBytes is the raw size of host columns: fixed-width values at their
// width, strings at their length.
func userBytes(cols []any) int64 {
	var n int64
	for _, c := range cols {
		v := hostValues(c)
		n += int64(4*len(v.i32) + 8*len(v.i64) + 8*len(v.f64))
		for _, s := range v.str {
			n += int64(len(s))
		}
	}
	return n
}

// signature identifies a result up to row order: its row count and the sum
// of its rows' hashes, floats rounded to 6 significant digits (parallel and
// serial plans add floats in different orders).
type signature struct {
	rows int
	hash uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// round6 maps a float to a hash of its 6 most significant decimal digits and
// its exponent.
func round6(f float64) uint64 {
	if f == 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return math.Float64bits(f)
	}
	e := math.Floor(math.Log10(math.Abs(f)))
	m := math.Round(f / math.Pow(10, e-5))
	if math.Abs(m) >= 1e6 {
		m /= 10
		e++
	}
	return uint64(int64(m))*31 + uint64(int64(e))
}

func sign(cols []values) signature {
	if len(cols) == 0 {
		return signature{}
	}
	rows := cols[0].len()
	hashes := make([]uint64, rows)
	for i := range hashes {
		hashes[i] = fnvOffset
	}
	for _, c := range cols {
		for r := range hashes {
			var h uint64
			switch {
			case c.i32 != nil:
				h = uint64(c.i32[r])
			case c.i64 != nil:
				h = uint64(c.i64[r])
			case c.f64 != nil:
				h = round6(c.f64[r])
			case c.str != nil:
				h = hashString(c.str[r])
			}
			hashes[r] = (hashes[r] ^ h) * fnvPrime
		}
	}
	sig := signature{rows: rows}
	for _, h := range hashes {
		sig.hash += h ^ h>>29
	}
	return sig
}

func (s signature) equal(o signature) error {
	if s != o {
		return fmt.Errorf("result differs from the reference: %d rows hash %x, want %d rows hash %x",
			s.rows, s.hash, o.rows, o.hash)
	}
	return nil
}

// checksum folds one column into an integer and a float: integer values and
// string bytes add into i, float values into f. It is the one pass over the
// values an export pays after fetching, and the same function over the host
// columns says what the export must return.
type checksum struct {
	i int64
	f float64
}

func sumValues(v values) checksum {
	var c checksum
	for _, x := range v.i32 {
		c.i += int64(x)
	}
	for _, x := range v.i64 {
		c.i += x
	}
	for _, x := range v.f64 {
		c.f += x
	}
	for _, s := range v.str {
		c.i += int64(len(s))
		if len(s) > 0 {
			c.i += int64(s[0])<<8 + int64(s[len(s)-1])
		}
	}
	return c
}

// equal allows floats the rounding of a DECIMAL(15,2) round trip.
func (c checksum) equal(o checksum) bool {
	return c.i == o.i && math.Abs(c.f-o.f) <= 1e-9*math.Max(math.Abs(c.f), math.Abs(o.f))
}

// scaled converts a generated DECIMAL(15,2) value to the integer the engine
// stores, the way Conn.Append does.
func scaled(f float64) int64 { return int64(f*100 + 0.5) }

// cell reads row r of an integer-backed wire vector.
func cell(v *vec.Vector, r int) int64 {
	switch {
	case v.I32 != nil:
		return int64(v.I32[r])
	case v.I64 != nil:
		return v.I64[r]
	}
	return math.MinInt64
}
