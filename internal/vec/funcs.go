package vec

import (
	"fmt"
	"strings"

	"monetlite/internal/mtypes"
)

// Substring is SUBSTRING(s FROM start FOR length) over VARCHAR s, with
// length nil when absent. start and length are integer vectors or scalars
// (Scalar). Positions count bytes from 1: a start before 1 reads from the
// first byte, with the length counted from the start given (FROM 0 FOR 2
// reads one byte), a start past the end or a length of 0 or less gives the
// empty string, and a length past the end reads to it. A NULL in any
// argument yields NULL.
func Substring(s, start, length *Vector) (*Vector, error) {
	n, err := rows(s, start, length)
	if err != nil {
		return nil, err
	}
	if s.Typ.Kind != mtypes.KVarchar || !start.Typ.IsInteger() || length != nil && !length.Typ.IsInteger() {
		return nil, fmt.Errorf("vec: SUBSTRING over %s", s.Typ)
	}
	out := New(mtypes.Varchar, n)
	sm, starts, bm := stride(s), AsInts64(start), stride(start)
	if length == nil {
		for i := range out.Str {
			x, b := s.Str[i&sm], starts[i&bm]
			if x == StrNull || b == mtypes.NullInt64 {
				out.Str[i] = StrNull
				continue
			}
			out.Str[i] = x[SubstringStart(b, len(x)):]
		}
		return out, nil
	}
	lens, lm := AsInts64(length), stride(length)
	for i := range out.Str {
		x, b, l := s.Str[i&sm], starts[i&bm], lens[i&lm]
		if x == StrNull || b == mtypes.NullInt64 || l == mtypes.NullInt64 {
			out.Str[i] = StrNull
			continue
		}
		from := SubstringStart(b, len(x))
		out.Str[i] = x[from:SubstringEnd(b, from, l, len(x))]
	}
	return out, nil
}

// SubstringStart is the byte offset SQL start position b (1-based) selects
// in a string of n bytes, clamped to [0, n].
func SubstringStart(b int64, n int) int {
	switch {
	case b < 1:
		return 0
	case b-1 > int64(n):
		return n
	}
	return int(b - 1)
}

// SubstringEnd is the exclusive end of length l counted from SQL start
// position b, whose first byte read is from (SubstringStart), in a string of
// n bytes: the positions before the string that a start below 1 names count
// toward l, and the end is clamped to [from, n] without overflowing.
func SubstringEnd(b int64, from int, l int64, n int) int {
	if b < 1 && l > 0 {
		l += b - 1
	}
	switch {
	case l <= 0:
		return from
	case l >= int64(n-from):
		return n
	}
	return from + int(l)
}

// Upper is UPPER over a VARCHAR vector.
func Upper(s *Vector) (*Vector, error) { return mapStrings(s, strings.ToUpper) }

// Lower is LOWER over a VARCHAR vector.
func Lower(s *Vector) (*Vector, error) { return mapStrings(s, strings.ToLower) }

// mapStrings applies f to every non-NULL string. NULL is tested first:
// the sentinel is not valid UTF-8, which f would rewrite.
func mapStrings(s *Vector, f func(string) string) (*Vector, error) {
	if s.Typ.Kind != mtypes.KVarchar {
		return nil, fmt.Errorf("vec: string function over %s", s.Typ)
	}
	out := New(mtypes.Varchar, len(s.Str))
	for i, x := range s.Str {
		if x == StrNull {
			out.Str[i] = StrNull
		} else {
			out.Str[i] = f(x)
		}
	}
	return out, nil
}

// ConcatStrings concatenates its arguments row by row, the rule of SQL ||
// and CONCAT: each argument is cast to VARCHAR, and a NULL in any argument
// yields NULL. Arguments are vectors of one length or scalars.
func ConcatStrings(args ...*Vector) (*Vector, error) {
	n, err := rows(args...)
	if err != nil {
		return nil, err
	}
	strs := make([][]string, len(args))
	masks := make([]int, len(args))
	for k, a := range args {
		sv, err := Cast(a, mtypes.Varchar)
		if err != nil {
			return nil, err
		}
		strs[k], masks[k] = sv.Str, stride(sv)
	}
	out := New(mtypes.Varchar, n)
	if len(args) == 2 {
		xs, xm, ys, ym := strs[0], masks[0], strs[1], masks[1]
		for i := range out.Str {
			x, y := xs[i&xm], ys[i&ym]
			if x == StrNull || y == StrNull {
				out.Str[i] = StrNull
			} else {
				out.Str[i] = x + y
			}
		}
		return out, nil
	}
	var sb strings.Builder
rows:
	for i := range out.Str {
		size := 0
		for k, xs := range strs {
			x := xs[i&masks[k]]
			if x == StrNull {
				out.Str[i] = StrNull
				continue rows
			}
			size += len(x)
		}
		sb.Reset()
		sb.Grow(size)
		for k, xs := range strs {
			sb.WriteString(xs[i&masks[k]])
		}
		out.Str[i] = sb.String()
	}
	return out, nil
}

// CopyAt scatters src into dst at positions rows: dst[rows[k]] = src[k], or
// the one value of a scalar src into every dst[rows[k]]. Both have dst's
// type.
func CopyAt(dst, src *Vector, rows []int32) {
	m := stride(src)
	switch dst.Typ.Kind {
	case mtypes.KBool, mtypes.KTinyInt:
		copyAt(dst.I8, src.I8, m, rows)
	case mtypes.KSmallInt:
		copyAt(dst.I16, src.I16, m, rows)
	case mtypes.KInt, mtypes.KDate:
		copyAt(dst.I32, src.I32, m, rows)
	case mtypes.KBigInt, mtypes.KDecimal:
		copyAt(dst.I64, src.I64, m, rows)
	case mtypes.KDouble:
		copyAt(dst.F64, src.F64, m, rows)
	case mtypes.KVarchar:
		copyAt(dst.Str, src.Str, m, rows)
	}
}

func copyAt[T any](dst, src []T, m int, rows []int32) {
	for k, r := range rows {
		dst[r] = src[k&m]
	}
}
