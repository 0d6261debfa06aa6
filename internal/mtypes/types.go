// Package mtypes defines the SQL type system of monetlite: type descriptors,
// NULL sentinel values, and the scalar Value representation used by row-wise
// code paths (literals, the volcano engine, wire protocols).
//
// Following MonetDB's storage model, NULL is not tracked in a separate
// validity mask: it is a "special" value inside the domain of each type
// (e.g. math.MinInt32 for INTEGER, NaN for DOUBLE). Vectorized kernels treat
// the sentinel like any other value and filter it where SQL semantics demand.
package mtypes

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Kind enumerates the physical type classes supported by the engine.
type Kind uint8

const (
	KUnknown  Kind = iota
	KBool          // stored as int8 (0/1, null = NullInt8)
	KTinyInt       // int8
	KSmallInt      // int16
	KInt           // int32
	KBigInt        // int64
	KDouble        // float64
	KDecimal       // int64 scaled by 10^Scale
	KDate          // int32 days since 1970-01-01
	KVarchar       // string
)

// Type is a full SQL type descriptor: a Kind plus decimal precision/scale and
// varchar width where applicable.
type Type struct {
	Kind  Kind
	Prec  int // decimal precision (total digits); 0 if n/a
	Scale int // decimal scale (digits after the point); 0 if n/a
	Width int // varchar declared width; 0 = unlimited
}

// Convenience constructors for the common types.
var (
	Bool     = Type{Kind: KBool}
	TinyInt  = Type{Kind: KTinyInt}
	SmallInt = Type{Kind: KSmallInt}
	Int      = Type{Kind: KInt}
	BigInt   = Type{Kind: KBigInt}
	Double   = Type{Kind: KDouble}
	Date     = Type{Kind: KDate}
	Varchar  = Type{Kind: KVarchar}
)

// Decimal returns a DECIMAL(p,s) type descriptor.
func Decimal(prec, scale int) Type { return Type{Kind: KDecimal, Prec: prec, Scale: scale} }

// VarcharN returns a VARCHAR(n) type descriptor.
func VarcharN(n int) Type { return Type{Kind: KVarchar, Width: n} }

// NULL sentinels, mirroring MonetDB's in-domain special values.
const (
	NullInt8  = int8(math.MinInt8)
	NullInt16 = int16(math.MinInt16)
	NullInt32 = int32(math.MinInt32)
	NullInt64 = int64(math.MinInt64)
)

// ErrOverflow reports a result outside its SQL type's range, or equal to the
// type's NULL sentinel: an arithmetic result, a narrowing CAST or a SUM.
// It is MonetDB's SQLSTATE 22003 ("numeric value out of range"). Both
// engines return it wrapped with the operation; match it with errors.Is.
var ErrOverflow = errors.New("numeric value out of range (SQLSTATE 22003)")

// IntRange returns the values an integer-backed kind holds: its NULL
// sentinel is its minimum, so they are [null+1, -(null+1)].
func IntRange(k Kind) (lo, hi int64) {
	switch k {
	case KBool, KTinyInt:
		return math.MinInt8 + 1, math.MaxInt8
	case KSmallInt:
		return math.MinInt16 + 1, math.MaxInt16
	case KInt, KDate:
		return math.MinInt32 + 1, math.MaxInt32
	}
	return math.MinInt64 + 1, math.MaxInt64
}

// NullFloat64 returns the DOUBLE null sentinel (NaN).
func NullFloat64() float64 { return math.NaN() }

// IsNullF64 reports whether f is the DOUBLE null sentinel.
func IsNullF64(f float64) bool { return math.IsNaN(f) }

// String renders the type in SQL syntax.
func (t Type) String() string {
	switch t.Kind {
	case KBool:
		return "BOOLEAN"
	case KTinyInt:
		return "TINYINT"
	case KSmallInt:
		return "SMALLINT"
	case KInt:
		return "INTEGER"
	case KBigInt:
		return "BIGINT"
	case KDouble:
		return "DOUBLE"
	case KDecimal:
		return fmt.Sprintf("DECIMAL(%d,%d)", t.Prec, t.Scale)
	case KDate:
		return "DATE"
	case KVarchar:
		if t.Width > 0 {
			return fmt.Sprintf("VARCHAR(%d)", t.Width)
		}
		return "VARCHAR"
	default:
		return "UNKNOWN"
	}
}

// ByteWidth returns the width in bytes of one fixed-width value, or 0 for
// variable-width types.
func (t Type) ByteWidth() int {
	switch t.Kind {
	case KBool, KTinyInt:
		return 1
	case KSmallInt:
		return 2
	case KInt, KDate:
		return 4
	case KBigInt, KDecimal, KDouble:
		return 8
	default:
		return 0
	}
}

// IsNumeric reports whether the type participates in arithmetic.
func (t Type) IsNumeric() bool {
	switch t.Kind {
	case KTinyInt, KSmallInt, KInt, KBigInt, KDouble, KDecimal:
		return true
	}
	return false
}

// IsInteger reports whether the type is one of the integer kinds.
func (t Type) IsInteger() bool {
	switch t.Kind {
	case KTinyInt, KSmallInt, KInt, KBigInt:
		return true
	}
	return false
}

// ParseTypeName parses a SQL type name (without arguments) into a Kind.
// Returns KUnknown for unrecognized names.
func ParseTypeName(name string) Kind {
	switch strings.ToUpper(name) {
	case "BOOLEAN", "BOOL":
		return KBool
	case "TINYINT":
		return KTinyInt
	case "SMALLINT":
		return KSmallInt
	case "INTEGER", "INT":
		return KInt
	case "BIGINT":
		return KBigInt
	case "DOUBLE", "FLOAT", "REAL", "DOUBLE PRECISION":
		return KDouble
	case "DECIMAL", "NUMERIC", "DEC":
		return KDecimal
	case "DATE":
		return KDate
	case "VARCHAR", "TEXT", "CHAR", "STRING", "CLOB":
		return KVarchar
	}
	return KUnknown
}

// Pow10 holds powers of ten used for decimal rescaling (index = exponent).
var Pow10 = [19]int64{
	1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000,
	1000000000, 10000000000, 100000000000, 1000000000000, 10000000000000,
	100000000000000, 1000000000000000, 10000000000000000, 100000000000000000,
	1000000000000000000,
}
