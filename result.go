package monetlite

import (
	"fmt"
	"sync"

	"monetlite/internal/exec"
	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

// Result is a columnar query result, the Go analogue of the paper's
// monetdb_result. Columns are fetched individually; numeric columns support
// zero-copy access (the returned slice aliases engine memory) and converted
// forms are materialized lazily on first access (§3.3 of the paper:
// "Zero-Copy" and "Lazy Conversion"). Go has no mprotect, so the paper's
// copy-on-write-by-page-fault becomes an explicit Materialize, and lazy
// conversion a sync.Once per converted form.
type Result struct {
	names []string
	cols  []*Column
}

func (c *Conn) newResult(er *exec.Result) *Result {
	res := &Result{names: er.Names}
	for i, v := range er.Cols {
		if c.db.cfg.ForceCopy {
			v = v.Clone()
		}
		col := &Column{name: er.Names[i], vec: v}
		if c.db.cfg.EagerConvert {
			col.materializeAll()
		}
		res.cols = append(res.cols, col)
	}
	return res
}

// NumRows returns the number of result rows.
func (r *Result) NumRows() int {
	if len(r.cols) == 0 {
		return 0
	}
	return r.cols[0].vec.Len()
}

// NumCols returns the number of result columns.
func (r *Result) NumCols() int { return len(r.cols) }

// Names returns the column names.
func (r *Result) Names() []string { return r.names }

// Column fetches column i (monetdb_result_fetch).
func (r *Result) Column(i int) *Column { return r.cols[i] }

// ColumnByName fetches a column by its result name.
func (r *Result) ColumnByName(name string) (*Column, bool) {
	for i, n := range r.names {
		if n == name {
			return r.cols[i], true
		}
	}
	return nil, false
}

// RowStrings renders row i as display strings (for shells and tests).
func (r *Result) RowStrings(i int) []string {
	out := make([]string, len(r.cols))
	for k, c := range r.cols {
		out[k] = c.vec.Value(i).String()
	}
	return out
}

// Column is one result column. The low-level accessors (Ints32, Ints64,
// Floats64, ...) are zero-copy when the physical representation matches:
// they return slices that alias the engine's memory. Callers MUST treat
// those slices as read-only — for persistent columns they may be read-only
// OS memory mappings, where a write faults (the same protection mprotect
// gave MonetDBLite). Use Materialize for a private writable copy.
//
// The high-level converting accessors (AsFloats, AsStrings, AsInts) accept
// any column type; conversion happens lazily on first call and is cached.
type Column struct {
	name string
	vec  *vec.Vector

	onceF sync.Once
	fConv []float64
	onceS sync.Once
	sConv []string
	onceI sync.Once
	iConv []int64
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Type returns the SQL type of the column.
func (c *Column) Type() string { return c.vec.Typ.String() }

// Len returns the number of values.
func (c *Column) Len() int { return c.vec.Len() }

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool { return c.vec.IsNull(i) }

// Value boxes row i as a Go value (nil for NULL, int64/float64/string/bool).
func (c *Column) Value(i int) any {
	v := c.vec.Value(i)
	if v.Null {
		return nil
	}
	switch v.Typ.Kind {
	case mtypes.KBool:
		return v.I != 0
	case mtypes.KDouble:
		return v.F
	case mtypes.KDecimal:
		return v.AsFloat()
	case mtypes.KVarchar:
		return v.S
	case mtypes.KDate:
		return mtypes.FormatDate(int32(v.I))
	default:
		return v.I
	}
}

// errType builds the type-mismatch error for low-level accessors.
func (c *Column) errType(want string) error {
	return fmt.Errorf("monetlite: column %q is %s, not %s (use the As* converters)", c.name, c.vec.Typ, want)
}

// Ints8 returns the raw int8 payload (BOOLEAN/TINYINT). Zero-copy.
func (c *Column) Ints8() ([]int8, error) {
	if c.vec.I8 == nil {
		return nil, c.errType("TINYINT")
	}
	return c.vec.I8, nil
}

// Ints16 returns the raw int16 payload (SMALLINT). Zero-copy.
func (c *Column) Ints16() ([]int16, error) {
	if c.vec.I16 == nil {
		return nil, c.errType("SMALLINT")
	}
	return c.vec.I16, nil
}

// Ints32 returns the raw int32 payload (INTEGER/DATE). Zero-copy. NULL is
// mtypes sentinel math.MinInt32.
func (c *Column) Ints32() ([]int32, error) {
	if c.vec.I32 == nil {
		return nil, c.errType("INTEGER")
	}
	return c.vec.I32, nil
}

// Ints64 returns the raw int64 payload (BIGINT/DECIMAL — decimals are scaled
// integers). Zero-copy.
func (c *Column) Ints64() ([]int64, error) {
	if c.vec.I64 == nil {
		return nil, c.errType("BIGINT")
	}
	return c.vec.I64, nil
}

// Floats64 returns the raw float64 payload (DOUBLE). Zero-copy.
func (c *Column) Floats64() ([]float64, error) {
	if c.vec.F64 == nil {
		return nil, c.errType("DOUBLE")
	}
	return c.vec.F64, nil
}

// Strings returns the string payload. The strings alias the engine's string
// heap (no per-value copy).
func (c *Column) Strings() ([]string, error) {
	if c.vec.Str == nil {
		return nil, c.errType("VARCHAR")
	}
	return c.vec.Str, nil
}

// AsFloats converts any numeric column to float64 (NULL -> NaN). The
// conversion is lazy: it runs on the first call and is cached — the Go
// analogue of the paper's SIGSEGV-driven lazy result conversion.
func (c *Column) AsFloats() []float64 {
	c.onceF.Do(func() {
		switch {
		case c.vec.Typ.Kind == mtypes.KDouble:
			c.fConv = c.vec.F64
		case c.vec.Typ.IsNumeric() || c.vec.Typ.Kind == mtypes.KDate || c.vec.Typ.Kind == mtypes.KBool:
			c.fConv = vec.AsFloats(c.vec)
		default:
			// Non-numeric columns convert to NULLs rather than panicking.
			out := make([]float64, c.vec.Len())
			for i := range out {
				out[i] = mtypes.NullFloat64()
			}
			c.fConv = out
		}
	})
	return c.fConv
}

// AsInts converts any integer-backed column to int64 (NULL -> MinInt64),
// lazily and cached.
func (c *Column) AsInts() []int64 {
	c.onceI.Do(func() {
		c.iConv = vec.AsInts64(c.vec)
	})
	return c.iConv
}

// AsStrings renders any column as display strings (NULL -> "NULL"), lazily
// and cached.
func (c *Column) AsStrings() []string {
	c.onceS.Do(func() {
		out := make([]string, c.vec.Len())
		for i := range out {
			out[i] = c.vec.Value(i).String()
		}
		c.sConv = out
	})
	return c.sConv
}

// Materialize returns a private, writable deep copy of the column's payload
// (copy-on-write moved to the API boundary, in place of the paper's
// mprotect-based copy on first write).
func (c *Column) Materialize() *Column {
	return &Column{name: c.name, vec: c.vec.Clone()}
}

// DecimalScale returns the scale for DECIMAL columns (0 otherwise), needed
// to interpret Ints64 payloads.
func (c *Column) DecimalScale() int { return c.vec.Typ.Scale }

func (c *Column) materializeAll() {
	switch c.vec.Typ.Kind {
	case mtypes.KVarchar:
		c.AsStrings()
	case mtypes.KDouble, mtypes.KDecimal:
		c.AsFloats()
	default:
		c.AsInts()
	}
}

// InternalVector exposes a result column's engine vector to in-process
// infrastructure (the network server, the database/sql driver). It is not
// part of the stable public API; treat the vector as read-only.
func InternalVector(c *Column) *vec.Vector { return c.vec }

// InternalValue boxes row i of a column as an engine value (infrastructure
// hook, not stable public API).
func InternalValue(c *Column, row int) mtypes.Value { return c.vec.Value(row) }
