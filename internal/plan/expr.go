// Package plan implements monetlite's query planner: name resolution
// (binding) of parsed SQL into a typed logical plan, subquery decorrelation,
// and the high-level optimizations the paper attributes to the relational
// level (§3.1 "Query Plan Execution") — constant folding at bind time, then
// in Optimize, for the statement and for every nested query block alike:
// cost-based join ordering over each region of filters, inner joins and
// semi/anti joins (exact DP for small regions, cost-greedy above; semi joins
// placed at one leaf or on top of the region by estimated size), pushdown of
// single-table conjuncts into scans, projection pruning so scans only read
// referenced columns, and fusion of Limit(Sort(…)) into a single TopN node
// (ORDER BY … LIMIT as a bounded heap instead of a full sort).
//
// Invariants callers may rely on:
//
//   - The logical plan is shared by both execution engines — the columnar
//     MAL-style engine (internal/exec) and the volcano row engine
//     (internal/rowstore) — so every node an optimizer rule can emit
//     (including TopN) must be executable by both.
//   - Optimizer rewrites preserve result rows AND row order for
//     order-sensitive operators: a fused TopN returns exactly the rows the
//     unfused stable Sort + Limit would, in the same order. Semi, anti and
//     left outer joins emit left rows in left-input order whichever side the
//     executor builds on; only inner-join pair order follows the probe side.
//   - Expressions reference their input by slot (ColRef.Slot into the child
//     schema); every structural rewrite remaps slots via MapSlots, so a
//     bound plan never holds dangling slot references.
package plan

import (
	"fmt"
	"strings"

	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

// Expr is a typed, bound scalar expression.
type Expr interface {
	Type() mtypes.Type
}

// ColRef references a column of the input row by position.
type ColRef struct {
	Slot int
	Typ  mtypes.Type
	Name string // for plan display
}

// Const is a literal value.
type Const struct{ Val mtypes.Value }

// BinOpKind classifies binary operators.
type BinOpKind uint8

// Binary operator kinds.
const (
	BinArith BinOpKind = iota // uses Arith (OpAdd..)
	BinCmp                    // uses Cmp (CmpEq..)
	BinAnd
	BinOr
	BinConcat
)

// BinOp is a binary operation.
type BinOp struct {
	Kind  BinOpKind
	Arith vec.ArithOp // when Kind == BinArith
	Cmp   vec.CmpOp   // when Kind == BinCmp
	L, R  Expr
	Typ   mtypes.Type
}

// NotExpr is logical negation.
type NotExpr struct{ E Expr }

// IsNullExpr tests for NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

// LikeExpr is the engine's own LIKE (no regexp dependency, see like.go).
type LikeExpr struct {
	E       Expr
	Pattern string
	Not     bool
}

// InListExpr tests membership in a constant list. Under SQL's three-valued
// logic a value missing from a list that holds a NULL is neither IN nor NOT
// IN it: both yield NULL.
type InListExpr struct {
	E    Expr
	Vals []mtypes.Value
	Not  bool
}

// InListHasNull reports whether an IN list holds a NULL element.
func InListHasNull(vals []mtypes.Value) bool {
	for _, v := range vals {
		if v.Null {
			return true
		}
	}
	return false
}

// BetweenExpr is a range test, kept as a node so the executor can map it to
// one SelRange / imprints probe. SQL BETWEEN is inclusive on both ends (the
// zero value); the optimizer's range-conjunct fusion also produces half-open
// ranges (e.g. `a >= lo AND a < hi`) by setting LoExcl/HiExcl, so a pair of
// one-sided comparisons still becomes a single imprint-prunable probe.
type BetweenExpr struct {
	E, Lo, Hi      Expr
	Not            bool
	LoExcl, HiExcl bool // strict bound (>, <) instead of inclusive (>=, <=)
}

// CaseExpr is a searched CASE.
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr // may be nil -> NULL
	Typ   mtypes.Type
}

// WhenClause is one CASE arm.
type WhenClause struct {
	Cond   Expr
	Result Expr
}

// FuncKind enumerates scalar functions.
type FuncKind uint8

// Scalar functions.
const (
	FuncExtractYear FuncKind = iota
	FuncExtractMonth
	FuncExtractDay
	FuncSubstring
	FuncNeg
	FuncAbs
	FuncSqrt
	FuncUpper
	FuncLower
	FuncConcat
	// FuncAddMonths shifts a DATE by a number of months (arg 1, an integer
	// constant folded from INTERVAL MONTH/YEAR literals), clamping the day to
	// the target month's length.
	FuncAddMonths
)

// FuncExpr is a scalar function application.
type FuncExpr struct {
	Kind FuncKind
	Args []Expr
	Typ  mtypes.Type
}

// CastExpr converts to a target type.
type CastExpr struct {
	E  Expr
	To mtypes.Type
}

// SubplanExpr is an uncorrelated scalar subquery: the plan produces (at most)
// one row, one column; its value is computed once per query execution. Plan
// is a fully optimized query block; ID numbers the statement's scalar
// subqueries from 1 in bind order.
type SubplanExpr struct {
	Plan Node
	Typ  mtypes.Type
	ID   int
}

// AggRef references the result of aggregate i inside post-aggregation
// projections (internal to the binder).
type AggRef struct {
	Slot int
	Typ  mtypes.Type
}

// Type implementations.
func (e *ColRef) Type() mtypes.Type  { return e.Typ }
func (e *Const) Type() mtypes.Type   { return e.Val.Typ }
func (e *BinOp) Type() mtypes.Type   { return e.Typ }
func (e *NotExpr) Type() mtypes.Type { return mtypes.Bool }

// Type returns BOOLEAN.
func (e *IsNullExpr) Type() mtypes.Type { return mtypes.Bool }

// Type returns BOOLEAN.
func (e *LikeExpr) Type() mtypes.Type { return mtypes.Bool }

// Type returns BOOLEAN.
func (e *InListExpr) Type() mtypes.Type { return mtypes.Bool }

// Type returns BOOLEAN.
func (e *BetweenExpr) Type() mtypes.Type { return mtypes.Bool }
func (e *CaseExpr) Type() mtypes.Type    { return e.Typ }
func (e *FuncExpr) Type() mtypes.Type    { return e.Typ }
func (e *CastExpr) Type() mtypes.Type    { return e.To }
func (e *SubplanExpr) Type() mtypes.Type { return e.Typ }
func (e *AggRef) Type() mtypes.Type      { return e.Typ }

// WalkExpr visits e and its children depth-first; fn returning false prunes.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinOp:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *NotExpr:
		WalkExpr(x.E, fn)
	case *IsNullExpr:
		WalkExpr(x.E, fn)
	case *LikeExpr:
		WalkExpr(x.E, fn)
	case *InListExpr:
		WalkExpr(x.E, fn)
	case *BetweenExpr:
		WalkExpr(x.E, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *CaseExpr:
		for _, w := range x.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Result, fn)
		}
		WalkExpr(x.Else, fn)
	case *FuncExpr:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *CastExpr:
		WalkExpr(x.E, fn)
	}
}

// MapExpr returns a copy of e in which every leaf (ColRef, Const,
// SubplanExpr, AggRef and the binder's placeholders) is replaced by fn(leaf).
// It is the one Expr rewriter: slot remapping, window-call resolution and the
// outer-reference rewrite are all calls of it.
func MapExpr(e Expr, fn func(Expr) Expr) Expr {
	m := func(x Expr) Expr { return MapExpr(x, fn) }
	switch x := e.(type) {
	case nil:
		return nil
	case *BinOp:
		c := *x
		c.L, c.R = m(x.L), m(x.R)
		return &c
	case *NotExpr:
		return &NotExpr{E: m(x.E)}
	case *IsNullExpr:
		return &IsNullExpr{E: m(x.E), Not: x.Not}
	case *LikeExpr:
		c := *x
		c.E = m(x.E)
		return &c
	case *InListExpr:
		c := *x
		c.E = m(x.E)
		return &c
	case *BetweenExpr:
		c := *x
		c.E, c.Lo, c.Hi = m(x.E), m(x.Lo), m(x.Hi)
		return &c
	case *CaseExpr:
		c := *x
		c.Whens = make([]WhenClause, len(x.Whens))
		for i, w := range x.Whens {
			c.Whens[i] = WhenClause{Cond: m(w.Cond), Result: m(w.Result)}
		}
		c.Else = m(x.Else)
		return &c
	case *FuncExpr:
		c := *x
		c.Args = make([]Expr, len(x.Args))
		for i, a := range x.Args {
			c.Args[i] = m(a)
		}
		return &c
	case *CastExpr:
		return &CastExpr{E: m(x.E), To: x.To}
	}
	return fn(e)
}

// MapSlots rewrites every ColRef slot through fn, returning a new tree.
func MapSlots(e Expr, fn func(slot int) int) Expr {
	return MapExpr(e, func(x Expr) Expr {
		if c, ok := x.(*ColRef); ok {
			return &ColRef{Slot: fn(c.Slot), Typ: c.Typ, Name: c.Name}
		}
		return x
	})
}

// SlotsUsed collects the set of input slots referenced by e.
func SlotsUsed(e Expr, into map[int]bool) {
	WalkExpr(e, func(x Expr) bool {
		if c, ok := x.(*ColRef); ok {
			into[c.Slot] = true
		}
		return true
	})
}

// IsConst reports whether e contains no column references or subplans.
func IsConst(e Expr) bool {
	ok := true
	WalkExpr(e, func(x Expr) bool {
		switch x.(type) {
		case *ColRef, *SubplanExpr, *AggRef:
			ok = false
		}
		return ok
	})
	return ok
}

// ExprString renders an expression for plan display and tests.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return "<nil>"
	case *ColRef:
		return fmt.Sprintf("#%d(%s)", x.Slot, x.Name)
	case *Const:
		if x.Val.Typ.Kind == mtypes.KVarchar && !x.Val.Null {
			return fmt.Sprintf("'%s'", x.Val.S)
		}
		return x.Val.String()
	case *BinOp:
		op := ""
		switch x.Kind {
		case BinArith:
			op = x.Arith.String()
		case BinCmp:
			op = x.Cmp.String()
		case BinAnd:
			op = "AND"
		case BinOr:
			op = "OR"
		case BinConcat:
			op = "||"
		}
		return fmt.Sprintf("(%s %s %s)", ExprString(x.L), op, ExprString(x.R))
	case *NotExpr:
		return fmt.Sprintf("NOT %s", ExprString(x.E))
	case *IsNullExpr:
		if x.Not {
			return fmt.Sprintf("%s IS NOT NULL", ExprString(x.E))
		}
		return fmt.Sprintf("%s IS NULL", ExprString(x.E))
	case *LikeExpr:
		neg := ""
		if x.Not {
			neg = " NOT"
		}
		return fmt.Sprintf("%s%s LIKE '%s'", ExprString(x.E), neg, x.Pattern)
	case *InListExpr:
		var sb strings.Builder
		for i, v := range x.Vals {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(v.String())
		}
		neg := ""
		if x.Not {
			neg = " NOT"
		}
		return fmt.Sprintf("%s%s IN (%s)", ExprString(x.E), neg, sb.String())
	case *BetweenExpr:
		if x.LoExcl || x.HiExcl {
			loOp, hiOp := ">=", "<="
			if x.LoExcl {
				loOp = ">"
			}
			if x.HiExcl {
				hiOp = "<"
			}
			return fmt.Sprintf("%s RANGE %s %s, %s %s", ExprString(x.E), loOp, ExprString(x.Lo), hiOp, ExprString(x.Hi))
		}
		return fmt.Sprintf("%s BETWEEN %s AND %s", ExprString(x.E), ExprString(x.Lo), ExprString(x.Hi))
	case *CaseExpr:
		// Render the full shape: these strings key the executor's per-batch
		// CSE cache, so two different CASE expressions must not collide.
		var sb strings.Builder
		sb.WriteString("CASE")
		for _, w := range x.Whens {
			fmt.Fprintf(&sb, " WHEN %s THEN %s", ExprString(w.Cond), ExprString(w.Result))
		}
		if x.Else != nil {
			fmt.Fprintf(&sb, " ELSE %s", ExprString(x.Else))
		}
		sb.WriteString(" END")
		return sb.String()
	case *FuncExpr:
		var sb strings.Builder
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(ExprString(a))
		}
		return fmt.Sprintf("func%d(%s)", x.Kind, sb.String())
	case *CastExpr:
		return fmt.Sprintf("CAST(%s AS %s)", ExprString(x.E), x.To)
	case *SubplanExpr:
		// The ordinal distinguishes the statement's scalar subqueries, so the
		// same subplan instance still hits the CSE cache.
		return fmt.Sprintf("subplan#%d", x.ID)
	case *AggRef:
		return fmt.Sprintf("agg#%d", x.Slot)
	default:
		return fmt.Sprintf("%T", e)
	}
}
