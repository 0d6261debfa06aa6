package plan

import (
	"fmt"
	"reflect"

	"monetlite/internal/mtypes"
	"monetlite/internal/sqlparse"
)

// Window-function binding. Window calls are collected while the select items
// are bound (in both the plain and the aggregate context): each
// fn(args) OVER (spec) becomes a windowRef placeholder, and calls sharing one
// (PARTITION BY, ORDER BY) specification are grouped so they share a single
// Window node — and therefore a single physical sort. Once the select list,
// HAVING and ORDER BY are bound (so the aggregate schema is final),
// attachWindows stacks one Window node per distinct spec over the plan and
// rewrites the placeholders into ColRefs over the appended window columns.

// windowCtx is the per-SELECT collection state; it is non-nil only while the
// select items are being bound, which is what rejects window functions in
// WHERE, GROUP BY, HAVING and ORDER BY.
type windowCtx struct {
	groups []*windowGroup
	// binding guards against nested OVER: while one call's arguments and
	// spec are being bound, an inner window call is a clean error — a
	// windowRef leaking into a Window node's expressions would never be
	// resolved.
	binding bool
}

// windowGroup is one shared window specification plus its deduplicated calls.
type windowGroup struct {
	partitionBy []Expr
	orderBy     []SortSpec
	calls       []WindowCall
}

// windowRef marks a bound window call inside a projection expression until
// attachWindows assigns output slots; it never survives into the final plan.
type windowRef struct {
	group, call int
	typ         mtypes.Type
}

// Type returns the window call's result type.
func (e *windowRef) Type() mtypes.Type { return e.typ }

var windowFuncs = map[string]WinFunc{
	"row_number": WinRowNumber, "rank": WinRank, "dense_rank": WinDenseRank,
	"lag": WinLag, "lead": WinLead,
	"sum": WinSum, "count": WinCount, "min": WinMin, "max": WinMax, "avg": WinAvg,
}

// isRankFamily reports whether f is ordering-derived (no argument, no frame).
func isRankFamily(f WinFunc) bool {
	return f == WinRowNumber || f == WinRank || f == WinDenseRank
}

// bindWindowCall binds one fn(args) OVER (spec) call over s, in the current
// (plain or aggregate) context, deduplicating both the specification
// (same-spec calls share one Window node and its sort) and the call itself.
func (b *binder) bindWindowCall(fc *sqlparse.FuncCall, s *scope) (Expr, error) {
	if b.win == nil {
		return nil, fmt.Errorf("plan: window function %q is only allowed in the SELECT list", fc.Name)
	}
	if b.win.binding {
		return nil, fmt.Errorf("plan: window functions cannot be nested")
	}
	b.win.binding = true
	defer func() { b.win.binding = false }()
	fn, ok := windowFuncs[fc.Name]
	if !ok {
		return nil, fmt.Errorf("plan: %q is not a window function", fc.Name)
	}
	if fc.Distinct {
		return nil, fmt.Errorf("plan: DISTINCT is not supported in window aggregates")
	}
	call := WindowCall{Func: fn, Name: fc.Name}
	switch {
	case isRankFamily(fn):
		if len(fc.Args) != 0 || fc.Star {
			return nil, fmt.Errorf("plan: %s takes no arguments", fc.Name)
		}
		if fc.Over.Frame != nil {
			return nil, fmt.Errorf("plan: %s does not accept a frame clause", fc.Name)
		}
	case fn == WinLag || fn == WinLead:
		if len(fc.Args) < 1 || len(fc.Args) > 3 || fc.Star {
			return nil, fmt.Errorf("plan: %s takes 1 to 3 arguments", fc.Name)
		}
		if fc.Over.Frame != nil {
			return nil, fmt.Errorf("plan: %s does not accept a frame clause", fc.Name)
		}
		arg, err := b.bindExpr(fc.Args[0], s)
		if err != nil {
			return nil, err
		}
		call.Arg = arg
		call.Offset = 1
		if len(fc.Args) >= 2 {
			off, err := b.bindExpr(fc.Args[1], s)
			if err != nil {
				return nil, err
			}
			c, isConst := FoldConst(off).(*Const)
			if !isConst || c.Val.Null || !c.Val.Typ.IsInteger() || c.Val.I < 0 {
				return nil, fmt.Errorf("plan: %s offset must be a non-negative integer constant", fc.Name)
			}
			call.Offset = c.Val.I
		}
		if len(fc.Args) == 3 {
			def, err := b.bindExpr(fc.Args[2], s)
			if err != nil {
				return nil, err
			}
			call.Default = castTo(def, arg.Type())
		}
	case fc.Star:
		if fn != WinCount {
			return nil, fmt.Errorf("plan: %s(*) is not valid", fc.Name)
		}
		call.Func = WinCountStar
	default:
		if len(fc.Args) != 1 {
			return nil, fmt.Errorf("plan: %s takes exactly one argument", fc.Name)
		}
		arg, err := b.bindExpr(fc.Args[0], s)
		if err != nil {
			return nil, err
		}
		if (fn == WinSum || fn == WinAvg) && !arg.Type().IsNumeric() {
			return nil, fmt.Errorf("plan: %s over %s is not valid", fc.Name, arg.Type())
		}
		call.Arg = arg
	}
	if fc.Over.Frame != nil {
		call.Frame = frameFromAST(fc.Over.Frame)
	}

	// Bind the shared specification.
	var partitionBy []Expr
	for _, pe := range fc.Over.PartitionBy {
		e, err := b.bindExpr(pe, s)
		if err != nil {
			return nil, err
		}
		partitionBy = append(partitionBy, e)
	}
	var orderBy []SortSpec
	for _, oi := range fc.Over.OrderBy {
		e, err := b.bindExpr(oi.Expr, s)
		if err != nil {
			return nil, err
		}
		orderBy = append(orderBy, SortSpec{E: e, Desc: oi.Desc})
	}

	// Same-spec calls share one group (one Window node, one physical sort).
	gi := -1
	for i, g := range b.win.groups {
		if reflect.DeepEqual(g.partitionBy, partitionBy) && reflect.DeepEqual(g.orderBy, orderBy) {
			gi = i
			break
		}
	}
	if gi < 0 {
		b.win.groups = append(b.win.groups, &windowGroup{partitionBy: partitionBy, orderBy: orderBy})
		gi = len(b.win.groups) - 1
	}
	g := b.win.groups[gi]
	for ci, existing := range g.calls {
		if reflect.DeepEqual(existing, call) {
			return &windowRef{group: gi, call: ci, typ: WindowResultType(call)}, nil
		}
	}
	g.calls = append(g.calls, call)
	return &windowRef{group: gi, call: len(g.calls) - 1, typ: WindowResultType(call)}, nil
}

func frameFromAST(fs *sqlparse.FrameSpec) *Frame {
	conv := func(bound sqlparse.FrameBound) FrameBound {
		switch bound.Kind {
		case sqlparse.FrameUnboundedPreceding:
			return FrameBound{Kind: FrameUnboundedPreceding}
		case sqlparse.FramePreceding:
			return FrameBound{Kind: FramePreceding, N: bound.N}
		case sqlparse.FrameCurrentRow:
			return FrameBound{Kind: FrameCurrentRow}
		case sqlparse.FrameFollowing:
			return FrameBound{Kind: FrameFollowing, N: bound.N}
		default:
			return FrameBound{Kind: FrameUnboundedFollowing}
		}
	}
	return &Frame{Lo: conv(fs.Lo), Hi: conv(fs.Hi)}
}

// attachWindows stacks one Window node per collected spec group over n (the
// aggregate/HAVING output under aggregation, the FROM/WHERE plan otherwise)
// and rewrites the windowRef placeholders in exprs, in place, into ColRefs
// over the appended window columns. Stacking is prefix-stable: every node's
// schema extends its input's, so expressions over the original input schema
// stay valid at any level.
func attachWindows(n Node, groups []*windowGroup, exprs []Expr) Node {
	offsets := make([]int, len(groups))
	off := len(n.Schema())
	for gi, g := range groups {
		offsets[gi] = off
		off += len(g.calls)
		n = &Window{Input: n, PartitionBy: g.partitionBy, OrderBy: g.orderBy, Calls: g.calls}
	}
	resolve := func(e Expr) Expr {
		if w, ok := e.(*windowRef); ok {
			return &ColRef{Slot: offsets[w.group] + w.call, Typ: w.typ, Name: groups[w.group].calls[w.call].Name}
		}
		return e
	}
	for i, e := range exprs {
		exprs[i] = MapExpr(e, resolve)
	}
	return n
}
