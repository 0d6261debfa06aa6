package plan

import (
	"fmt"

	"monetlite/internal/mtypes"
	"monetlite/internal/sqlparse"
	"monetlite/internal/vec"
)

// walkAST visits an AST expression depth-first.
func walkAST(e sqlparse.Expr, fn func(sqlparse.Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *sqlparse.BinaryExpr:
		walkAST(x.L, fn)
		walkAST(x.R, fn)
	case *sqlparse.UnaryExpr:
		walkAST(x.E, fn)
	case *sqlparse.FuncCall:
		for _, a := range x.Args {
			walkAST(a, fn)
		}
		if x.Over != nil {
			for _, pe := range x.Over.PartitionBy {
				walkAST(pe, fn)
			}
			for _, oi := range x.Over.OrderBy {
				walkAST(oi.Expr, fn)
			}
		}
	case *sqlparse.CaseExpr:
		walkAST(x.Operand, fn)
		for _, w := range x.Whens {
			walkAST(w.Cond, fn)
			walkAST(w.Result, fn)
		}
		walkAST(x.Else, fn)
	case *sqlparse.CastExpr:
		walkAST(x.E, fn)
	case *sqlparse.LikeExpr:
		walkAST(x.E, fn)
		walkAST(x.Pattern, fn)
	case *sqlparse.InExpr:
		walkAST(x.E, fn)
		for _, v := range x.List {
			walkAST(v, fn)
		}
	case *sqlparse.BetweenExpr:
		walkAST(x.E, fn)
		walkAST(x.Lo, fn)
		walkAST(x.Hi, fn)
	case *sqlparse.IsNullExpr:
		walkAST(x.E, fn)
	case *sqlparse.ExtractExpr:
		walkAST(x.E, fn)
	case *sqlparse.SubstringExpr:
		walkAST(x.E, fn)
		walkAST(x.From, fn)
		walkAST(x.For, fn)
	}
}

// bindExpr binds an AST expression over a scope into a typed Expr; it is the
// only expression binder. In an aggregate context (b.agg) the nodes that
// context owns bind first (bindInAgg). References resolving to a parent scope
// become outerRef markers, which subquery decorrelation rewrites (outerCols).
func (b *binder) bindExpr(ast sqlparse.Expr, s *scope) (Expr, error) {
	if b.agg != nil {
		if e, done, err := b.bindInAgg(ast); done {
			return e, err
		}
	}
	switch x := ast.(type) {
	case *sqlparse.Ident:
		if s == nil {
			return nil, fmt.Errorf("plan: column %q not allowed here", x.Name)
		}
		slot, depth, typ, err := s.resolve(x.Qualifier, x.Name)
		if err != nil {
			return nil, err
		}
		if depth == 0 {
			return &ColRef{Slot: slot, Typ: typ, Name: x.Name}, nil
		}
		if depth == 1 {
			return &outerRef{Slot: slot, Typ: typ, Name: x.Name}, nil
		}
		return nil, fmt.Errorf("plan: correlation depth %d not supported for %q", depth, x.Name)
	case *sqlparse.NumberLit:
		return bindNumber(x)
	case *sqlparse.StringLit:
		return &Const{Val: mtypes.NewString(x.Val)}, nil
	case *sqlparse.DateLit:
		d, err := mtypes.ParseDate(x.Val)
		if err != nil {
			return nil, err
		}
		return &Const{Val: mtypes.NewDate(d)}, nil
	case *sqlparse.NullLit:
		return &Const{Val: mtypes.NullValue(mtypes.Varchar)}, nil
	case *sqlparse.BoolLit:
		return &Const{Val: mtypes.NewBool(x.Val)}, nil
	case *sqlparse.ParamRef:
		if x.Ordinal > len(b.params) {
			return nil, fmt.Errorf("plan: missing value for parameter %d", x.Ordinal)
		}
		return &Const{Val: b.params[x.Ordinal-1]}, nil
	case *sqlparse.IntervalLit:
		// Bare interval: only valid inside date arithmetic, handled there.
		return nil, fmt.Errorf("plan: INTERVAL literal outside date arithmetic")
	case *sqlparse.BinaryExpr:
		return b.bindBinary(x, s)
	case *sqlparse.UnaryExpr:
		e, err := b.bindExpr(x.E, s)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			if e, err = truthValue(e); err != nil {
				return nil, err
			}
			return &NotExpr{E: e}, nil
		}
		return FoldConst(&FuncExpr{Kind: FuncNeg, Args: []Expr{e}, Typ: e.Type()}).(Expr), nil
	case *sqlparse.FuncCall:
		if x.Over != nil {
			return b.bindWindowCall(x, s)
		}
		return b.bindFunc(x, s)
	case *sqlparse.CaseExpr:
		return b.bindCase(x, s)
	case *sqlparse.CastExpr:
		e, err := b.bindExpr(x.E, s)
		if err != nil {
			return nil, err
		}
		to, err := typeFromAST(x.TypeName, x.Prec, x.Scale, x.Width)
		if err != nil {
			return nil, err
		}
		return FoldConst(&CastExpr{E: e, To: to}), nil
	case *sqlparse.LikeExpr:
		e, err := b.bindExpr(x.E, s)
		if err != nil {
			return nil, err
		}
		pat, err := b.bindExpr(x.Pattern, s)
		if err != nil {
			return nil, err
		}
		pc, ok := pat.(*Const)
		if !ok || pc.Val.Typ.Kind != mtypes.KVarchar {
			return nil, fmt.Errorf("plan: LIKE pattern must be a string constant")
		}
		return &LikeExpr{E: e, Pattern: pc.Val.S, Not: x.Not}, nil
	case *sqlparse.InExpr:
		if x.Subquery != nil {
			return nil, fmt.Errorf("plan: IN (subquery) only supported as a top-level WHERE conjunct")
		}
		e, err := b.bindExpr(x.E, s)
		if err != nil {
			return nil, err
		}
		var vals []mtypes.Value
		for _, item := range x.List {
			ie, err := b.bindExpr(item, s)
			if err != nil {
				return nil, err
			}
			c, ok := FoldConst(ie).(*Const)
			if !ok {
				return nil, fmt.Errorf("plan: IN list elements must be constants")
			}
			vals = append(vals, c.Val)
		}
		return &InListExpr{E: e, Vals: vals, Not: x.Not}, nil
	case *sqlparse.BetweenExpr:
		e, err := b.bindExpr(x.E, s)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindExpr(x.Lo, s)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindExpr(x.Hi, s)
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: e, Lo: FoldConst(lo), Hi: FoldConst(hi), Not: x.Not}, nil
	case *sqlparse.IsNullExpr:
		e, err := b.bindExpr(x.E, s)
		if err != nil {
			return nil, err
		}
		return &IsNullExpr{E: e, Not: x.Not}, nil
	case *sqlparse.ExtractExpr:
		e, err := b.bindExpr(x.E, s)
		if err != nil {
			return nil, err
		}
		if n, ok := retypeNullConst(e, mtypes.Date); ok {
			e = n
		}
		if e.Type().Kind != mtypes.KDate {
			return nil, fmt.Errorf("plan: EXTRACT needs a DATE, got %s", e.Type())
		}
		return FoldConst(extractExpr(x.Field, e)), nil
	case *sqlparse.SubstringExpr:
		e, err := b.bindExpr(x.E, s)
		if err != nil {
			return nil, err
		}
		from, err := b.bindExpr(x.From, s)
		if err != nil {
			return nil, err
		}
		args := []Expr{e, from}
		if x.For != nil {
			f, err := b.bindExpr(x.For, s)
			if err != nil {
				return nil, err
			}
			args = append(args, f)
		}
		return &FuncExpr{Kind: FuncSubstring, Args: args, Typ: mtypes.Varchar}, nil
	case *sqlparse.ExistsExpr:
		return nil, fmt.Errorf("plan: EXISTS only supported as a top-level WHERE conjunct")
	case *sqlparse.SubqueryExpr:
		// Uncorrelated scalar subquery used as a value.
		return b.bindSubplan(x.Select)
	}
	return nil, fmt.Errorf("plan: unsupported expression %T", ast)
}

// bindSubplan binds an uncorrelated scalar subquery as a query block of its
// own: it goes through the same OptimizeWith pipeline, with the caller's
// options, as the statement that contains it, and is numbered in bind order
// so traces and plan displays can name it.
func (b *binder) bindSubplan(sel *sqlparse.SelectStmt) (*SubplanExpr, error) {
	sub, err := b.bindSelect(sel, nil)
	if err != nil {
		return nil, err
	}
	sch := sub.Schema()
	if len(sch) != 1 {
		return nil, fmt.Errorf("plan: scalar subquery must return one column")
	}
	b.nsub++
	return &SubplanExpr{Plan: OptimizeWith(b.cat, sub, b.opts), Typ: sch[0].Typ, ID: b.nsub}, nil
}

func bindNumber(x *sqlparse.NumberLit) (Expr, error) {
	if x.IsFloat {
		var f float64
		if _, err := fmt.Sscanf(x.Text, "%g", &f); err != nil {
			return nil, fmt.Errorf("plan: invalid number %q", x.Text)
		}
		return &Const{Val: mtypes.NewDouble(f)}, nil
	}
	if dot := indexByte(x.Text, '.'); dot >= 0 {
		scale := len(x.Text) - dot - 1
		// Literals from float formatting can carry 17+ digits; clamp to a
		// scale int64 decimals can hold (rounding the excess).
		if scale > 12 {
			scale = 12
		}
		v, err := mtypes.ParseDecimal(x.Text, scale)
		if err != nil {
			return nil, err
		}
		return &Const{Val: mtypes.NewDecimal(18, scale, v)}, nil
	}
	var n int64
	if _, err := fmt.Sscanf(x.Text, "%d", &n); err != nil {
		return nil, fmt.Errorf("plan: invalid integer %q", x.Text)
	}
	if n >= -(1<<31) && n < 1<<31 {
		return &Const{Val: mtypes.NewInt(mtypes.Int, n)}, nil
	}
	return &Const{Val: mtypes.NewInt(mtypes.BigInt, n)}, nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func (b *binder) bindBinary(x *sqlparse.BinaryExpr, s *scope) (Expr, error) {
	// Date +/- INTERVAL handled specially (constant-folds when possible).
	if x.Op == "+" || x.Op == "-" {
		if iv, ok := x.R.(*sqlparse.IntervalLit); ok {
			l, err := b.bindExpr(x.L, s)
			if err != nil {
				return nil, err
			}
			return bindDateInterval(l, x.Op, iv)
		}
		if iv, ok := x.L.(*sqlparse.IntervalLit); ok && x.Op == "+" {
			r, err := b.bindExpr(x.R, s)
			if err != nil {
				return nil, err
			}
			return bindDateInterval(r, "+", iv)
		}
	}
	l, err := b.bindExpr(x.L, s)
	if err != nil {
		return nil, err
	}
	r, err := b.bindExpr(x.R, s)
	if err != nil {
		return nil, err
	}
	return makeBinOp(x.Op, l, r)
}

func bindDateInterval(e Expr, op string, iv *sqlparse.IntervalLit) (Expr, error) {
	n := iv.N
	if op == "-" {
		n = -n
	}
	if c, ok := FoldConst(e).(*Const); ok && c.Val.Typ.Kind == mtypes.KDate && !c.Val.Null {
		d := int32(c.Val.I)
		switch iv.Unit {
		case "DAY":
			d += int32(n)
		case "MONTH":
			d = mtypes.AddMonths(d, int(n))
		case "YEAR":
			d = mtypes.AddMonths(d, int(n)*12)
		}
		return &Const{Val: mtypes.NewDate(d)}, nil
	}
	if e.Type().Kind != mtypes.KDate {
		return nil, fmt.Errorf("plan: %s interval arithmetic requires a DATE operand, got %s", iv.Unit, e.Type())
	}
	switch iv.Unit {
	case "DAY":
		days := &Const{Val: mtypes.NewInt(mtypes.Int, n)}
		return &BinOp{Kind: BinArith, Arith: vec.OpAdd, L: e, R: days, Typ: mtypes.Date}, nil
	case "MONTH", "YEAR":
		months := n
		if iv.Unit == "YEAR" {
			months *= 12
		}
		return &FuncExpr{
			Kind: FuncAddMonths,
			Args: []Expr{e, &Const{Val: mtypes.NewInt(mtypes.Int, months)}},
			Typ:  mtypes.Date,
		}, nil
	default:
		return nil, fmt.Errorf("plan: unsupported interval unit %s", iv.Unit)
	}
}

// makeBinOp type-checks and constant-folds a bound binary operation.
func makeBinOp(op string, l, r Expr) (Expr, error) {
	switch op {
	case "AND", "OR":
		l, err := truthValue(l)
		if err != nil {
			return nil, err
		}
		r, err := truthValue(r)
		if err != nil {
			return nil, err
		}
		kind := BinAnd
		if op == "OR" {
			kind = BinOr
		}
		return &BinOp{Kind: kind, L: l, R: r, Typ: mtypes.Bool}, nil
	case "||":
		return FoldConst(&BinOp{Kind: BinConcat, L: l, R: r, Typ: mtypes.Varchar}), nil
	case "=", "<>", "<", "<=", ">", ">=":
		var cmp vec.CmpOp
		switch op {
		case "=":
			cmp = vec.CmpEq
		case "<>":
			cmp = vec.CmpNe
		case "<":
			cmp = vec.CmpLt
		case "<=":
			cmp = vec.CmpLe
		case ">":
			cmp = vec.CmpGt
		default:
			cmp = vec.CmpGe
		}
		l2, r2, err := alignComparable(l, r)
		if err != nil {
			return nil, err
		}
		return FoldConst(&BinOp{Kind: BinCmp, Cmp: cmp, L: l2, R: r2, Typ: mtypes.Bool}), nil
	case "+", "-", "*", "/", "%":
		var ar vec.ArithOp
		switch op {
		case "+":
			ar = vec.OpAdd
		case "-":
			ar = vec.OpSub
		case "*":
			ar = vec.OpMul
		case "/":
			ar = vec.OpDiv
		default:
			ar = vec.OpMod
		}
		// An untyped NULL (bare NULL literal or nil parameter) adopts the
		// other operand's type; otherwise a nil bound to a numeric column
		// fails the numeric check below as a spurious VARCHAR.
		if n, ok := retypeNullConst(l, r.Type()); ok {
			l = n
		} else if n, ok := retypeNullConst(r, l.Type()); ok {
			r = n
		}
		lt, rt := l.Type(), r.Type()
		if !lt.IsNumeric() && lt.Kind != mtypes.KDate || !rt.IsNumeric() && rt.Kind != mtypes.KDate {
			return nil, fmt.Errorf("plan: cannot apply %s to %s and %s", op, lt, rt)
		}
		typ := vec.ArithResultType(ar, lt, rt)
		return FoldConst(&BinOp{Kind: BinArith, Arith: ar, L: l, R: r, Typ: typ}), nil
	}
	return nil, fmt.Errorf("plan: unknown operator %q", op)
}

// truthValue checks an operand SQL reads as a truth value (AND, OR, NOT, a
// CASE WHEN condition, WHERE, HAVING, ON): a BOOLEAN, or an untyped NULL,
// which it retypes.
func truthValue(e Expr) (Expr, error) {
	if n, ok := retypeNullConst(e, mtypes.Bool); ok {
		return n, nil
	}
	if e.Type().Kind != mtypes.KBool {
		return nil, fmt.Errorf("plan: %s is not a truth value", e.Type())
	}
	return e, nil
}

// bindPredicate binds a condition: an expression that must be a truth value.
func (b *binder) bindPredicate(ast sqlparse.Expr, s *scope) (Expr, error) {
	e, err := b.bindExpr(ast, s)
	if err != nil {
		return nil, err
	}
	return truthValue(e)
}

// retypeNullConst rewrites an untyped NULL constant — a bare NULL literal or
// a nil query parameter, both of which bind as a VARCHAR null — to carry the
// type `to`, so NULL participates in comparisons and arithmetic against any
// column kind. Non-null constants and already-typed expressions are left
// alone.
func retypeNullConst(e Expr, to mtypes.Type) (Expr, bool) {
	c, ok := e.(*Const)
	if !ok || !c.Val.Null || c.Val.Typ.Kind != mtypes.KVarchar || to.Kind == mtypes.KVarchar {
		return e, false
	}
	return &Const{Val: mtypes.NullValue(to)}, true
}

// alignComparable validates a comparison's operand types, casting string
// constants to dates when compared against DATE columns.
func alignComparable(l, r Expr) (Expr, Expr, error) {
	if n, ok := retypeNullConst(l, r.Type()); ok {
		l = n
	} else if n, ok := retypeNullConst(r, l.Type()); ok {
		r = n
	}
	lt, rt := l.Type(), r.Type()
	if lt.Kind == mtypes.KDate && rt.Kind == mtypes.KVarchar {
		if c, ok := r.(*Const); ok && !c.Val.Null {
			d, err := mtypes.ParseDate(c.Val.S)
			if err != nil {
				return nil, nil, err
			}
			return l, &Const{Val: mtypes.NewDate(d)}, nil
		}
	}
	if rt.Kind == mtypes.KDate && lt.Kind == mtypes.KVarchar {
		if c, ok := l.(*Const); ok && !c.Val.Null {
			d, err := mtypes.ParseDate(c.Val.S)
			if err != nil {
				return nil, nil, err
			}
			return &Const{Val: mtypes.NewDate(d)}, r, nil
		}
	}
	lComp := lt.IsNumeric() || lt.Kind == mtypes.KDate || lt.Kind == mtypes.KBool
	rComp := rt.IsNumeric() || rt.Kind == mtypes.KDate || rt.Kind == mtypes.KBool
	if lt.Kind == mtypes.KVarchar && rt.Kind == mtypes.KVarchar {
		return l, r, nil
	}
	if lComp && rComp {
		return l, r, nil
	}
	return nil, nil, fmt.Errorf("plan: cannot compare %s with %s", lt, rt)
}

func (b *binder) bindFunc(x *sqlparse.FuncCall, s *scope) (Expr, error) {
	if _, isAgg := aggNames[x.Name]; isAgg {
		return nil, fmt.Errorf("plan: aggregate %q not allowed here", x.Name)
	}
	var kind FuncKind
	var typ mtypes.Type
	minArgs, maxArgs := 1, 1
	switch x.Name {
	case "sqrt":
		kind, typ = FuncSqrt, mtypes.Double
	case "abs":
		kind = FuncAbs // typed by its argument
	case "upper", "ucase":
		kind, typ = FuncUpper, mtypes.Varchar
	case "lower", "lcase":
		kind, typ = FuncLower, mtypes.Varchar
	case "concat":
		kind, typ, maxArgs = FuncConcat, mtypes.Varchar, len(x.Args)
	case "substring", "substr":
		kind, typ, minArgs, maxArgs = FuncSubstring, mtypes.Varchar, 2, 3
	default:
		return nil, fmt.Errorf("plan: unknown function %q", x.Name)
	}
	if len(x.Args) < minArgs || len(x.Args) > maxArgs {
		return nil, fmt.Errorf("plan: wrong number of arguments to %s", x.Name)
	}
	args := make([]Expr, len(x.Args))
	for i, a := range x.Args {
		e, err := b.bindExpr(a, s)
		if err != nil {
			return nil, err
		}
		args[i] = e
	}
	switch kind {
	case FuncAbs:
		typ = args[0].Type()
	case FuncSqrt:
		if n, ok := retypeNullConst(args[0], mtypes.Double); ok {
			args[0] = n
		}
		if !args[0].Type().IsNumeric() {
			return nil, fmt.Errorf("plan: sqrt needs a number, got %s", args[0].Type())
		}
	}
	return FoldConst(&FuncExpr{Kind: kind, Args: args, Typ: typ}), nil
}

func (b *binder) bindCase(x *sqlparse.CaseExpr, s *scope) (Expr, error) {
	ce := &CaseExpr{}
	var operand Expr
	var err error
	if x.Operand != nil {
		operand, err = b.bindExpr(x.Operand, s)
		if err != nil {
			return nil, err
		}
	}
	for _, w := range x.Whens {
		var cond Expr
		if operand != nil {
			r, err := b.bindExpr(w.Cond, s)
			if err != nil {
				return nil, err
			}
			cond, err = makeBinOp("=", operand, r)
			if err != nil {
				return nil, err
			}
		} else {
			cond, err = b.bindPredicate(w.Cond, s)
			if err != nil {
				return nil, err
			}
		}
		res, err := b.bindExpr(w.Result, s)
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Result: res})
	}
	if x.Else != nil {
		ce.Else, err = b.bindExpr(x.Else, s)
		if err != nil {
			return nil, err
		}
	}
	ce.Typ = caseResultType(ce)
	return ce, nil
}

// caseResultType unifies the WHEN/ELSE result types (DOUBLE dominates,
// DECIMAL beats integers at the max scale, otherwise the first branch wins).
func caseResultType(ce *CaseExpr) mtypes.Type {
	var ts []mtypes.Type
	for _, w := range ce.Whens {
		ts = append(ts, w.Result.Type())
	}
	if ce.Else != nil {
		ts = append(ts, ce.Else.Type())
	}
	out := ts[0]
	for _, t := range ts[1:] {
		switch {
		case t.Kind == mtypes.KDouble || out.Kind == mtypes.KDouble:
			out = mtypes.Double
		case t.Kind == mtypes.KDecimal && out.Kind == mtypes.KDecimal:
			if t.Scale > out.Scale {
				out = t
			}
		case t.Kind == mtypes.KDecimal && out.IsInteger():
			out = t
		case out.Kind == mtypes.KDecimal && t.IsInteger():
			// keep out
		case t.Kind == mtypes.KBigInt && out.IsInteger():
			out = t
		}
	}
	return out
}

func extractExpr(field string, e Expr) Expr {
	kind := FuncExtractYear
	switch field {
	case "MONTH":
		kind = FuncExtractMonth
	case "DAY":
		kind = FuncExtractDay
	}
	return &FuncExpr{Kind: kind, Args: []Expr{e}, Typ: mtypes.Int}
}

func typeFromAST(name string, prec, scale, width int) (mtypes.Type, error) {
	kind := mtypes.ParseTypeName(name)
	if kind == mtypes.KUnknown {
		return mtypes.Type{}, fmt.Errorf("plan: unknown type %q", name)
	}
	t := mtypes.Type{Kind: kind}
	if kind == mtypes.KDecimal {
		t.Prec, t.Scale = prec, scale
		if t.Prec == 0 {
			t.Prec = 18
		}
	}
	if kind == mtypes.KVarchar {
		t.Width = width
	}
	return t, nil
}

// castTo wraps e in a cast when its type differs from the target.
func castTo(e Expr, to mtypes.Type) Expr {
	if e.Type() == to {
		return e
	}
	return FoldConst(&CastExpr{E: e, To: to})
}

// ---------------------------------------------------------------------------
// Subquery decorrelation (paper: the relational-level rewrites MonetDB
// performs before MAL generation).
// ---------------------------------------------------------------------------

// subqueryParts binds a subquery's FROM and splits its WHERE conjuncts into
// correlated equi-pairs (outer expr, inner expr), other correlated residuals
// and purely local filters (already applied to the returned plan).
type subqueryParts struct {
	plan      Node
	s         *scope
	corrOuter []Expr // over outer schema
	corrInner []Expr // over inner schema
	residual  []Expr // correlated non-equi conjuncts over (outer ++ inner)
}

func (b *binder) bindSubqueryParts(sel *sqlparse.SelectStmt, outer *scope) (*subqueryParts, error) {
	if len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.OrderBy) > 0 || sel.Limit >= 0 {
		return nil, fmt.Errorf("plan: correlated subqueries must be plain SELECT ... FROM ... WHERE")
	}
	// Bind FROM with the outer scope as parent.
	inner := &scope{parent: outer}
	var plan Node
	for _, ref := range sel.From {
		n, cols, err := b.bindTableRef(ref, outer)
		if err != nil {
			return nil, err
		}
		if plan == nil {
			plan = n
		} else {
			plan = &Join{Kind: JoinInner, Left: plan, Right: n}
		}
		inner.cols = append(inner.cols, cols...)
	}
	parts := &subqueryParts{plan: plan, s: inner}
	if sel.Where == nil {
		return parts, nil
	}
	for _, c := range splitConjuncts(sel.Where) {
		e, err := b.bindPredicate(c, inner)
		if err != nil {
			return nil, err
		}
		if !hasOuterRef(e) {
			parts.plan = &Filter{Input: parts.plan, Pred: e}
			continue
		}
		// Correlated: try outerExpr = innerExpr.
		if bo, ok := e.(*BinOp); ok && bo.Kind == BinCmp && bo.Cmp == vec.CmpEq {
			lOuter, lInner := hasOuterRef(bo.L), hasOuterRef(bo.R)
			switch {
			case lOuter && !lInner && onlyOuterRefs(bo.L):
				parts.corrOuter = append(parts.corrOuter, outerCols(bo.L, 0))
				parts.corrInner = append(parts.corrInner, bo.R)
				continue
			case lInner && !lOuter && onlyOuterRefs(bo.R):
				parts.corrOuter = append(parts.corrOuter, outerCols(bo.R, 0))
				parts.corrInner = append(parts.corrInner, bo.L)
				continue
			}
		}
		parts.residual = append(parts.residual, e)
	}
	return parts, nil
}

func hasOuterRef(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		if _, ok := x.(*outerRef); ok {
			found = true
		}
		return !found
	})
	return found
}

// onlyOuterRefs reports whether every column reference in e is an outerRef.
func onlyOuterRefs(e Expr) bool {
	ok := true
	WalkExpr(e, func(x Expr) bool {
		if _, isCol := x.(*ColRef); isCol {
			ok = false
		}
		return ok
	})
	return ok
}

// outerCols rewrites outerRef markers into ColRefs over the outer schema and
// shifts the inner ColRefs by shift: a correlated residual over
// (outer ++ inner) takes shift = len(outer).
func outerCols(e Expr, shift int) Expr {
	return MapExpr(e, func(x Expr) Expr {
		switch y := x.(type) {
		case *outerRef:
			return &ColRef{Slot: y.Slot, Typ: y.Typ, Name: y.Name}
		case *ColRef:
			return &ColRef{Slot: y.Slot + shift, Typ: y.Typ, Name: y.Name}
		}
		return x
	})
}

// bindExists turns [NOT] EXISTS(corr-subquery) into a semi/anti join.
func (b *binder) bindExists(outerPlan Node, s *scope, sub *sqlparse.SelectStmt, anti bool) (Node, error) {
	parts, err := b.bindSubqueryParts(sub, s)
	if err != nil {
		return nil, err
	}
	kind := JoinSemi
	if anti {
		kind = JoinAnti
	}
	j := &Join{Kind: kind, Left: outerPlan, Right: parts.plan, EquiL: parts.corrOuter, EquiR: parts.corrInner}
	nOuter := len(s.cols)
	for _, res := range parts.residual {
		j.Residual = andExpr(j.Residual, outerCols(res, nOuter))
	}
	if len(j.EquiL) == 0 && j.Residual == nil {
		return nil, fmt.Errorf("plan: uncorrelated EXISTS is not supported")
	}
	return j, nil
}

// bindInSubquery turns expr [NOT] IN (SELECT col ...) into a semi/anti join.
func (b *binder) bindInSubquery(outerPlan Node, s *scope, x *sqlparse.InExpr) (Node, error) {
	if len(x.Subquery.Items) != 1 || x.Subquery.Items[0].Star {
		return nil, fmt.Errorf("plan: IN subquery must select exactly one column")
	}
	// Uncorrelated subqueries get the full binder (GROUP BY, HAVING and
	// nested subqueries allowed) and join on the single output column.
	if !selectIsCorrelated(x.Subquery, s, b) {
		outerE, err := b.bindExpr(x.E, s)
		if err != nil {
			return nil, err
		}
		subPlan, err := b.bindSelect(x.Subquery, nil)
		if err != nil {
			return nil, err
		}
		sch := subPlan.Schema()
		kind := JoinSemi
		if x.Not {
			kind = JoinAnti
		}
		return &Join{
			Kind:  kind,
			Left:  outerPlan,
			Right: subPlan,
			EquiL: []Expr{outerE},
			EquiR: []Expr{&ColRef{Slot: 0, Typ: sch[0].Typ, Name: sch[0].Name}},
		}, nil
	}
	parts, err := b.bindSubqueryParts(x.Subquery, s)
	if err != nil {
		return nil, err
	}
	innerCol, err := b.bindExpr(x.Subquery.Items[0].Expr, parts.s)
	if err != nil {
		return nil, err
	}
	if hasOuterRef(innerCol) {
		return nil, fmt.Errorf("plan: IN subquery must select a column of its own FROM")
	}
	outerE, err := b.bindExpr(x.E, s)
	if err != nil {
		return nil, err
	}
	kind := JoinSemi
	if x.Not {
		// NOT IN with NULLs in the subquery result would be three-valued;
		// anti join matches when neither side produces NULL keys, which the
		// executor enforces by excluding NULL keys from hash tables.
		kind = JoinAnti
	}
	j := &Join{
		Kind:  kind,
		Left:  outerPlan,
		Right: parts.plan,
		EquiL: append([]Expr{outerE}, parts.corrOuter...),
		EquiR: append([]Expr{innerCol}, parts.corrInner...),
	}
	nOuter := len(s.cols)
	for _, res := range parts.residual {
		j.Residual = andExpr(j.Residual, outerCols(res, nOuter))
	}
	return j, nil
}

// bindScalarSubqueryCmp decorrelates `outerExpr CMP (SELECT agg(x) FROM ...
// WHERE corr)` into a grouped join (the classic Q2 rewrite):
//
//	Aggregate(inner, GROUP BY corrInner, agg) JOIN outer
//	    ON corrOuter = group keys, FILTER outerExpr CMP aggResult.
func (b *binder) bindScalarSubqueryCmp(outerPlan Node, s *scope, lhs sqlparse.Expr, op string, sub *sqlparse.SelectStmt) (Node, error) {
	// Uncorrelated scalar subquery: plain filter with a subplan constant.
	if !selectIsCorrelated(sub, s, b) {
		l, err := b.bindExpr(lhs, s)
		if err != nil {
			return nil, err
		}
		sp, err := b.bindSubplan(sub)
		if err != nil {
			return nil, err
		}
		pred, err := makeBinOp(op, l, sp)
		if err != nil {
			return nil, err
		}
		return &Filter{Input: outerPlan, Pred: pred}, nil
	}

	if len(sub.Items) != 1 {
		return nil, fmt.Errorf("plan: scalar subquery must select exactly one expression")
	}
	if !containsAgg(sub.Items[0].Expr) {
		return nil, fmt.Errorf("plan: correlated scalar subqueries must compute an aggregate")
	}
	parts, err := b.bindSubqueryParts(sub, s)
	if err != nil {
		return nil, err
	}
	if len(parts.corrOuter) == 0 {
		return nil, fmt.Errorf("plan: correlated scalar subquery needs equality correlation")
	}
	if len(parts.residual) > 0 {
		return nil, fmt.Errorf("plan: non-equality correlation in scalar subqueries is not supported")
	}
	// Build the grouped aggregate keyed by the inner correlation columns. The
	// item may be an expression over aggregate calls (Q17's 0.2*avg(...)):
	// it binds in an aggregate context where each call becomes an output of
	// the Aggregate, referenced at the join-output slot where it lands.
	nOuter := len(s.cols)
	agg := &Aggregate{Input: parts.plan}
	saved := b.agg
	b.agg = &aggCtx{agg: agg, s: parts.s, corr: true, base: nOuter + len(parts.corrInner)}
	r, err := b.bindExpr(sub.Items[0].Expr, parts.s)
	b.agg = saved
	if err != nil {
		return nil, err
	}
	agg.GroupBy = parts.corrInner
	for i := range parts.corrInner {
		agg.Names = append(agg.Names, fmt.Sprintf("k%d", i))
	}
	// Join outer with the grouped result on the correlation keys.
	equiR := make([]Expr, len(parts.corrInner))
	for i, g := range parts.corrInner {
		equiR[i] = &ColRef{Slot: i, Typ: g.Type(), Name: agg.Names[i]}
	}
	j := &Join{Kind: JoinInner, Left: outerPlan, Right: agg, EquiL: parts.corrOuter, EquiR: equiR}
	// Filter: outerExpr CMP the rebuilt item expression.
	l, err := b.bindExpr(lhs, s)
	if err != nil {
		return nil, err
	}
	pred, err := makeBinOp(op, l, r)
	if err != nil {
		return nil, err
	}
	// Project away the helper columns so the outer schema is preserved.
	filtered := &Filter{Input: j, Pred: pred}
	exprs := make([]Expr, nOuter)
	out := make(Schema, nOuter)
	for i, c := range s.cols {
		exprs[i] = &ColRef{Slot: i, Typ: c.typ, Name: c.name}
		out[i] = ColInfo{Qual: c.qual, Name: c.name, Typ: c.typ}
	}
	return &Project{Input: filtered, Exprs: exprs, Out: out}, nil
}

// selectIsCorrelated reports whether sub references columns of s.
func selectIsCorrelated(sub *sqlparse.SelectStmt, s *scope, b *binder) bool {
	// Collect the subquery's own column names and table aliases.
	localCols := map[string]bool{}
	localQuals := map[string]bool{}
	var collect func(refs []sqlparse.TableRef)
	collect = func(refs []sqlparse.TableRef) {
		for _, ref := range refs {
			switch x := ref.(type) {
			case *sqlparse.BaseTable:
				alias := x.Alias
				if alias == "" {
					alias = x.Name
				}
				localQuals[alias] = true
				if meta, ok := b.cat.TableMeta(x.Name); ok {
					for _, c := range meta.Cols {
						localCols[c.Name] = true
					}
				}
			case *sqlparse.JoinRef:
				collect([]sqlparse.TableRef{x.Left, x.Right})
			case *sqlparse.SubqueryRef:
				localQuals[x.Alias] = true
				for _, it := range x.Select.Items {
					if it.Alias != "" {
						localCols[it.Alias] = true
					}
				}
			}
		}
	}
	collect(sub.From)
	correlated := false
	walkAST(sub.Where, func(e sqlparse.Expr) bool {
		if id, ok := e.(*sqlparse.Ident); ok {
			isLocal := false
			if id.Qualifier != "" {
				isLocal = localQuals[id.Qualifier]
			} else {
				isLocal = localCols[id.Name]
			}
			if !isLocal {
				if _, _, _, err := s.resolve(id.Qualifier, id.Name); err == nil {
					correlated = true
				}
			}
		}
		return !correlated
	})
	return correlated
}
