package plan

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"monetlite/internal/mtypes"
	"monetlite/internal/sqlparse"
	"monetlite/internal/storage"
	"monetlite/internal/vec"
)

// Catalog is the schema source the binder resolves table names against.
type Catalog interface {
	TableMeta(name string) (*storage.TableMeta, bool)
	// TableRows estimates the table's row count (join ordering heuristic).
	TableRows(name string) int64
}

// Bound statement forms.
type (
	// BoundQuery is a SELECT ready for execution.
	BoundQuery struct{ Plan Node }
	// BoundInsert inserts literal rows or a query result into a table.
	BoundInsert struct {
		Table  string
		Values []*vec.Vector // one vector per table column, fully coerced
		Query  Node          // alternatively, INSERT ... SELECT
	}
	// BoundDelete deletes the rows of Table satisfying Pred (nil = all).
	BoundDelete struct {
		Table string
		Pred  Expr // over the full table schema
	}
	// BoundUpdate rewrites matching rows (delete+append semantics).
	BoundUpdate struct {
		Table    string
		SetCols  []int  // table column indexes being assigned
		SetExprs []Expr // over the full table schema
		Pred     Expr
	}
)

// BindSelect binds a parsed SELECT into an optimized logical plan.
func BindSelect(cat Catalog, sel *sqlparse.SelectStmt, params []mtypes.Value) (*BoundQuery, error) {
	return BindSelectWith(cat, sel, params, OptOpts{})
}

// BindSelectWith is BindSelect with explicit optimizer options (e.g. the
// written-order baseline used by plan-quality tests).
func BindSelectWith(cat Catalog, sel *sqlparse.SelectStmt, params []mtypes.Value, opts OptOpts) (*BoundQuery, error) {
	b := &binder{cat: cat, params: params, opts: opts}
	n, err := b.bindSelect(sel, nil)
	if err != nil {
		return nil, err
	}
	return &BoundQuery{Plan: OptimizeWith(cat, n, opts)}, nil
}

// BindInsert binds an INSERT statement.
func BindInsert(cat Catalog, ins *sqlparse.InsertStmt, params []mtypes.Value) (*BoundInsert, error) {
	meta, ok := cat.TableMeta(ins.Table)
	if !ok {
		return nil, fmt.Errorf("plan: no such table %q", ins.Table)
	}
	// Column mapping: listed columns (or all, in order).
	colIdx := make([]int, 0, len(meta.Cols))
	if len(ins.Cols) == 0 {
		for i := range meta.Cols {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range ins.Cols {
			ci := meta.ColIndex(name)
			if ci < 0 {
				return nil, fmt.Errorf("plan: no column %q in table %q", name, ins.Table)
			}
			colIdx = append(colIdx, ci)
		}
	}
	b := &binder{cat: cat, params: params}
	if ins.Select != nil {
		n, err := b.bindSelect(ins.Select, nil)
		if err != nil {
			return nil, err
		}
		if len(n.Schema()) != len(colIdx) {
			return nil, fmt.Errorf("plan: INSERT SELECT arity mismatch: %d vs %d", len(n.Schema()), len(colIdx))
		}
		// Reorder/cast to full table schema.
		exprs := make([]Expr, len(meta.Cols))
		names := make([]string, len(meta.Cols))
		for i := range meta.Cols {
			exprs[i] = &Const{Val: mtypes.NullValue(meta.Cols[i].Typ)}
			names[i] = meta.Cols[i].Name
		}
		for k, ci := range colIdx {
			src := &ColRef{Slot: k, Typ: n.Schema()[k].Typ, Name: n.Schema()[k].Name}
			exprs[ci] = castTo(src, meta.Cols[ci].Typ)
		}
		out := make(Schema, len(meta.Cols))
		for i := range meta.Cols {
			out[i] = ColInfo{Name: names[i], Typ: meta.Cols[i].Typ}
		}
		return &BoundInsert{Table: ins.Table, Query: Optimize(cat, &Project{Input: n, Exprs: exprs, Out: out})}, nil
	}
	// Literal VALUES: evaluate each expression (must be constant).
	cols := make([]*vec.Vector, len(meta.Cols))
	for i, cd := range meta.Cols {
		cols[i] = vec.NewCap(cd.Typ, len(ins.Rows))
	}
	for _, row := range ins.Rows {
		if len(row) != len(colIdx) {
			return nil, fmt.Errorf("plan: INSERT row has %d values, want %d", len(row), len(colIdx))
		}
		provided := make(map[int]bool, len(colIdx))
		for k, ast := range row {
			ci := colIdx[k]
			provided[ci] = true
			e, err := b.bindExpr(ast, nil)
			if err != nil {
				return nil, err
			}
			if !IsConst(e) {
				return nil, fmt.Errorf("plan: INSERT values must be constants")
			}
			v, err := EvalRow(e, &EvalCtx{})
			if err != nil {
				return nil, err
			}
			cv, err := CastValue(v, meta.Cols[ci].Typ)
			if err != nil {
				return nil, fmt.Errorf("plan: INSERT into %s.%s: %w", ins.Table, meta.Cols[ci].Name, err)
			}
			cols[ci].AppendValue(cv)
		}
		for i := range meta.Cols {
			if !provided[i] {
				cols[i].AppendValue(mtypes.NullValue(meta.Cols[i].Typ))
			}
		}
	}
	return &BoundInsert{Table: ins.Table, Values: cols}, nil
}

// BindDelete binds a DELETE statement.
func BindDelete(cat Catalog, del *sqlparse.DeleteStmt, params []mtypes.Value) (*BoundDelete, error) {
	meta, ok := cat.TableMeta(del.Table)
	if !ok {
		return nil, fmt.Errorf("plan: no such table %q", del.Table)
	}
	out := &BoundDelete{Table: del.Table}
	if del.Where != nil {
		b := &binder{cat: cat, params: params}
		s := scopeForTable(meta, del.Table)
		e, err := b.bindPredicate(del.Where, s)
		if err != nil {
			return nil, err
		}
		out.Pred = e
	}
	return out, nil
}

// BindUpdate binds an UPDATE statement.
func BindUpdate(cat Catalog, up *sqlparse.UpdateStmt, params []mtypes.Value) (*BoundUpdate, error) {
	meta, ok := cat.TableMeta(up.Table)
	if !ok {
		return nil, fmt.Errorf("plan: no such table %q", up.Table)
	}
	b := &binder{cat: cat, params: params}
	s := scopeForTable(meta, up.Table)
	out := &BoundUpdate{Table: up.Table}
	for _, set := range up.Set {
		ci := meta.ColIndex(set.Col)
		if ci < 0 {
			return nil, fmt.Errorf("plan: no column %q in table %q", set.Col, up.Table)
		}
		e, err := b.bindExpr(set.Expr, s)
		if err != nil {
			return nil, err
		}
		out.SetCols = append(out.SetCols, ci)
		out.SetExprs = append(out.SetExprs, castTo(e, meta.Cols[ci].Typ))
	}
	if up.Where != nil {
		e, err := b.bindPredicate(up.Where, s)
		if err != nil {
			return nil, err
		}
		out.Pred = e
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Scopes.
// ---------------------------------------------------------------------------

type scopeCol struct {
	qual string
	name string
	typ  mtypes.Type
}

type scope struct {
	parent *scope
	cols   []scopeCol
}

func scopeForTable(meta *storage.TableMeta, alias string) *scope {
	s := &scope{}
	for _, c := range meta.Cols {
		s.cols = append(s.cols, scopeCol{qual: alias, name: c.Name, typ: c.Typ})
	}
	return s
}

// resolve finds (slot, depth) for a column reference; depth 0 = this scope,
// 1 = parent (a correlated outer reference), etc.
func (s *scope) resolve(qual, name string) (slot, depth int, typ mtypes.Type, err error) {
	for sc, d := s, 0; sc != nil; sc, d = sc.parent, d+1 {
		found := -1
		for i, c := range sc.cols {
			if c.name != name {
				continue
			}
			if qual != "" && c.qual != qual {
				continue
			}
			if found >= 0 {
				return 0, 0, mtypes.Type{}, fmt.Errorf("plan: ambiguous column %q", name)
			}
			found = i
		}
		if found >= 0 {
			return found, d, sc.cols[found].typ, nil
		}
	}
	if qual != "" {
		return 0, 0, mtypes.Type{}, fmt.Errorf("plan: unknown column %s.%s", qual, name)
	}
	return 0, 0, mtypes.Type{}, fmt.Errorf("plan: unknown column %q", name)
}

func (s *scope) schema() Schema {
	out := make(Schema, len(s.cols))
	for i, c := range s.cols {
		out[i] = ColInfo{Qual: c.qual, Name: c.name, Typ: c.typ}
	}
	return out
}

// outerRef marks a correlated reference to the parent scope during subquery
// binding; decorrelation replaces it before execution.
type outerRef struct {
	Slot int
	Typ  mtypes.Type
	Name string
}

// Type returns the referenced column's type.
func (e *outerRef) Type() mtypes.Type { return e.Typ }

// ---------------------------------------------------------------------------
// SELECT binding.
// ---------------------------------------------------------------------------

type binder struct {
	cat    Catalog
	params []mtypes.Value
	opts   OptOpts // for the nested query blocks the binder optimizes itself
	nsub   int     // scalar subqueries bound so far (SubplanExpr.ID)
	// win collects window calls while one SELECT's items are bound; nil
	// anywhere else, which is what rejects OVER outside the select list.
	win *windowCtx
	// agg is set while a query block's select list, HAVING and ORDER BY
	// bind over its Aggregate (and while a correlated scalar subquery's
	// item binds); nil anywhere else, aggregate arguments included.
	agg *aggCtx
}

var aggNames = map[string]vec.AggKind{
	"sum": vec.AggSum, "count": vec.AggCount, "min": vec.AggMin,
	"max": vec.AggMax, "avg": vec.AggAvg, "median": vec.AggMedian,
}

func isAggCall(e sqlparse.Expr) (*sqlparse.FuncCall, bool) {
	fc, ok := e.(*sqlparse.FuncCall)
	if !ok {
		return nil, false
	}
	if fc.Over != nil {
		// A windowed sum(...) OVER (...) is a window call, not an aggregate —
		// though its arguments and spec may contain real aggregates, which
		// walkAST still reaches.
		return nil, false
	}
	_, isAgg := aggNames[fc.Name]
	return fc, isAgg
}

func containsAgg(e sqlparse.Expr) bool {
	found := false
	walkAST(e, func(x sqlparse.Expr) bool {
		if _, ok := isAggCall(x); ok {
			found = true
		}
		return !found
	})
	return found
}

// bindSelect binds a full SELECT (outer = enclosing scope for correlated
// subqueries; nil at top level).
func (b *binder) bindSelect(sel *sqlparse.SelectStmt, outer *scope) (Node, error) {
	// The window and aggregate contexts are per query block; nested binds
	// get a clean slate.
	savedWin, savedAgg := b.win, b.agg
	b.win, b.agg = nil, nil
	defer func() { b.win, b.agg = savedWin, savedAgg }()

	plan, s, err := b.bindFromWhere(sel, outer)
	if err != nil {
		return nil, err
	}

	hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, it := range sel.Items {
		if !it.Star && containsAgg(it.Expr) {
			hasAgg = true
		}
	}
	if hasAgg {
		if plan, err = b.bindAggregate(sel, plan, s); err != nil {
			return nil, err
		}
	}

	win := &windowCtx{}
	b.win = win
	var projExprs []Expr
	var projNames []string
	for _, it := range sel.Items {
		if it.Star {
			if hasAgg {
				return nil, fmt.Errorf("plan: SELECT * cannot be combined with aggregation")
			}
			for i, c := range s.cols {
				projExprs = append(projExprs, &ColRef{Slot: i, Typ: c.typ, Name: c.name})
				projNames = append(projNames, c.name)
			}
			continue
		}
		e, err := b.bindExpr(it.Expr, s)
		if err != nil {
			return nil, err
		}
		projExprs = append(projExprs, e)
		projNames = append(projNames, itemName(it))
	}
	// HAVING and ORDER BY evaluate below the Window nodes: no window calls
	// there. Both may still add Aggregate outputs, so they bind before the
	// Window nodes are stacked over the Aggregate.
	b.win = nil
	if sel.Having != nil {
		h, err := b.bindPredicate(sel.Having, s)
		if err != nil {
			return nil, err
		}
		plan = &Filter{Input: plan, Pred: h}
	}
	nVisible := len(projExprs)
	var keys []SortSpec
	if len(sel.OrderBy) > 0 {
		if keys, projExprs, projNames, err = b.bindOrderBy(sel, projExprs, projNames, s); err != nil {
			return nil, err
		}
	}
	b.agg = nil
	if len(win.groups) > 0 {
		plan = attachWindows(plan, win.groups, projExprs)
	}

	out := make(Schema, len(projExprs))
	for i := range projExprs {
		out[i] = ColInfo{Name: projNames[i], Typ: projExprs[i].Type()}
	}
	var result Node = &Project{Input: plan, Exprs: projExprs, Out: out}
	if sel.Distinct {
		result = &Distinct{Input: result}
	}
	if len(keys) > 0 {
		result = &Sort{Input: result, Keys: keys}
		if len(projExprs) > nVisible {
			// Strip the hidden sort columns bindOrderBy appended.
			strip := make([]Expr, nVisible)
			for i := range strip {
				strip[i] = &ColRef{Slot: i, Typ: out[i].Typ, Name: out[i].Name}
			}
			result = &Project{Input: result, Exprs: strip, Out: out[:nVisible:nVisible]}
		}
	}
	if sel.Limit >= 0 || sel.Offset > 0 {
		n := sel.Limit
		if n < 0 {
			// OFFSET without LIMIT: NoLimit keeps the TopN fusion rule off.
			n = NoLimit
		}
		result = &Limit{Input: result, N: n, Offset: sel.Offset}
	}
	return result, nil
}

func itemName(it sqlparse.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if id, ok := it.Expr.(*sqlparse.Ident); ok {
		return id.Name
	}
	return "col"
}

// bindFromWhere builds the FROM plan and applies WHERE conjuncts, performing
// subquery decorrelation along the way.
func (b *binder) bindFromWhere(sel *sqlparse.SelectStmt, outer *scope) (Node, *scope, error) {
	if len(sel.From) == 0 {
		// SELECT without FROM: single-row dual.
		return &Project{Input: nil, Exprs: nil, Out: Schema{}}, &scope{parent: outer}, nil
	}
	var plan Node
	s := &scope{parent: outer}
	for _, ref := range sel.From {
		n, cols, err := b.bindTableRef(ref, outer)
		if err != nil {
			return nil, nil, err
		}
		if plan == nil {
			plan = n
		} else {
			plan = &Join{Kind: JoinInner, Left: plan, Right: n}
		}
		s.cols = append(s.cols, cols...)
	}
	if sel.Where == nil {
		return plan, s, nil
	}
	conjuncts := splitConjuncts(sel.Where)
	for _, c := range conjuncts {
		var err error
		plan, err = b.applyConjunct(plan, s, c)
		if err != nil {
			return nil, nil, err
		}
	}
	return plan, s, nil
}

func splitConjuncts(e sqlparse.Expr) []sqlparse.Expr {
	if be, ok := e.(*sqlparse.BinaryExpr); ok && be.Op == "AND" {
		return append(splitConjuncts(be.L), splitConjuncts(be.R)...)
	}
	return []sqlparse.Expr{e}
}

// applyConjunct attaches one WHERE conjunct to the plan, decorrelating
// subqueries into semi/anti joins or grouped joins.
func (b *binder) applyConjunct(plan Node, s *scope, c sqlparse.Expr) (Node, error) {
	switch x := c.(type) {
	case *sqlparse.ExistsExpr:
		return b.bindExists(plan, s, x.Subquery, false)
	case *sqlparse.UnaryExpr:
		if x.Op == "NOT" {
			if ex, ok := x.E.(*sqlparse.ExistsExpr); ok {
				return b.bindExists(plan, s, ex.Subquery, true)
			}
		}
	case *sqlparse.InExpr:
		if x.Subquery != nil {
			return b.bindInSubquery(plan, s, x)
		}
	case *sqlparse.BinaryExpr:
		if isCmpOp(x.Op) {
			if sq, ok := x.R.(*sqlparse.SubqueryExpr); ok {
				return b.bindScalarSubqueryCmp(plan, s, x.L, x.Op, sq.Select)
			}
			if sq, ok := x.L.(*sqlparse.SubqueryExpr); ok {
				return b.bindScalarSubqueryCmp(plan, s, x.R, flipOp(x.Op), sq.Select)
			}
		}
	}
	e, err := b.bindPredicate(c, s)
	if err != nil {
		return nil, err
	}
	return &Filter{Input: plan, Pred: e}, nil
}

func isCmpOp(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

func (b *binder) bindTableRef(ref sqlparse.TableRef, outer *scope) (Node, []scopeCol, error) {
	switch x := ref.(type) {
	case *sqlparse.BaseTable:
		meta, ok := b.cat.TableMeta(x.Name)
		if !ok {
			return nil, nil, fmt.Errorf("plan: no such table %q", x.Name)
		}
		alias := x.Alias
		if alias == "" {
			alias = x.Name
		}
		cols := make([]int, len(meta.Cols))
		out := make(Schema, len(meta.Cols))
		scols := make([]scopeCol, len(meta.Cols))
		for i, c := range meta.Cols {
			cols[i] = i
			out[i] = ColInfo{Qual: alias, Name: c.Name, Typ: c.Typ}
			scols[i] = scopeCol{qual: alias, name: c.Name, typ: c.Typ}
		}
		return &Scan{Table: x.Name, Cols: cols, Out: out}, scols, nil
	case *sqlparse.SubqueryRef:
		// Derived tables bind with no outer scope (no lateral correlation).
		n, err := b.bindSelect(x.Select, nil)
		if err != nil {
			return nil, nil, err
		}
		sch := n.Schema()
		scols := make([]scopeCol, len(sch))
		for i, c := range sch {
			scols[i] = scopeCol{qual: x.Alias, name: c.Name, typ: c.Typ}
		}
		return n, scols, nil
	case *sqlparse.JoinRef:
		ln, lcols, err := b.bindTableRef(x.Left, outer)
		if err != nil {
			return nil, nil, err
		}
		rn, rcols, err := b.bindTableRef(x.Right, outer)
		if err != nil {
			return nil, nil, err
		}
		joined := &scope{parent: outer, cols: append(append([]scopeCol{}, lcols...), rcols...)}
		kind := JoinInner
		if x.Type == sqlparse.JoinLeft {
			kind = JoinLeft
		}
		j := &Join{Kind: kind, Left: ln, Right: rn}
		if x.On != nil {
			on, err := b.bindPredicate(x.On, joined)
			if err != nil {
				return nil, nil, err
			}
			if hasOuterRef(on) {
				return nil, nil, fmt.Errorf("plan: JOIN ... ON cannot reference an enclosing query")
			}
			// Split equi conditions referencing exactly one side each.
			nLeft := len(lcols)
			for _, conj := range splitBoundConjuncts(on) {
				if l, r, ok := equiSides(conj, nLeft, len(joined.cols)); ok {
					j.EquiL = append(j.EquiL, l)
					j.EquiR = append(j.EquiR, r)
				} else {
					j.Residual = andExpr(j.Residual, conj)
				}
			}
		}
		return j, joined.cols, nil
	}
	return nil, nil, fmt.Errorf("plan: unsupported table reference %T", ref)
}

// splitBoundConjuncts splits a bound predicate on AND (nil = no conjuncts).
func splitBoundConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if bo, ok := e.(*BinOp); ok && bo.Kind == BinAnd {
		return append(splitBoundConjuncts(bo.L), splitBoundConjuncts(bo.R)...)
	}
	return []Expr{e}
}

// SplitConjuncts splits a bound predicate on top-level ANDs. The executor
// filters by refining one candidate list conjunct by conjunct, so it needs
// the same decomposition the optimizer uses for pushdown.
func SplitConjuncts(e Expr) []Expr { return splitBoundConjuncts(e) }

// equiSides recognizes `leftExpr = rightExpr` where leftExpr only touches
// slots < nLeft and rightExpr only slots >= nLeft (or vice versa); returns
// the pair rebased for Join.EquiL/EquiR.
func equiSides(e Expr, nLeft, total int) (Expr, Expr, bool) {
	bo, ok := e.(*BinOp)
	if !ok || bo.Kind != BinCmp || bo.Cmp != vec.CmpEq {
		return nil, nil, false
	}
	side := func(x Expr) (onlyLeft, onlyRight bool) {
		used := map[int]bool{}
		SlotsUsed(x, used)
		if len(used) == 0 {
			return false, false
		}
		onlyLeft, onlyRight = true, true
		for s := range used {
			if s >= nLeft {
				onlyLeft = false
			} else {
				onlyRight = false
			}
		}
		return onlyLeft, onlyRight
	}
	lL, lR := side(bo.L)
	rL, rR := side(bo.R)
	rebase := func(x Expr) Expr { return MapSlots(x, func(s int) int { return s - nLeft }) }
	switch {
	case lL && rR:
		return bo.L, rebase(bo.R), true
	case lR && rL:
		return bo.R, rebase(bo.L), true
	}
	return nil, nil, false
}

func andExpr(a, b Expr) Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &BinOp{Kind: BinAnd, L: a, R: b, Typ: mtypes.Bool}
}

// ---------------------------------------------------------------------------
// Aggregation binding.
// ---------------------------------------------------------------------------

// aggCtx is the aggregate context of one query block. While it is set,
// bindExpr binds over the Aggregate's output (bindInAgg): a whole subtree
// equal to a GROUP BY key becomes a ColRef to its slot, an aggregate call an
// output of agg, and any other column is an error. Every other node binds as
// anywhere else, over its bound children.
type aggCtx struct {
	agg     *Aggregate
	s       *scope // the Aggregate's input: aggregate arguments bind over it
	aliases map[string]sqlparse.Expr
	// corr marks a correlated scalar subquery's item: no GROUP BY keys to
	// match, and aggregate k becomes a ColRef to slot base+k of the join
	// the Aggregate feeds.
	corr bool
	base int
}

// bindAggregate binds GROUP BY (ordinals, aliases, plain expressions) over
// plan and sets the aggregate context the select list, HAVING and ORDER BY
// bind in.
func (b *binder) bindAggregate(sel *sqlparse.SelectStmt, plan Node, s *scope) (*Aggregate, error) {
	aliases := map[string]sqlparse.Expr{}
	for _, it := range sel.Items {
		if it.Alias != "" && !it.Star {
			aliases[it.Alias] = it.Expr
		}
	}
	agg := &Aggregate{Input: plan}
	for _, g := range sel.GroupBy {
		ast := g
		name := ""
		if num, ok := g.(*sqlparse.NumberLit); ok && !strings.Contains(num.Text, ".") {
			ord, err := strconv.Atoi(num.Text)
			if err != nil || ord < 1 || ord > len(sel.Items) || sel.Items[ord-1].Star {
				return nil, fmt.Errorf("plan: invalid GROUP BY ordinal %s", num.Text)
			}
			ast = sel.Items[ord-1].Expr
			name = itemName(sel.Items[ord-1])
		} else if id, ok := g.(*sqlparse.Ident); ok && id.Qualifier == "" {
			ast = resolveAlias(id, aliases, s)
			name = id.Name
		}
		e, err := b.bindExpr(ast, s)
		if err != nil {
			return nil, err
		}
		if name == "" {
			name = ExprString(e)
		}
		agg.GroupBy = append(agg.GroupBy, e)
		agg.Names = append(agg.Names, name)
	}
	b.agg = &aggCtx{agg: agg, s: s, aliases: aliases}
	return agg, nil
}

// resolveAlias returns the select item an unqualified name aliases; an alias
// wins only when the name is not a real input column.
func resolveAlias(id *sqlparse.Ident, aliases map[string]sqlparse.Expr, s *scope) sqlparse.Expr {
	if a, found := aliases[id.Name]; found {
		if _, _, _, err := s.resolve("", id.Name); err != nil {
			return a
		}
	}
	return id
}

// bindInAgg binds the nodes the aggregate context owns; done is false for
// every other node, which then binds as anywhere else.
func (b *binder) bindInAgg(ast sqlparse.Expr) (e Expr, done bool, err error) {
	a := b.agg
	if !a.corr {
		if e, ok := b.matchGroup(ast); ok {
			return e, true, nil
		}
	}
	if fc, ok := isAggCall(ast); ok {
		e, err := b.addAgg(fc)
		return e, true, err
	}
	if id, ok := ast.(*sqlparse.Ident); ok {
		if a.corr {
			return nil, true, fmt.Errorf("plan: correlated scalar subquery item must combine aggregates and constants")
		}
		return nil, true, fmt.Errorf("plan: column %q must appear in GROUP BY or an aggregate", id.Name)
	}
	return nil, false, nil
}

// bindPlain binds ast over s outside the aggregate and window contexts.
func (b *binder) bindPlain(ast sqlparse.Expr, s *scope) (Expr, error) {
	agg, win := b.agg, b.win
	b.agg, b.win = nil, nil
	e, err := b.bindExpr(ast, s)
	b.agg, b.win = agg, win
	return e, err
}

// matchGroup matches a whole subtree against the GROUP BY keys. Only a
// subtree that reads a column and holds no aggregate, window call or
// subquery can match; binding one of those to try would have side effects.
func (b *binder) matchGroup(ast sqlparse.Expr) (Expr, bool) {
	a := b.agg
	if id, ok := ast.(*sqlparse.Ident); ok && id.Qualifier == "" {
		ast = resolveAlias(id, a.aliases, a.s)
	}
	col, ok := false, true
	walkAST(ast, func(x sqlparse.Expr) bool {
		switch y := x.(type) {
		case *sqlparse.Ident:
			col = true
		case *sqlparse.FuncCall:
			_, isAgg := aggNames[y.Name]
			ok = y.Over == nil && !isAgg
		case *sqlparse.SubqueryExpr, *sqlparse.ExistsExpr:
			ok = false
		case *sqlparse.InExpr:
			ok = y.Subquery == nil
		}
		return ok
	})
	if !ok || !col {
		return nil, false
	}
	bound, err := b.bindPlain(ast, a.s)
	if err != nil {
		return nil, false
	}
	for i, g := range a.agg.GroupBy {
		if reflect.DeepEqual(bound, g) {
			return &ColRef{Slot: i, Typ: g.Type(), Name: a.agg.Names[i]}, true
		}
	}
	return nil, false
}

// addAgg adds an aggregate call to the context's Aggregate (an identical
// call is shared) and returns the reference to its result.
func (b *binder) addAgg(x *sqlparse.FuncCall) (Expr, error) {
	a := b.agg
	call := AggCall{Kind: aggNames[x.Name], Distinct: x.Distinct, Name: x.Name}
	if x.Star {
		if call.Kind != vec.AggCount {
			return nil, fmt.Errorf("plan: %s(*) is not valid", x.Name)
		}
		call.Kind = vec.AggCountStar
	} else {
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("plan: %s takes exactly one argument", x.Name)
		}
		// Aggregate arguments evaluate below the Window nodes: a window call
		// inside one must error, not leak an unresolved placeholder.
		arg, err := b.bindPlain(x.Args[0], a.s)
		if err != nil {
			return nil, err
		}
		if a.corr && hasOuterRef(arg) {
			return nil, fmt.Errorf("plan: outer reference inside an aggregate of a correlated subquery is not supported")
		}
		if (call.Kind == vec.AggSum || call.Kind == vec.AggAvg) && !arg.Type().IsNumeric() {
			return nil, fmt.Errorf("plan: %s over %s is not valid", x.Name, arg.Type())
		}
		call.Arg = arg
	}
	k := len(a.agg.Aggs)
	for i, c := range a.agg.Aggs {
		if c.Kind == call.Kind && c.Distinct == call.Distinct && reflect.DeepEqual(c.Arg, call.Arg) {
			k = i
			break
		}
	}
	if k == len(a.agg.Aggs) {
		a.agg.Aggs = append(a.agg.Aggs, call)
	}
	if a.corr {
		return &ColRef{Slot: a.base + k, Typ: aggType(call), Name: x.Name}, nil
	}
	return &AggRef{Slot: len(a.agg.GroupBy) + k, Typ: aggType(call)}, nil
}

func aggType(a AggCall) mtypes.Type {
	t := mtypes.BigInt
	if a.Arg != nil {
		t = a.Arg.Type()
	}
	return vec.AggResultType(a.Kind, t)
}

// ---------------------------------------------------------------------------
// ORDER BY binding.
// ---------------------------------------------------------------------------

// bindOrderBy resolves each ORDER BY key to a slot of the select list: an
// ordinal, an output name, or an expression bound in the select list's
// context (the aggregate context under aggregation) that either equals a
// select item or is appended as a hidden sort column. Under DISTINCT a
// hidden column would change what is distinct, so it is an error there.
func (b *binder) bindOrderBy(sel *sqlparse.SelectStmt, exprs []Expr, names []string, s *scope) ([]SortSpec, []Expr, []string, error) {
	nVisible := len(exprs)
	var keys []SortSpec
	for _, oi := range sel.OrderBy {
		slot := -1
		if num, ok := oi.Expr.(*sqlparse.NumberLit); ok && !strings.Contains(num.Text, ".") {
			ord, err := strconv.Atoi(num.Text)
			if err != nil || ord < 1 || ord > nVisible {
				return nil, nil, nil, fmt.Errorf("plan: invalid ORDER BY ordinal %s", num.Text)
			}
			slot = ord - 1
		} else if id, ok := oi.Expr.(*sqlparse.Ident); ok && id.Qualifier == "" {
			slot = slices.Index(names[:nVisible], id.Name)
		}
		if slot < 0 {
			bound, err := b.bindExpr(oi.Expr, s)
			if err != nil {
				return nil, nil, nil, err
			}
			slot = slices.IndexFunc(exprs[:nVisible], func(e Expr) bool { return reflect.DeepEqual(bound, e) })
			if slot < 0 {
				if sel.Distinct {
					return nil, nil, nil, fmt.Errorf("plan: for SELECT DISTINCT, ORDER BY expressions must appear in the select list")
				}
				exprs = append(exprs, bound)
				names = append(names, "$sort")
				slot = len(exprs) - 1
			}
		}
		keys = append(keys, SortSpec{E: &ColRef{Slot: slot, Typ: exprs[slot].Type(), Name: names[slot]}, Desc: oi.Desc})
	}
	return keys, exprs, names, nil
}
