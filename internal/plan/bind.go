package plan

import (
	"fmt"
	"reflect"
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
		e, err := b.bindExpr(del.Where, s)
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
		e, err := b.bindExpr(up.Where, s)
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
	// Window collection is per SELECT; nested binds get a clean slate.
	savedWin := b.win
	b.win = nil
	defer func() { b.win = savedWin }()

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

	var projExprs []Expr
	var projNames []string
	if hasAgg {
		plan, projExprs, projNames, err = b.bindAggregate(sel, plan, s)
		if err != nil {
			return nil, err
		}
	} else {
		b.win = &windowCtx{bind: func(ast sqlparse.Expr) (Expr, error) { return b.bindExpr(ast, s) }}
		for _, it := range sel.Items {
			if it.Star {
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
	}

	// Bound after projection resolution, like the hidden-sort-column path:
	// one Window node per distinct spec is stacked over the plan and the
	// placeholders become ColRefs into the appended window columns.
	if b.win != nil && len(b.win.groups) > 0 {
		var offsets []int
		plan, offsets = attachWindows(plan, b.win.groups)
		for i := range projExprs {
			projExprs[i] = resolveWindowRefs(projExprs[i], offsets, b.win.groups)
		}
	}
	// Window functions are not allowed past this point (DISTINCT/ORDER BY).
	b.win = nil

	out := make(Schema, len(projExprs))
	for i := range projExprs {
		out[i] = ColInfo{Name: projNames[i], Typ: projExprs[i].Type()}
	}
	proj := &Project{Input: plan, Exprs: projExprs, Out: out}
	nVisible := len(projExprs)
	var result Node = proj

	if sel.Distinct {
		result = &Distinct{Input: result}
	}

	if len(sel.OrderBy) > 0 {
		keys, err := b.bindOrderBy(sel, proj, projExprs, projNames, s, hasAgg, plan)
		if err != nil {
			return nil, err
		}
		result = &Sort{Input: result, Keys: keys}
		if len(proj.Exprs) > nVisible {
			// Strip hidden sort columns appended by bindOrderBy.
			strip := make([]Expr, nVisible)
			sch := make(Schema, nVisible)
			for i := 0; i < nVisible; i++ {
				strip[i] = &ColRef{Slot: i, Typ: proj.Out[i].Typ, Name: proj.Out[i].Name}
				sch[i] = proj.Out[i]
			}
			result = &Project{Input: result, Exprs: strip, Out: sch}
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
	e, err := b.bindExpr(c, s)
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
			on, err := b.bindExpr(x.On, joined)
			if err != nil {
				return nil, nil, err
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

func (b *binder) bindAggregate(sel *sqlparse.SelectStmt, plan Node, s *scope) (Node, []Expr, []string, error) {
	// 1. Bind GROUP BY expressions (ordinals, aliases, plain expressions).
	var groupASTs []sqlparse.Expr
	var groupExprs []Expr
	var groupNames []string
	aliasToAST := map[string]sqlparse.Expr{}
	for _, it := range sel.Items {
		if it.Alias != "" && !it.Star {
			aliasToAST[it.Alias] = it.Expr
		}
	}
	for _, g := range sel.GroupBy {
		ast := g
		name := ""
		if num, ok := g.(*sqlparse.NumberLit); ok && !strings.Contains(num.Text, ".") {
			ord, err := strconv.Atoi(num.Text)
			if err != nil || ord < 1 || ord > len(sel.Items) || sel.Items[ord-1].Star {
				return nil, nil, nil, fmt.Errorf("plan: invalid GROUP BY ordinal %s", num.Text)
			}
			ast = sel.Items[ord-1].Expr
			name = itemName(sel.Items[ord-1])
		} else if id, ok := g.(*sqlparse.Ident); ok && id.Qualifier == "" {
			if a, found := aliasToAST[id.Name]; found {
				// Alias wins only when the name is not a real input column.
				if _, _, _, err := s.resolve("", id.Name); err != nil {
					ast = a
				}
			}
			name = id.Name
		}
		e, err := b.bindExpr(ast, s)
		if err != nil {
			return nil, nil, nil, err
		}
		if name == "" {
			name = ExprString(e)
		}
		groupASTs = append(groupASTs, ast)
		groupExprs = append(groupExprs, e)
		groupNames = append(groupNames, name)
	}

	agg := &Aggregate{Input: plan, GroupBy: groupExprs, Names: groupNames}

	// 2. Post-aggregation rebinding of select items. Window calls bind their
	// arguments and spec in the same post-agg context (a window may order by
	// an aggregate result), so they land above the Aggregate.
	pa := &postAggBinder{b: b, s: s, agg: agg, groupASTs: groupASTs, aliasToAST: aliasToAST}
	b.win = &windowCtx{bind: pa.rebind}
	var projExprs []Expr
	var projNames []string
	for _, it := range sel.Items {
		if it.Star {
			return nil, nil, nil, fmt.Errorf("plan: SELECT * cannot be combined with aggregation")
		}
		e, err := pa.rebind(it.Expr)
		if err != nil {
			return nil, nil, nil, err
		}
		projExprs = append(projExprs, e)
		projNames = append(projNames, itemName(it))
	}

	var result Node = agg
	if sel.Having != nil {
		// HAVING runs below the Window nodes: no window functions here.
		win := b.win
		b.win = nil
		h, err := pa.rebind(sel.Having)
		b.win = win
		if err != nil {
			return nil, nil, nil, err
		}
		result = &Filter{Input: agg, Pred: h}
	}
	// Projection slots reference the aggregate output schema, which the
	// HAVING filter preserves.
	return result, projExprs, projNames, nil
}

// postAggBinder rebinds expressions over the aggregate output schema:
// group expressions become ColRefs to group slots, aggregate calls become
// AggRefs.
type postAggBinder struct {
	b          *binder
	s          *scope
	agg        *Aggregate
	groupASTs  []sqlparse.Expr
	aliasToAST map[string]sqlparse.Expr
}

func (pa *postAggBinder) rebind(ast sqlparse.Expr) (Expr, error) {
	// Window calls first: they look like aggregate calls but bind above the
	// Aggregate, with their arguments rebound in this post-agg context.
	if fc, ok := ast.(*sqlparse.FuncCall); ok && fc.Over != nil {
		return pa.b.bindWindowCall(fc)
	}
	// Whole-subtree match against a GROUP BY expression? (Not for a scalar
	// subquery: matching binds the subtree, and binding one optimizes it.)
	if _, isSub := ast.(*sqlparse.SubqueryExpr); !isSub && !containsAgg(ast) {
		if slot, ok := pa.matchGroup(ast); ok {
			g := pa.agg.GroupBy[slot]
			return &ColRef{Slot: slot, Typ: g.Type(), Name: pa.agg.Names[slot]}, nil
		}
	}
	switch x := ast.(type) {
	case *sqlparse.FuncCall:
		if kind, ok := aggNames[x.Name]; ok {
			return pa.addAgg(kind, x)
		}
		// Scalar function over rebindable args.
		return pa.rebindScalar(ast)
	case *sqlparse.Ident:
		// Unmatched plain column: must be functionally dependent on a group
		// key; we require exact membership.
		return nil, fmt.Errorf("plan: column %q must appear in GROUP BY or an aggregate", x.Name)
	default:
		return pa.rebindScalar(ast)
	}
}

// rebindScalar rebuilds a scalar AST node with post-agg-rebound children by
// temporarily binding through a child-rewriting pass.
func (pa *postAggBinder) rebindScalar(ast sqlparse.Expr) (Expr, error) {
	switch x := ast.(type) {
	case *sqlparse.NumberLit, *sqlparse.StringLit, *sqlparse.DateLit, *sqlparse.NullLit, *sqlparse.BoolLit, *sqlparse.IntervalLit, *sqlparse.ParamRef:
		return pa.b.bindExpr(ast, pa.s)
	case *sqlparse.BinaryExpr:
		l, err := pa.rebind(x.L)
		if err != nil {
			return nil, err
		}
		r, err := pa.rebind(x.R)
		if err != nil {
			return nil, err
		}
		return makeBinOp(x.Op, l, r)
	case *sqlparse.UnaryExpr:
		e, err := pa.rebind(x.E)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return &NotExpr{E: e}, nil
		}
		return &FuncExpr{Kind: FuncNeg, Args: []Expr{e}, Typ: e.Type()}, nil
	case *sqlparse.CaseExpr:
		return pa.rebindCase(x)
	case *sqlparse.CastExpr:
		e, err := pa.rebind(x.E)
		if err != nil {
			return nil, err
		}
		to, err := typeFromAST(x.TypeName, x.Prec, x.Scale, x.Width)
		if err != nil {
			return nil, err
		}
		return &CastExpr{E: e, To: to}, nil
	case *sqlparse.ExtractExpr:
		e, err := pa.rebind(x.E)
		if err != nil {
			return nil, err
		}
		return extractExpr(x.Field, e), nil
	case *sqlparse.IsNullExpr:
		e, err := pa.rebind(x.E)
		if err != nil {
			return nil, err
		}
		return &IsNullExpr{E: e, Not: x.Not}, nil
	case *sqlparse.BetweenExpr:
		e, err := pa.rebind(x.E)
		if err != nil {
			return nil, err
		}
		lo, err := pa.rebind(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := pa.rebind(x.Hi)
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: e, Lo: lo, Hi: hi, Not: x.Not}, nil
	case *sqlparse.LikeExpr:
		e, err := pa.rebind(x.E)
		if err != nil {
			return nil, err
		}
		pat, err := pa.b.bindExpr(x.Pattern, pa.s)
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
			return nil, fmt.Errorf("plan: IN (subquery) not supported in aggregate context")
		}
		e, err := pa.rebind(x.E)
		if err != nil {
			return nil, err
		}
		var vals []mtypes.Value
		for _, item := range x.List {
			ie, err := pa.b.bindExpr(item, pa.s)
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
	case *sqlparse.SubqueryExpr:
		// HAVING ... > (SELECT ...): an uncorrelated scalar subquery binds to
		// a subplan constant evaluated once per query (Q11's threshold).
		return pa.b.bindExpr(ast, pa.s)
	case *sqlparse.FuncCall:
		return nil, fmt.Errorf("plan: unsupported function %q in aggregate context", x.Name)
	}
	return nil, fmt.Errorf("plan: unsupported expression %T in aggregate context", ast)
}

func (pa *postAggBinder) rebindCase(x *sqlparse.CaseExpr) (Expr, error) {
	ce := &CaseExpr{}
	var operand Expr
	var err error
	if x.Operand != nil {
		operand, err = pa.rebind(x.Operand)
		if err != nil {
			return nil, err
		}
	}
	for _, w := range x.Whens {
		var cond Expr
		if operand != nil {
			r, err := pa.rebind(w.Cond)
			if err != nil {
				return nil, err
			}
			cond, err = makeBinOp("=", operand, r)
			if err != nil {
				return nil, err
			}
		} else {
			cond, err = pa.rebind(w.Cond)
			if err != nil {
				return nil, err
			}
		}
		res, err := pa.rebind(w.Result)
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Result: res})
	}
	if x.Else != nil {
		ce.Else, err = pa.rebind(x.Else)
		if err != nil {
			return nil, err
		}
	}
	ce.Typ = caseResultType(ce)
	return ce, nil
}

func (pa *postAggBinder) matchGroup(ast sqlparse.Expr) (int, bool) {
	// Resolve aliases first.
	if id, ok := ast.(*sqlparse.Ident); ok && id.Qualifier == "" {
		if a, found := pa.aliasToAST[id.Name]; found {
			if _, _, _, err := pa.s.resolve("", id.Name); err != nil {
				ast = a
			}
		}
	}
	bound, err := pa.b.bindExpr(ast, pa.s)
	if err != nil {
		return 0, false
	}
	for i, g := range pa.agg.GroupBy {
		if reflect.DeepEqual(bound, g) {
			return i, true
		}
	}
	return 0, false
}

func (pa *postAggBinder) addAgg(kind vec.AggKind, x *sqlparse.FuncCall) (Expr, error) {
	call := AggCall{Kind: kind, Distinct: x.Distinct, Name: x.Name}
	if x.Star {
		if kind != vec.AggCount {
			return nil, fmt.Errorf("plan: %s(*) is not valid", x.Name)
		}
		call.Kind = vec.AggCountStar
	} else {
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("plan: %s takes exactly one argument", x.Name)
		}
		// Aggregate arguments evaluate below the Window nodes: a window call
		// inside one must error, not leak an unresolved placeholder.
		win := pa.b.win
		pa.b.win = nil
		arg, err := pa.b.bindExpr(x.Args[0], pa.s)
		pa.b.win = win
		if err != nil {
			return nil, err
		}
		call.Arg = arg
	}
	// Reuse identical aggregate calls (shared computation).
	for i, a := range pa.agg.Aggs {
		if a.Kind == call.Kind && a.Distinct == call.Distinct && reflect.DeepEqual(a.Arg, call.Arg) {
			slot := len(pa.agg.GroupBy) + i
			return &AggRef{Slot: slot, Typ: aggType(a)}, nil
		}
	}
	pa.agg.Aggs = append(pa.agg.Aggs, call)
	slot := len(pa.agg.GroupBy) + len(pa.agg.Aggs) - 1
	return &AggRef{Slot: slot, Typ: aggType(call)}, nil
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

func (b *binder) bindOrderBy(sel *sqlparse.SelectStmt, proj *Project, projExprs []Expr, projNames []string, s *scope, hasAgg bool, aggInput Node) ([]SortSpec, error) {
	var keys []SortSpec
	for _, oi := range sel.OrderBy {
		slot := -1
		// (a) ordinal
		if num, ok := oi.Expr.(*sqlparse.NumberLit); ok && !strings.Contains(num.Text, ".") {
			ord, err := strconv.Atoi(num.Text)
			if err != nil || ord < 1 || ord > len(projExprs) {
				return nil, fmt.Errorf("plan: invalid ORDER BY ordinal %s", num.Text)
			}
			slot = ord - 1
		}
		// (b) alias / output name
		if slot < 0 {
			if id, ok := oi.Expr.(*sqlparse.Ident); ok && id.Qualifier == "" {
				for i, n := range projNames {
					if n == id.Name {
						slot = i
						break
					}
				}
			}
		}
		// (c) structural match with a projected expression
		if slot < 0 && !hasAgg {
			if bound, err := b.bindExpr(oi.Expr, s); err == nil {
				for i, pe := range projExprs {
					if reflect.DeepEqual(bound, pe) {
						slot = i
						break
					}
				}
				if slot < 0 {
					// (d) hidden sort column appended to the projection
					proj.Exprs = append(proj.Exprs, bound)
					proj.Out = append(proj.Out, ColInfo{Name: "$sort", Typ: bound.Type()})
					slot = len(proj.Exprs) - 1
				}
			}
		}
		if slot < 0 {
			return nil, fmt.Errorf("plan: cannot resolve ORDER BY expression")
		}
		keys = append(keys, SortSpec{
			E:    &ColRef{Slot: slot, Typ: proj.Out[slot].Typ, Name: proj.Out[slot].Name},
			Desc: oi.Desc,
		})
	}
	return keys, nil
}
