package plan

import (
	"fmt"
	"strings"

	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

// ColInfo describes one output column of a plan node.
type ColInfo struct {
	Qual string // table alias qualifier ("" for computed columns)
	Name string
	Typ  mtypes.Type
}

// Schema is an ordered list of output columns.
type Schema []ColInfo

// Node is a logical plan operator.
type Node interface {
	Schema() Schema
	Children() []Node
}

// Scan reads a stored table. Cols holds the pruned physical column indexes:
// output slot i maps to table column Cols[i]. Filters are conjuncts pushed
// into the scan, expressed over the scan's OUTPUT slots.
type Scan struct {
	Table   string
	Cols    []int
	Out     Schema
	Filters []Expr
	// Est is the optimizer's output-cardinality estimate (0 = unannotated);
	// the executor traces it against the actual row count.
	Est int64
}

// Filter keeps rows satisfying Pred.
type Filter struct {
	Input Node
	Pred  Expr
	Est   int64 // optimizer cardinality estimate (0 = unannotated)
}

// Project computes output columns from input rows.
type Project struct {
	Input Node
	Exprs []Expr
	Out   Schema
}

// JoinKind enumerates join flavors.
type JoinKind uint8

// Join flavors (Semi/Anti come from EXISTS / NOT EXISTS / IN decorrelation).
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinSemi
	JoinAnti
)

func (k JoinKind) String() string {
	return [...]string{"INNER", "LEFT", "SEMI", "ANTI"}[k]
}

// Join combines two inputs on equi-key pairs plus an optional residual
// predicate over the concatenated schema (left slots then right slots).
// For Semi/Anti joins the output schema is the left schema only.
type Join struct {
	Kind     JoinKind
	Left     Node
	Right    Node
	EquiL    []Expr // over left schema
	EquiR    []Expr // over right schema, positionally matching EquiL
	Residual Expr   // over concatenated schema; nil if none
	Est      int64  // optimizer cardinality estimate (0 = unannotated)
}

// AggCall is one aggregate computation.
type AggCall struct {
	Kind     vec.AggKind
	Arg      Expr // nil for COUNT(*)
	Distinct bool
	Name     string
}

// Aggregate groups by the GroupBy expressions and computes Aggs. Output
// schema: group columns first, then aggregate results.
type Aggregate struct {
	Input   Node
	GroupBy []Expr
	Aggs    []AggCall
	Names   []string // group column names
	Est     int64    // optimizer cardinality estimate (0 = unannotated)
}

// SortSpec is one sort key over the input schema.
type SortSpec struct {
	E    Expr
	Desc bool
}

// Sort orders rows.
type Sort struct {
	Input Node
	Keys  []SortSpec
}

// Limit returns up to N rows after skipping Offset.
type Limit struct {
	Input     Node
	N, Offset int64
}

// NoLimit is the Limit.N value meaning "no LIMIT clause" (OFFSET only).
// The TopN fusion rule only fires below it.
const NoLimit = int64(1)<<62 - 1

// TopN is the fusion of Limit(Sort(…)): the first N rows (after skipping
// Offset) of the input ordered by Keys, exactly as the stable Sort would
// produce them. The executor runs it as a bounded per-chunk heap plus a run
// merge instead of a full sort, so ORDER BY … LIMIT k never pays for rows it
// discards. Produced only by the optimizer (Optimize/fuseTopN), never bound
// directly.
type TopN struct {
	Input     Node
	Keys      []SortSpec
	N, Offset int64
}

// Distinct removes duplicate rows.
type Distinct struct{ Input Node }

// WinFunc enumerates the window functions.
type WinFunc uint8

// Window functions: the rank family, the offset pair, and the windowed
// aggregates.
const (
	WinRowNumber WinFunc = iota
	WinRank
	WinDenseRank
	WinLag
	WinLead
	WinSum
	WinCount
	WinCountStar
	WinMin
	WinMax
	WinAvg
)

func (f WinFunc) String() string {
	return [...]string{"ROW_NUMBER", "RANK", "DENSE_RANK", "LAG", "LEAD",
		"SUM", "COUNT", "COUNT(*)", "MIN", "MAX", "AVG"}[f]
}

// FrameBoundKind classifies one end of an explicit ROWS frame.
type FrameBoundKind uint8

// Frame bound kinds, in frame order (start bounds never sort after end
// bounds).
const (
	FrameUnboundedPreceding FrameBoundKind = iota
	FramePreceding
	FrameCurrentRow
	FrameFollowing
	FrameUnboundedFollowing
)

// FrameBound is one end of a ROWS frame (N used by Preceding/Following).
type FrameBound struct {
	Kind FrameBoundKind
	N    int64
}

// Frame is an explicit ROWS frame on a windowed aggregate. A nil *Frame on a
// WindowCall means the SQL default: the whole partition when the window has
// no ORDER BY, otherwise the peer-inclusive running frame (RANGE UNBOUNDED
// PRECEDING .. CURRENT ROW — all rows up to and including the current row's
// order-key peers).
type Frame struct {
	Lo, Hi FrameBound
}

// WindowCall is one window-function computation inside a Window node. Arg,
// Default and the enclosing node's PartitionBy/OrderBy are expressions over
// the node's input schema.
type WindowCall struct {
	Func    WinFunc
	Arg     Expr   // nil for ROW_NUMBER/RANK/DENSE_RANK/COUNT(*)
	Offset  int64  // LAG/LEAD distance (>= 0)
	Default Expr   // LAG/LEAD out-of-partition value; nil = NULL
	Frame   *Frame // explicit ROWS frame (windowed aggregates only)
	Name    string
}

// Window computes window functions over one shared specification: the input
// is ordered once by (PartitionBy, OrderBy) — the single physical sort every
// same-spec call shares — partition boundaries are discovered on that order,
// and each call's result column is appended to the input schema, positionally
// aligned with the *input* row order (Window preserves row order and count).
// Distinct specifications in one SELECT become stacked Window nodes.
type Window struct {
	Input       Node
	PartitionBy []Expr
	OrderBy     []SortSpec
	Calls       []WindowCall
	// SortFree is set by the optimizer when the input is already ordered
	// compatibly (partition keys as the ordering prefix, then exactly this
	// window's order keys), so the operator skips its physical sort: the
	// identity permutation is what the stable sort would return.
	SortFree bool
}

// WindowResultType computes a window call's output type.
func WindowResultType(c WindowCall) mtypes.Type {
	switch c.Func {
	case WinRowNumber, WinRank, WinDenseRank, WinCount, WinCountStar:
		return mtypes.BigInt
	case WinLag, WinLead:
		return c.Arg.Type()
	case WinSum:
		return vec.AggResultType(vec.AggSum, c.Arg.Type())
	case WinAvg:
		return mtypes.Double
	default: // min/max keep the input type
		return c.Arg.Type()
	}
}

// Schema implementations.
func (n *Scan) Schema() Schema { return n.Out }

// Children returns no inputs.
func (n *Scan) Children() []Node { return nil }

// Schema returns the input schema.
func (n *Filter) Schema() Schema { return n.Input.Schema() }

// Children returns the single input.
func (n *Filter) Children() []Node { return []Node{n.Input} }

// Schema returns the projected schema.
func (n *Project) Schema() Schema { return n.Out }

// Children returns the single input.
func (n *Project) Children() []Node {
	if n.Input == nil { // SELECT without FROM
		return nil
	}
	return []Node{n.Input}
}

// Schema returns left ++ right (inner/left) or left (semi/anti).
func (n *Join) Schema() Schema {
	if n.Kind == JoinSemi || n.Kind == JoinAnti {
		return n.Left.Schema()
	}
	l := n.Left.Schema()
	r := n.Right.Schema()
	out := make(Schema, 0, len(l)+len(r))
	out = append(out, l...)
	if n.Kind == JoinLeft {
		for _, c := range r {
			out = append(out, c)
		}
	} else {
		out = append(out, r...)
	}
	return out
}

// Children returns both inputs.
func (n *Join) Children() []Node { return []Node{n.Left, n.Right} }

// Schema returns group columns followed by aggregate outputs.
func (n *Aggregate) Schema() Schema {
	out := make(Schema, 0, len(n.GroupBy)+len(n.Aggs))
	for i, g := range n.GroupBy {
		name := ""
		if i < len(n.Names) {
			name = n.Names[i]
		}
		out = append(out, ColInfo{Name: name, Typ: g.Type()})
	}
	for _, a := range n.Aggs {
		t := mtypes.BigInt
		if a.Arg != nil {
			t = a.Arg.Type()
		}
		out = append(out, ColInfo{Name: a.Name, Typ: vec.AggResultType(a.Kind, t)})
	}
	return out
}

// Children returns the single input.
func (n *Aggregate) Children() []Node { return []Node{n.Input} }

// Schema returns the input schema.
func (n *Sort) Schema() Schema { return n.Input.Schema() }

// Children returns the single input.
func (n *Sort) Children() []Node { return []Node{n.Input} }

// Schema returns the input schema.
func (n *Limit) Schema() Schema { return n.Input.Schema() }

// Children returns the single input.
func (n *Limit) Children() []Node { return []Node{n.Input} }

// Schema returns the input schema.
func (n *TopN) Schema() Schema { return n.Input.Schema() }

// Children returns the single input.
func (n *TopN) Children() []Node { return []Node{n.Input} }

// Schema returns the input schema.
func (n *Distinct) Schema() Schema { return n.Input.Schema() }

// Children returns the single input.
func (n *Distinct) Children() []Node { return []Node{n.Input} }

// Schema returns the input schema followed by one column per window call.
func (n *Window) Schema() Schema {
	in := n.Input.Schema()
	out := make(Schema, 0, len(in)+len(n.Calls))
	out = append(out, in...)
	for _, c := range n.Calls {
		out = append(out, ColInfo{Name: c.Name, Typ: WindowResultType(c)})
	}
	return out
}

// Children returns the single input.
func (n *Window) Children() []Node { return []Node{n.Input} }

// JoinTreeString renders the join nesting of a plan as a parenthesized
// expression over base-table names — e.g. "((customer * orders) * lineitem)"
// — collapsing row-shape nodes (filters, projections, sorts…). Inner joins
// print as "*"; other kinds print their name ("(a SEMI b)"). Plan-shape
// golden tests pin the optimizer's chosen join order against this rendering.
func JoinTreeString(n Node) string {
	switch x := n.(type) {
	case *Scan:
		return x.Table
	case *Join:
		op := " * "
		if x.Kind != JoinInner {
			op = " " + x.Kind.String() + " "
		}
		return "(" + JoinTreeString(x.Left) + op + JoinTreeString(x.Right) + ")"
	}
	if ch := n.Children(); len(ch) == 1 {
		return JoinTreeString(ch[0])
	}
	return "?"
}

// HasJoin reports whether the plan contains any Join node (used to decide
// whether a join-order trace line is worth emitting).
func HasJoin(n Node) bool {
	if _, ok := n.(*Join); ok {
		return true
	}
	for _, c := range n.Children() {
		if HasJoin(c) {
			return true
		}
	}
	return false
}

// PlanString renders an indented plan tree (for EXPLAIN and plan-shape tests).
func PlanString(n Node) string {
	var sb strings.Builder
	planString(&sb, n, 0)
	return sb.String()
}

func planString(sb *strings.Builder, n Node, depth int) {
	indent := strings.Repeat("  ", depth)
	switch x := n.(type) {
	case *Scan:
		fmt.Fprintf(sb, "%sSCAN %s cols=%v", indent, x.Table, x.Cols)
		for _, f := range x.Filters {
			fmt.Fprintf(sb, " filter=%s", ExprString(f))
		}
		sb.WriteByte('\n')
	case *Filter:
		fmt.Fprintf(sb, "%sFILTER %s\n", indent, ExprString(x.Pred))
		planString(sb, x.Input, depth+1)
	case *Project:
		names := make([]string, len(x.Out))
		for i, c := range x.Out {
			names[i] = c.Name
		}
		fmt.Fprintf(sb, "%sPROJECT %s\n", indent, strings.Join(names, ", "))
		planString(sb, x.Input, depth+1)
	case *Join:
		conds := make([]string, len(x.EquiL))
		for i := range x.EquiL {
			conds[i] = fmt.Sprintf("%s=%s", ExprString(x.EquiL[i]), ExprString(x.EquiR[i]))
		}
		fmt.Fprintf(sb, "%s%s JOIN on %s", indent, x.Kind, strings.Join(conds, " AND "))
		if x.Residual != nil {
			fmt.Fprintf(sb, " residual=%s", ExprString(x.Residual))
		}
		sb.WriteByte('\n')
		planString(sb, x.Left, depth+1)
		planString(sb, x.Right, depth+1)
	case *Aggregate:
		fmt.Fprintf(sb, "%sAGGREGATE groups=%d aggs=%d\n", indent, len(x.GroupBy), len(x.Aggs))
		planString(sb, x.Input, depth+1)
	case *Sort:
		fmt.Fprintf(sb, "%sSORT keys=%d\n", indent, len(x.Keys))
		planString(sb, x.Input, depth+1)
	case *Limit:
		fmt.Fprintf(sb, "%sLIMIT %d OFFSET %d\n", indent, x.N, x.Offset)
		planString(sb, x.Input, depth+1)
	case *TopN:
		fmt.Fprintf(sb, "%sTOPN %d OFFSET %d keys=%d\n", indent, x.N, x.Offset, len(x.Keys))
		planString(sb, x.Input, depth+1)
	case *Distinct:
		fmt.Fprintf(sb, "%sDISTINCT\n", indent)
		planString(sb, x.Input, depth+1)
	case *Window:
		calls := make([]string, len(x.Calls))
		for i, c := range x.Calls {
			calls[i] = c.Func.String()
		}
		fmt.Fprintf(sb, "%sWINDOW parts=%d orders=%d calls=%s", indent,
			len(x.PartitionBy), len(x.OrderBy), strings.Join(calls, ","))
		if x.SortFree {
			sb.WriteString(" sortfree")
		}
		sb.WriteByte('\n')
		planString(sb, x.Input, depth+1)
	default:
		fmt.Fprintf(sb, "%s%T\n", indent, n)
	}
}
