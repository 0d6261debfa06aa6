package plan

import (
	"math"
	"math/bits"
)

// Join-order enumeration. The region collector (opt.go) flattens a maximal
// inner-join/filter region into leaves + predicates; this file picks the
// left-deep join sequence. Up to dpMaxLeaves relations the choice is exact
// dynamic programming over connected subsets (cost = sum of intermediate
// cardinalities, the classic C_out model); above that, a cost-driven greedy
// using the same cardinality model. Cross products are avoided unless the
// join graph is disconnected.
//
// The executor picks build/probe sides at runtime (the smaller input builds,
// which also sets the probe-chunk minimum in exec.buildJoinTable), so
// enumeration only has to get the sequence right — the orientation of each
// hash table follows.

// dpMaxLeaves caps exact enumeration: 2^8 subsets × 8 candidates is trivial;
// beyond that the greedy path takes over.
const dpMaxLeaves = 8

// joinGraph is the statistics view of one join region: per-leaf cardinality
// estimates plus pairwise equi-edge selectivities.
type joinGraph struct {
	cards []float64
	// pairSel[a*n+b] = combined selectivity of the equi edges between leaves
	// a and b (1 when none; symmetric).
	pairSel []float64
	hasEdge []bool
}

func newJoinGraph(cards []float64) *joinGraph {
	n := len(cards)
	g := &joinGraph{cards: cards, pairSel: make([]float64, n*n), hasEdge: make([]bool, n*n)}
	for i := range g.pairSel {
		g.pairSel[i] = 1
	}
	return g
}

// addEdge records one equi predicate between leaves a and b. Multiple
// predicates on the same pair (composite keys) multiply with damping — the
// second key column rarely cuts as much as the first.
func (g *joinGraph) addEdge(a, b int, sel float64) {
	n := len(g.cards)
	for _, idx := range []int{a*n + b, b*n + a} {
		if g.hasEdge[idx] {
			sel2 := math.Sqrt(sel)
			g.pairSel[idx] *= sel2
		} else {
			g.pairSel[idx] = sel
			g.hasEdge[idx] = true
		}
	}
}

func (g *joinGraph) edge(a, b int) bool { return g.hasEdge[a*len(g.cards)+b] }

// cardOfSet estimates the cardinality of joining the leaves in set (a
// bitmask): the product of leaf cardinalities times every edge selectivity
// inside the set. Depends only on the set, not the order — which is what
// makes subset DP sound.
func (g *joinGraph) cardOfSet(set uint) float64 {
	n := len(g.cards)
	card := 1.0
	for i := 0; i < n; i++ {
		if set&(1<<i) == 0 {
			continue
		}
		card *= g.cards[i]
		for j := i + 1; j < n; j++ {
			if set&(1<<j) != 0 && g.edge(i, j) {
				card *= g.pairSel[i*n+j]
			}
		}
	}
	return card
}

// extendCard is the incremental form: card(set ∪ {j}) given card(set).
func (g *joinGraph) extendCard(setCard float64, set uint, j int) float64 {
	n := len(g.cards)
	card := setCard * g.cards[j]
	for i := 0; i < n; i++ {
		if set&(1<<i) != 0 && g.edge(i, j) {
			card *= g.pairSel[i*n+j]
		}
	}
	return card
}

// connectedTo reports whether leaf j has an equi edge into set.
func (g *joinGraph) connectedTo(set uint, j int) bool {
	for i := 0; i < len(g.cards); i++ {
		if set&(1<<i) != 0 && g.edge(i, j) {
			return true
		}
	}
	return false
}

// chooseJoinOrder returns the left-deep join permutation for the graph:
// exact DP for small regions, greedy above. Both paths share cardOfSet, so
// on graphs where greedy happens to be optimal they return the same order.
func chooseJoinOrder(g *joinGraph) []int {
	n := len(g.cards)
	if n <= 1 {
		return identityPerm(n)
	}
	if n <= dpMaxLeaves {
		return dpJoinOrder(g)
	}
	return greedyJoinOrder(g)
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// spans reports whether the equi edges connect all leaves.
func (g *joinGraph) spans() bool {
	n := len(g.cards)
	reached := uint(1)
	for grew := true; grew; {
		grew = false
		for j := 0; j < n; j++ {
			if reached&(1<<j) == 0 && g.connectedTo(reached, j) {
				reached |= 1 << j
				grew = true
			}
		}
	}
	return reached == uint(1)<<n-1
}

// dpJoinOrder runs subset DP for left-deep trees: dp[S] = cheapest cost of
// joining exactly the leaves in S, where cost accumulates the cardinality of
// every intermediate (and final) result. Extensions follow join edges. Only
// when the edges do not span the region is a disconnected extension admitted,
// for a subset no connected one reaches — so cross products appear exactly
// when the graph forces them, never because two tiny unrelated leaves look
// cheap to pair up.
func dpJoinOrder(g *joinGraph) []int {
	n := len(g.cards)
	full := uint(1)<<n - 1
	passes := 1
	if !g.spans() {
		passes = 2
	}
	const inf = math.MaxFloat64
	cost := make([]float64, full+1)
	last := make([]int8, full+1)
	for s := range cost {
		cost[s] = inf
		last[s] = -1
	}
	for i := 0; i < n; i++ {
		cost[1<<i] = 0 // base relations are free; scans are paid regardless
	}
	for set := uint(1); set <= full; set++ {
		if bits.OnesCount(set) < 2 {
			continue
		}
		setCard := g.cardOfSet(set)
		// Connected extensions first; fall back to any extension when the
		// subgraph is disconnected.
		for pass := 0; pass < passes; pass++ {
			found := false
			for j := 0; j < n; j++ {
				if set&(1<<j) == 0 {
					continue
				}
				rest := set &^ (1 << j)
				if cost[rest] == inf {
					continue
				}
				if pass == 0 && !g.connectedTo(rest, j) {
					continue
				}
				found = true
				if c := cost[rest] + setCard; c < cost[set] {
					cost[set] = c
					last[set] = int8(j)
				}
			}
			if found {
				break
			}
		}
	}
	// Reconstruct the permutation back-to-front.
	perm := make([]int, n)
	set := full
	for k := n - 1; k >= 1; k-- {
		j := int(last[set])
		if j < 0 {
			// Shouldn't happen; fall back to any remaining leaf.
			for i := 0; i < n; i++ {
				if set&(1<<i) != 0 {
					j = i
					break
				}
			}
		}
		perm[k] = j
		set &^= 1 << uint(j)
	}
	for i := 0; i < n; i++ {
		if set&(1<<i) != 0 {
			perm[0] = i
			break
		}
	}
	return perm
}

// greedyJoinOrder picks the smallest leaf, then repeatedly appends the
// connectable leaf that minimizes the next intermediate cardinality (any
// leaf when none connects). Same cost model as the DP, linear in joins.
func greedyJoinOrder(g *joinGraph) []int {
	n := len(g.cards)
	perm := make([]int, 0, n)
	start := 0
	for i := 1; i < n; i++ {
		if g.cards[i] < g.cards[start] {
			start = i
		}
	}
	perm = append(perm, start)
	set := uint(1) << start
	setCard := g.cards[start]
	for len(perm) < n {
		best, bestCard := -1, 0.0
		bestConn := false
		for j := 0; j < n; j++ {
			if set&(1<<j) != 0 {
				continue
			}
			conn := g.connectedTo(set, j)
			if bestConn && !conn {
				continue
			}
			c := g.extendCard(setCard, set, j)
			if best < 0 || (conn && !bestConn) || c < bestCard {
				best, bestCard, bestConn = j, c, conn
			}
		}
		perm = append(perm, best)
		set |= 1 << best
		setCard = bestCard
	}
	return perm
}
