// Package query models n-ary Ranked Temporal Join queries (§2): weakly
// connected oriented simple graphs whose vertices map to interval
// collections and whose edges carry scored temporal predicates, plus the
// monotone aggregation function combining per-edge scores.
package query

import (
	"fmt"

	"tkij/internal/interval"
	"tkij/internal/scoring"
)

// Edge is one labeled query edge (i, j): the scored predicate
// s-p_(i,j)(x_i, x_j) between the collections of vertices From and To.
type Edge struct {
	From, To int
	Pred     *scoring.Predicate
}

// Query is an n-ary RTJ query. Vertices are identified by index
// 0..NumVertices-1; vertex i ranges over the i-th collection handed to
// the engine. The zero Query is invalid; use New.
type Query struct {
	// Name labels the query in experiment output (e.g. "Qb,b").
	Name string
	// NumVertices is n, the arity of result tuples.
	NumVertices int
	// Edges carry the scored predicates. The graph must be weakly
	// connected, without self-loops, and with at most one edge per
	// unordered vertex pair (§2: simple oriented graph).
	Edges []Edge
	// Agg combines per-edge partial scores into the tuple score. The
	// paper's evaluation uses the normalized sum (scoring.Avg).
	Agg scoring.Aggregator
}

// New builds and validates a query.
func New(name string, numVertices int, edges []Edge, agg scoring.Aggregator) (*Query, error) {
	q := &Query{Name: name, NumVertices: numVertices, Edges: edges, Agg: agg}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustNew is New for statically known-correct queries; it panics on
// validation failure.
func MustNew(name string, numVertices int, edges []Edge, agg scoring.Aggregator) *Query {
	q, err := New(name, numVertices, edges, agg)
	if err != nil {
		panic(err)
	}
	return q
}

// Validate checks the structural constraints of §2: at least one vertex,
// vertex indexes in range, no self-loops, (i,j) and (j,i) never both
// present, no duplicate edges, weak connectivity, valid predicates, and
// a non-nil aggregator — a weighted sum with exactly one weight per
// edge, since its Aggregate panics on any other score count.
func (q *Query) Validate() error {
	if q.NumVertices < 1 {
		return fmt.Errorf("query %q: need at least one vertex, got %d", q.Name, q.NumVertices)
	}
	// A weakly connected graph on n vertices has at least n-1 edges. The
	// check also bounds n before the union-find below allocates n words,
	// so a hostile vertex count costs nothing.
	if q.NumVertices > len(q.Edges)+1 {
		return fmt.Errorf("query %q: %d vertices but %d edges: graph is not weakly connected", q.Name, q.NumVertices, len(q.Edges))
	}
	if q.Agg == nil {
		return fmt.Errorf("query %q: nil aggregator", q.Name)
	}
	if ws, ok := q.Agg.(*scoring.WeightedSum); ok && len(ws.Weights) != len(q.Edges) {
		return fmt.Errorf("query %q: weighted sum has %d weights for %d edges", q.Name, len(ws.Weights), len(q.Edges))
	}
	seen := make(map[[2]int]bool, len(q.Edges))
	uf := newUnionFind(q.NumVertices)
	for i, e := range q.Edges {
		if e.From < 0 || e.From >= q.NumVertices || e.To < 0 || e.To >= q.NumVertices {
			return fmt.Errorf("query %q: edge %d (%d,%d) out of range [0,%d)", q.Name, i, e.From, e.To, q.NumVertices)
		}
		if e.From == e.To {
			return fmt.Errorf("query %q: edge %d is a self-loop on vertex %d", q.Name, i, e.From)
		}
		key := [2]int{e.From, e.To}
		rev := [2]int{e.To, e.From}
		if seen[key] {
			return fmt.Errorf("query %q: duplicate edge (%d,%d)", q.Name, e.From, e.To)
		}
		if seen[rev] {
			return fmt.Errorf("query %q: both (%d,%d) and (%d,%d) present", q.Name, e.To, e.From, e.From, e.To)
		}
		seen[key] = true
		if e.Pred == nil {
			return fmt.Errorf("query %q: edge %d has nil predicate", q.Name, i)
		}
		if err := e.Pred.Validate(); err != nil {
			return fmt.Errorf("query %q: edge %d: %w", q.Name, i, err)
		}
		uf.union(e.From, e.To)
	}
	if !uf.connected() {
		return fmt.Errorf("query %q: graph is not weakly connected", q.Name)
	}
	return nil
}

// Score computes the aggregate score of a candidate tuple. The tuple
// must have exactly NumVertices intervals, tuple[i] drawn from the
// collection of vertex i.
func (q *Query) Score(tuple []interval.Interval) float64 {
	partials := make([]float64, len(q.Edges))
	for i, e := range q.Edges {
		partials[i] = e.Pred.Score(tuple[e.From], tuple[e.To])
	}
	return q.Agg.Aggregate(partials)
}

// BoolSatisfied reports whether the tuple satisfies every edge's Boolean
// predicate interpretation. Used by the Boolean baselines.
func (q *Query) BoolSatisfied(tuple []interval.Interval) bool {
	for _, e := range q.Edges {
		if !e.Pred.Bool(tuple[e.From], tuple[e.To]) {
			return false
		}
	}
	return true
}

// EdgesOf returns the indexes of edges incident to vertex v.
func (q *Query) EdgesOf(v int) []int {
	var out []int
	for i, e := range q.Edges {
		if e.From == v || e.To == v {
			out = append(out, i)
		}
	}
	return out
}

// String renders the query.
func (q *Query) String() string {
	return fmt.Sprintf("%s(n=%d, |E|=%d, S=%s)", q.Name, q.NumVertices, len(q.Edges), q.Agg.Name())
}

// unionFind is a minimal disjoint-set for connectivity validation.
type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

func (u *unionFind) connected() bool {
	if len(u.parent) == 0 {
		return true
	}
	r := u.find(0)
	for i := range u.parent {
		if u.find(i) != r {
			return false
		}
	}
	return true
}
