package plancache

import (
	"slices"
	"testing"

	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
)

func gran(t *testing.T, min, max int64, g int) stats.Granulation {
	t.Helper()
	gr, err := stats.NewGranulation(min, max, g)
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

func mustQuery(t *testing.T, name string, n int, edges []query.Edge, agg scoring.Aggregator) *query.Query {
	t.Helper()
	q, err := query.New(name, n, edges, agg)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestKeyNodeRelabeling: a query with relabeled vertices (and the
// collection mapping plus granulations permuted along) must produce the
// same canonical key.
func TestKeyNodeRelabeling(t *testing.T) {
	g1 := gran(t, 0, 100, 4)
	g2 := gran(t, 0, 200, 4)
	g3 := gran(t, 0, 300, 4)
	q1 := mustQuery(t, "chain", 3, []query.Edge{
		{From: 0, To: 1, Pred: scoring.Meets(scoring.P1)},
		{From: 1, To: 2, Pred: scoring.Before(scoring.P2)},
	}, scoring.Avg{})
	k1 := Key(q1, []int{0, 1, 2}, 10, []stats.Granulation{g1, g2, g3})

	// Relabel with pi = {0->2, 1->0, 2->1}: vertex v of q1 becomes
	// pi[v] in q2, and q2's vertex p reads what q1's pi^-1(p) read.
	q2 := mustQuery(t, "chain-relabeled", 3, []query.Edge{
		{From: 0, To: 1, Pred: scoring.Before(scoring.P2)}, // was (1,2)
		{From: 2, To: 0, Pred: scoring.Meets(scoring.P1)},  // was (0,1)
	}, scoring.Avg{})
	k2 := Key(q2, []int{1, 2, 0}, 10, []stats.Granulation{g2, g3, g1})
	if k1 != k2 {
		t.Fatalf("relabeled isomorphic shapes got different keys:\n%s\n%s", k1, k2)
	}
}

// TestKeyEdgeReordering: listing the same edges in a different order
// must not change the key; swapping which edge carries which predicate
// must.
func TestKeyEdgeReordering(t *testing.T) {
	g := gran(t, 0, 100, 4)
	grans := []stats.Granulation{g, g, g}
	cols := []int{0, 1, 2}
	e01 := query.Edge{From: 0, To: 1, Pred: scoring.Meets(scoring.P1)}
	e12 := query.Edge{From: 1, To: 2, Pred: scoring.Overlaps(scoring.P1)}

	q1 := mustQuery(t, "a", 3, []query.Edge{e01, e12}, scoring.Avg{})
	q2 := mustQuery(t, "b", 3, []query.Edge{e12, e01}, scoring.Avg{})
	if Key(q1, cols, 5, grans) != Key(q2, cols, 5, grans) {
		t.Fatal("edge listing order changed the key")
	}
	// The vertices correspond identically; the edges do not.
	_, v1, e1 := Canonicalize(q1, cols, 5, grans)
	_, v2, e2 := Canonicalize(q2, cols, 5, grans)
	if s := sigmaFor(v1, v2); s != nil {
		t.Fatalf("vertex correspondence %v between two listings of one query, want the identity", s)
	}
	if s := sigmaFor(e1, e2); !slices.Equal(s, []int{1, 0}) {
		t.Fatalf("edge correspondence %v between the two listings, want [1 0]", s)
	}

	q3 := mustQuery(t, "c", 3, []query.Edge{
		{From: 0, To: 1, Pred: scoring.Overlaps(scoring.P1)},
		{From: 1, To: 2, Pred: scoring.Meets(scoring.P1)},
	}, scoring.Avg{})
	if Key(q1, cols, 5, grans) == Key(q3, cols, 5, grans) {
		t.Fatal("swapping predicates between edges kept the key")
	}
}

// TestKeyNeverAliases: differing k, granulation signature, collection
// mapping, predicate parameters, edge direction (over distinct
// collections) or aggregator must produce distinct keys.
func TestKeyNeverAliases(t *testing.T) {
	g := gran(t, 0, 100, 4)
	grans := []stats.Granulation{g, g}
	cols := []int{0, 1}
	base := func() *query.Query {
		return mustQuery(t, "q", 2, []query.Edge{
			{From: 0, To: 1, Pred: scoring.Meets(scoring.P1)},
		}, scoring.Avg{})
	}
	ref := Key(base(), cols, 10, grans)

	if got := Key(base(), cols, 11, grans); got == ref {
		t.Fatal("different k aliased")
	}
	if got := Key(base(), cols, 10, []stats.Granulation{gran(t, 0, 100, 5), g}); got == ref {
		t.Fatal("different granule count aliased")
	}
	if got := Key(base(), cols, 10, []stats.Granulation{gran(t, 0, 101, 4), g}); got == ref {
		t.Fatal("different granulation range aliased")
	}
	if got := Key(base(), []int{0, 2}, 10, grans); got == ref {
		t.Fatal("different collection mapping aliased")
	}
	q := mustQuery(t, "q", 2, []query.Edge{
		{From: 0, To: 1, Pred: scoring.Meets(scoring.P2)},
	}, scoring.Avg{})
	if got := Key(q, cols, 10, grans); got == ref {
		t.Fatal("different predicate parameters aliased")
	}
	q = mustQuery(t, "q", 2, []query.Edge{
		{From: 1, To: 0, Pred: scoring.Meets(scoring.P1)},
	}, scoring.Avg{})
	if got := Key(q, cols, 10, grans); got == ref {
		t.Fatal("reversed edge over distinct collections aliased")
	}
	q = mustQuery(t, "q", 2, []query.Edge{
		{From: 0, To: 1, Pred: scoring.Meets(scoring.P1)},
	}, scoring.Min{})
	if got := Key(q, cols, 10, grans); got == ref {
		t.Fatal("different aggregator aliased")
	}
}

// TestKeyReversedEdgeSelfJoin: over one shared collection, reversing an
// edge is a vertex relabeling — the shapes are isomorphic and must
// share a key.
func TestKeyReversedEdgeSelfJoin(t *testing.T) {
	g := gran(t, 0, 100, 4)
	grans := []stats.Granulation{g, g}
	cols := []int{0, 0}
	q1 := mustQuery(t, "q1", 2, []query.Edge{
		{From: 0, To: 1, Pred: scoring.Meets(scoring.P1)},
	}, scoring.Avg{})
	q2 := mustQuery(t, "q2", 2, []query.Edge{
		{From: 1, To: 0, Pred: scoring.Meets(scoring.P1)},
	}, scoring.Avg{})
	if Key(q1, cols, 10, grans) != Key(q2, cols, 10, grans) {
		t.Fatal("self-join edge reversal (a pure relabeling) got different keys")
	}
}

// TestKeyWeightedSum: for the order-sensitive WeightedSum aggregator
// the weight travels with its edge — reordering edges with their
// weights keeps the key, moving a weight to a different edge changes
// it.
func TestKeyWeightedSum(t *testing.T) {
	g := gran(t, 0, 100, 4)
	grans := []stats.Granulation{g, g, g}
	cols := []int{0, 1, 2}
	e01 := query.Edge{From: 0, To: 1, Pred: scoring.Meets(scoring.P1)}
	e12 := query.Edge{From: 1, To: 2, Pred: scoring.Overlaps(scoring.P1)}
	ws := func(w ...float64) scoring.Aggregator {
		agg, err := scoring.NewWeightedSum(w)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}

	q1 := mustQuery(t, "a", 3, []query.Edge{e01, e12}, ws(1, 2))
	q2 := mustQuery(t, "b", 3, []query.Edge{e12, e01}, ws(2, 1))
	if Key(q1, cols, 5, grans) != Key(q2, cols, 5, grans) {
		t.Fatal("reordering edges with their weights changed the key")
	}
	q3 := mustQuery(t, "c", 3, []query.Edge{e01, e12}, ws(2, 1))
	if Key(q1, cols, 5, grans) == Key(q3, cols, 5, grans) {
		t.Fatal("moving a weight to a different edge kept the key")
	}
}
