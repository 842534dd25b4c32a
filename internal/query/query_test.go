package query

import (
	"math/rand"
	"strings"
	"testing"

	"tkij/internal/interval"
	"tkij/internal/scoring"
)

func iv(s, e int64) interval.Interval { return interval.Interval{Start: s, End: e} }

func TestValidateAcceptsChainAndCycle(t *testing.T) {
	env := Env{Params: scoring.P1, Avg: 10}
	for name, ctor := range Catalog {
		q := ctor(env)
		if err := q.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
	for n := 2; n <= 6; n++ {
		for _, q := range []*Query{QbStar(env, n), QoStar(env, n), QmStar(env, n)} {
			if err := q.Validate(); err != nil {
				t.Errorf("%s invalid: %v", q.Name, err)
			}
		}
	}
}

func TestValidateRejections(t *testing.T) {
	p := scoring.Meets(scoring.P1)
	agg := scoring.Avg{}
	ws, err := scoring.NewWeightedSum([]float64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		n       int
		edges   []Edge
		agg     scoring.Aggregator
		wantSub string
	}{
		{"no vertices", 0, nil, agg, "at least one vertex"},
		{"no edges", 2, nil, agg, "not weakly connected"},
		{"vertex count beyond its edges", 1<<35 + 3, []Edge{{0, 1, p}}, agg, "not weakly connected"},
		{"nil agg", 2, []Edge{{0, 1, p}}, nil, "nil aggregator"},
		{"out of range", 2, []Edge{{0, 5, p}}, agg, "out of range"},
		{"self loop", 2, []Edge{{0, 1, p}, {1, 1, p}}, agg, "self-loop"},
		{"duplicate", 2, []Edge{{0, 1, p}, {0, 1, p}}, agg, "duplicate"},
		{"both directions", 2, []Edge{{0, 1, p}, {1, 0, p}}, agg, "both"},
		{"nil predicate", 2, []Edge{{0, 1, nil}}, agg, "nil predicate"},
		{"disconnected", 4, []Edge{{0, 1, p}, {2, 3, p}}, agg, "not weakly connected"},
		{"weights per edge", 2, []Edge{{0, 1, p}}, ws, "2 weights for 1 edges"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.name, tt.n, tt.edges, tt.agg)
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q missing %q", err, tt.wantSub)
			}
		})
	}
}

func TestSingleVertexQueryValid(t *testing.T) {
	q, err := New("unary", 1, nil, scoring.Avg{})
	if err != nil {
		t.Fatalf("unary query rejected: %v", err)
	}
	if got := q.Score([]interval.Interval{iv(0, 1)}); got != 0 {
		t.Errorf("unary score = %g (no edges -> Avg(nil) = 0)", got)
	}
}

func TestScoreChain(t *testing.T) {
	env := Env{Params: scoring.PairParams{Equals: scoring.Params{Lambda: 4, Rho: 8}}}
	q := Qsm(env) // starts(x1,x2), meets(x2,x3); greater params are (0,0)
	// x1 starts with x2 exactly, x2 ends before... build a perfect tuple:
	x1 := iv(10, 15)
	x2 := iv(10, 20)
	x3 := iv(20, 30)
	got := q.Score([]interval.Interval{x1, x2, x3})
	if got != 1 {
		t.Errorf("perfect Qs,m tuple = %g, want 1", got)
	}
	// Shift x3 by 10: meets drops to 0.25, starts stays 1, avg = 0.625.
	got = q.Score([]interval.Interval{x1, x2, iv(30, 40)})
	if got != 0.625 {
		t.Errorf("shifted tuple = %g, want 0.625", got)
	}
}

func TestCyclicQsfmStructure(t *testing.T) {
	q := Qsfm(Env{Params: scoring.P1})
	if len(q.Edges) != 3 || q.NumVertices != 3 {
		t.Fatalf("Qs,f,m shape = %d vertices %d edges", q.NumVertices, len(q.Edges))
	}
	// Edge (0,2) closes the cycle.
	found := false
	for _, e := range q.Edges {
		if e.From == 0 && e.To == 2 && e.Pred.Name == "s-meets" {
			found = true
		}
	}
	if !found {
		t.Error("missing closing meets(x1,x3) edge")
	}
}

func TestBoolSatisfied(t *testing.T) {
	q := Qbb(Env{Params: scoring.PB})
	yes := []interval.Interval{iv(0, 2), iv(3, 5), iv(6, 9)}
	no := []interval.Interval{iv(0, 2), iv(1, 5), iv(6, 9)}
	if !q.BoolSatisfied(yes) {
		t.Error("sequential tuple should satisfy Boolean Qb,b")
	}
	if q.BoolSatisfied(no) {
		t.Error("overlapping tuple should not satisfy Boolean Qb,b")
	}
}

func TestEdgesOf(t *testing.T) {
	q := Qsfm(Env{Params: scoring.P1})
	if got := q.EdgesOf(0); len(got) != 2 {
		t.Errorf("EdgesOf(0) = %v, want 2 edges", got)
	}
	if got := q.EdgesOf(1); len(got) != 2 {
		t.Errorf("EdgesOf(1) = %v, want 2 edges", got)
	}
}

func TestStarArity(t *testing.T) {
	q := QbStar(Env{Params: scoring.P1}, 5)
	if q.NumVertices != 5 || len(q.Edges) != 4 {
		t.Fatalf("Qb*(5) shape: %d vertices, %d edges", q.NumVertices, len(q.Edges))
	}
	for i, e := range q.Edges {
		if e.From != 0 || e.To != i+1 {
			t.Errorf("edge %d = (%d,%d), want (0,%d)", i, e.From, e.To, i+1)
		}
	}
}

func TestByName(t *testing.T) {
	q, err := ByName("Qo,m", Env{Params: scoring.P1})
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "Qo,m" {
		t.Errorf("Name = %q", q.Name)
	}
	if _, err := ByName("nope", Env{}); err == nil {
		t.Error("unknown name accepted")
	}
}

// Query scores stay in [0,1] with Avg aggregation on random tuples.
func TestScoreUnitRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	env := Env{Params: scoring.P2, Avg: 11}
	queries := []*Query{Qbb(env), Qoo(env), Qsfm(env), QjBjB(env), QsMsM(env)}
	for trial := 0; trial < 3000; trial++ {
		tuple := make([]interval.Interval, 3)
		for i := range tuple {
			s := rng.Int63n(500)
			tuple[i] = iv(s, s+rng.Int63n(60))
		}
		for _, q := range queries {
			got := q.Score(tuple)
			if got < 0 || got > 1 {
				t.Fatalf("%s score %g outside [0,1]", q.Name, got)
			}
		}
	}
}
