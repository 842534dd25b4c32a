package tkij

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

// The public API must carry a user through the full quickstart flow.
func TestPublicAPIQuickstart(t *testing.T) {
	c1 := Uniform("C1", 400, 1)
	c2 := Uniform("C2", 400, 2)
	engine, err := NewEngine([]*Collection{c1, c2}, Options{K: 10, Granules: 8, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery("meets", 2, []Edge{{From: 0, To: 1, Pred: Meets(P1)}}, Avg{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := engine.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != 10 {
		t.Fatalf("got %d results, want 10", len(report.Results))
	}
	exact, err := Exhaustive(q, []*Collection{c1, c2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if report.Results[i].Score != exact[i].Score {
			t.Fatalf("result %d score %g != exhaustive %g", i, report.Results[i].Score, exact[i].Score)
		}
	}
}

func TestPublicAPICatalogAndCodec(t *testing.T) {
	q, err := QueryByName("Qo,m", QueryEnv{Params: P2})
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVertices != 3 {
		t.Fatalf("Qo,m arity = %d", q.NumVertices)
	}
	if _, ok := PredicateByName("sparks", P1, 0); !ok {
		t.Error("sparks not resolvable")
	}
	c := Uniform("rt", 50, 3)
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCollection(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 50 {
		t.Fatalf("round trip lost intervals: %d", back.Len())
	}
}

func TestPublicAPITrafficPipeline(t *testing.T) {
	packets := GenPackets(50, 30, 86400, 4)
	conns := BuildConnections("conns", packets, 0)
	if conns.Len() == 0 {
		t.Fatal("no connections built")
	}
	avg := AvgLength(conns)
	q, err := QueryByName("QjB,jB", QueryEnv{Params: P3, Avg: avg})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine([]*Collection{conns}, Options{K: 5, Granules: 10, Reducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	report, err := engine.ExecuteMapped(context.Background(), q, []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) == 0 {
		t.Fatal("no results on traffic data")
	}
}

func TestStrategyAndDistributionConstants(t *testing.T) {
	if Loose.String() != "loose" || DTB.String() != "DTB" {
		t.Error("re-exported constants broken")
	}
	if TwoPhase.String() != "two-phase" || BruteForce.String() != "brute-force" {
		t.Error("strategy constants broken")
	}
	if LPT.String() != "LPT" || RoundRobin.String() != "RoundRobin" {
		t.Error("distribution constants broken")
	}
}

// The public serving surface: a Server admits concurrent Submits and
// returns reports identical to direct execution.
func TestPublicAPIServer(t *testing.T) {
	c1 := Uniform("C1", 400, 1)
	c2 := Uniform("C2", 400, 2)
	engine, err := NewEngine([]*Collection{c1, c2}, Options{K: 10, Granules: 8, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery("meets", 2, []Edge{{From: 0, To: 1, Pred: Meets(P1)}}, Avg{})
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(engine, ServerOptions{})
	defer server.Close()

	const n = 6
	reports := make([]*Report, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := server.Submit(context.Background(), q, nil)
			if err != nil {
				t.Error(err)
				return
			}
			reports[i] = r
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	direct, err := engine.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reports {
		if r.BatchSize != 1 {
			t.Fatalf("report %d batch size %d, want 1 through a server", i, r.BatchSize)
		}
		if len(r.Results) != len(direct.Results) {
			t.Fatalf("report %d has %d results, direct execution %d", i, len(r.Results), len(direct.Results))
		}
		for j := range r.Results {
			if r.Results[j].Score != direct.Results[j].Score {
				t.Fatalf("report %d result %d score %g != direct %g", i, j, r.Results[j].Score, direct.Results[j].Score)
			}
		}
	}
	if st := server.Stats(); st.Submitted != n {
		t.Fatalf("server stats submitted = %d, want %d", st.Submitted, n)
	}
}
