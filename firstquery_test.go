package tkij

import (
	"context"
	"fmt"
	"testing"
)

// A fresh engine's first query examines a bounded number of tuples, on
// the benchmark's cold_plan data. Qs,f,m at P1, k = 100 sits at the score
// ceiling (all 100 results score 1): split over reducers, one of them
// used to climb the probe ladder blind to a floor the others had
// certified and examine about 1.73M tuples; the serial pass examines
// 3,749. Qs,s at P2, k = 2,000 is below the ceiling, where the paper's
// score ordering decides the work: the serial pass examines 67,384
// tuples, where 24 reducers over fixed DTB lists examined 45.6M.
func TestFirstQueryTuplesBounded(t *testing.T) {
	var cols []*Collection
	for i := 0; i < 3; i++ {
		cols = append(cols, Uniform(fmt.Sprintf("C%d", i+1), 15000, 4*7919+int64(i)))
	}
	for _, c := range []struct {
		shape   string
		params  PairParams
		k       int
		engines int
		budget  int64
	}{
		{"Qs,f,m", P1, 100, 8, 200000},
		{"Qs,s", P2, 2000, 2, 150000},
	} {
		q, err := QueryByName(c.shape, QueryEnv{Params: c.params, Avg: AvgLength(cols...)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.engines; i++ {
			e, err := NewEngine(cols, Options{Granules: 20, K: c.k})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := e.Execute(context.Background(), q)
			e.Close()
			if err != nil {
				t.Fatal(err)
			}
			var examined int64
			for _, l := range rep.Join.Locals {
				examined += l.TuplesExamined
			}
			if examined > c.budget {
				t.Fatalf("%s k=%d engine %d: the first query examined %d tuples, want at most %d", c.shape, c.k, i, examined, c.budget)
			}
			// A data or parameter change must not quietly move the
			// below-ceiling case back to the ceiling.
			if kth := rep.Results[len(rep.Results)-1].Score; c.params == P2 && !(kth < 1) {
				t.Fatalf("%s k=%d: k-th score %g, want < 1", c.shape, c.k, kth)
			}
		}
	}
}
