package tkij

import (
	"context"
	"fmt"
	"testing"
)

// A fresh engine's first query must not depend on which reducer starts
// first. On the benchmark's cold_plan data one reducer of Qs,f,m used to
// climb the probe ladder blind to a shared floor the other reducers had
// already certified, and the query examined about 1.73M tuples on every
// engine. With rungs that read the shared floor live it examines about
// 14k.
func TestFirstQueryTuplesBounded(t *testing.T) {
	var cols []*Collection
	for i := 0; i < 3; i++ {
		cols = append(cols, Uniform(fmt.Sprintf("C%d", i+1), 15000, 4*7919+int64(i)))
	}
	q, err := QueryByName("Qs,f,m", QueryEnv{Params: P1, Avg: AvgLength(cols...)})
	if err != nil {
		t.Fatal(err)
	}
	const engines, budget = 8, 200000
	for i := 0; i < engines; i++ {
		e, err := NewEngine(cols, Options{Granules: 20, K: 100, Reducers: 8})
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
		if examined > budget {
			t.Fatalf("engine %d: the first query examined %d tuples, want at most %d", i, examined, budget)
		}
	}
}
