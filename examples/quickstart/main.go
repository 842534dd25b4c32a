// Quickstart: the smallest useful TKIJ program. Two synthetic interval
// collections, one scored predicate (s-meets with the P1 tolerance
// parameters), top-10 results.
package main

import (
	"context"
	"fmt"
	"log"

	"tkij"
)

func main() {
	// Two collections with the paper's synthetic parameters: uniform
	// starts in [0, 1e5], lengths in [1, 100].
	c1 := tkij.Uniform("C1", 50000, 1)
	c2 := tkij.Uniform("C2", 50000, 2)

	// An engine owns the collections and their (reusable) statistics.
	engine, err := tkij.NewEngine([]*tkij.Collection{c1, c2}, tkij.Options{
		K:        10,
		Granules: 40,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Query: pairs (x, y) where y starts roughly when x ends. s-meets
	// scores the match in [0, 1]; the Boolean Allen predicate is the
	// special case tkij.PB.
	q, err := tkij.NewQuery("almost-meets", 2,
		[]tkij.Edge{{From: 0, To: 1, Pred: tkij.Meets(tkij.P1)}},
		tkij.Avg{})
	if err != nil {
		log.Fatal(err)
	}

	report, err := engine.Execute(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("top-%d of %.0f candidate pairs in %v (the join read %d of %.0f bucket combinations)\n",
		len(report.Results), report.TopBuckets.TotalResults, report.Total,
		report.Join.Locals[0].CombosAssigned, report.TopBuckets.TotalCombos)
	for i, r := range report.Results {
		x, y := r.Tuple[0], r.Tuple[1]
		fmt.Printf("#%2d score %.3f  x=[%d,%d] ends -> y=[%d,%d] starts (gap %+d)\n",
			i+1, r.Score, x.Start, x.End, y.Start, y.End, y.Start-x.End)
	}
}
