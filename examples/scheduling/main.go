// Scheduling: a task-pipeline audit. Three collections hold the
// execution windows of build, test, and deploy jobs; the cyclic query
// Qs,f,m (starts, finishedBy, meets) finds triples where a test run
// starts with its build, a deploy finishes with the test, and the deploy
// begins right as the build ends — the signature of a tightly packed
// pipeline worth inspecting.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"tkij"
)

func genJobs(name string, n int, seed int64, minLen, maxLen int64) *tkij.Collection {
	rng := rand.New(rand.NewSource(seed))
	items := make([]tkij.Interval, n)
	for i := range items {
		start := rng.Int63n(100000)
		items[i] = tkij.Interval{
			ID:    int64(i),
			Start: start,
			End:   start + minLen + rng.Int63n(maxLen-minLen+1),
		}
	}
	return tkij.NewCollection(name, items)
}

func main() {
	builds := genJobs("builds", 8000, 1, 30, 300)
	tests := genJobs("tests", 8000, 2, 60, 600)
	deploys := genJobs("deploys", 8000, 3, 10, 120)

	// The cyclic Table-1 query Qs,f,m:
	//   s-starts(build, test)      - test starts with its build
	//   s-finishedBy(test, deploy) - deploy finishes with the test
	//   s-meets(build, deploy)     - deploy begins as the build ends
	q, err := tkij.QueryByName("Qs,f,m", tkij.QueryEnv{Params: tkij.P1})
	if err != nil {
		log.Fatal(err)
	}

	engine, err := tkij.NewEngine(
		[]*tkij.Collection{builds, tests, deploys},
		tkij.Options{K: 10, Granules: 40},
	)
	if err != nil {
		log.Fatal(err)
	}
	report, err := engine.Execute(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("tightest build/test/deploy pipelines (query %s, %v):\n", q.Name, report.Total)
	fmt.Printf("read %d of %.0f bucket combinations (%.0f candidate triples) in the join\n\n",
		report.Join.Locals[0].CombosAssigned, report.TopBuckets.TotalCombos, report.TopBuckets.TotalResults)
	for i, r := range report.Results {
		b, t, d := r.Tuple[0], r.Tuple[1], r.Tuple[2]
		fmt.Printf("#%2d score %.3f  build[%d,%d] test[%d,%d] deploy[%d,%d]\n",
			i+1, r.Score, b.Start, b.End, t.Start, t.End, d.Start, d.End)
	}

	// Compare with the strict Boolean interpretation: usually empty,
	// which is the paper's argument for scored predicates.
	qb, err := tkij.QueryByName("Qs,f,m", tkij.QueryEnv{Params: tkij.PB})
	if err != nil {
		log.Fatal(err)
	}
	exact, err := tkij.Exhaustive(qb, []*tkij.Collection{
		sample(builds, 300), sample(tests, 300), sample(deploys, 300)}, 10)
	if err != nil {
		log.Fatal(err)
	}
	perfect := 0
	for _, r := range exact {
		if r.Score == 1.0 {
			perfect++
		}
	}
	fmt.Printf("\nBoolean interpretation on a 300-interval sample: %d exact matches "+
		"(scored semantics finds near-misses the Boolean query cannot)\n", perfect)
}

func sample(c *tkij.Collection, n int) *tkij.Collection {
	if c.Len() <= n {
		return c
	}
	return tkij.NewCollection(c.Name, c.Items[:n])
}
