// Tweets: the paper's hashtag-analysis scenario (§1, §2). Intervals are
// hashtag lifespans; the sparks predicate finds pairs where a
// short-lived hashtag immediately precedes one lasting over 10x longer —
// the "small spark igniting a big fire" pattern the paper motivates with
// #JeSuisCharlie.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"tkij"
)

func main() {
	// Simulate hashtag lifespans over one week (hours): many short-lived
	// tags, a few long-running ones.
	rng := rand.New(rand.NewSource(7))
	const hours = 7 * 24
	var items []tkij.Interval
	for i := 0; i < 30000; i++ {
		start := rng.Int63n(hours)
		var life int64
		if rng.Float64() < 0.05 {
			life = 24 + rng.Int63n(72) // viral: 1-4 days
		} else {
			life = 1 + rng.Int63n(6) // ordinary: a few hours
		}
		items = append(items, tkij.Interval{ID: int64(i), Start: start, End: start + life})
	}
	tags := tkij.NewCollection("hashtags", items)

	// sparks(x, y): y starts after x ends and lasts > 10x longer. The
	// scored version tolerates a small gap via the greater ramp.
	pp := tkij.PairParams{Greater: tkij.Params{Lambda: 0, Rho: 6}}
	q, err := tkij.NewQuery("sparks", 2,
		[]tkij.Edge{{From: 0, To: 1, Pred: tkij.Sparks(pp)}},
		tkij.Avg{})
	if err != nil {
		log.Fatal(err)
	}

	engine, err := tkij.NewEngine([]*tkij.Collection{tags}, tkij.Options{
		K:        10,
		Granules: 24,
	})
	if err != nil {
		log.Fatal(err)
	}
	report, err := engine.ExecuteMapped(context.Background(), q, []int{0, 0})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("top spark pairs among %d hashtags (%v):\n", tags.Len(), report.Total)
	for i, r := range report.Results {
		x, y := r.Tuple[0], r.Tuple[1]
		fmt.Printf("#%2d score %.3f  spark #%d lived %dh -> fire #%d lived %dh (gap %dh)\n",
			i+1, r.Score, x.ID, x.Length(), y.ID, y.Length(), y.Start-x.End)
	}
}
