package standing

// Randomized standing-equivalence harness (the gate of this layer):
// after every append, each subscriber's materialized state — initial
// snapshot plus every delta applied in order through TopK.Apply — must
// match a fresh execute at that epoch (byte-identical above the k-th
// score, score-identical throughout) and the naive nested-loop oracle.
// Multi-subscriber stages run the same shape at different k and an
// isomorphic relabeling sharing the canonical plan key, all pushed from
// the same ingest cycles.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tkij/internal/baselines"
	"tkij/internal/core"
	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/query"
	"tkij/internal/scoring"
)

// randomStandingCollection mirrors the core harness's generator: sizes,
// spans and lengths drawn from the rng.
func randomStandingCollection(rng *rand.Rand, name string, idBase int64) *interval.Collection {
	n := 25 + rng.Intn(35)
	span := int64(500 + rng.Intn(4000))
	maxLen := int64(10 + rng.Intn(150))
	c := &interval.Collection{Name: name}
	for j := 0; j < n; j++ {
		s := rng.Int63n(span)
		c.Add(interval.Interval{ID: idBase + int64(j), Start: s, End: s + 1 + rng.Int63n(maxLen)})
	}
	return c
}

// randomChain builds a random chain query over n vertices; relabeled
// optionally applies the involution v -> n-1-v so the shape is
// isomorphic but not identical.
func randomChain(rng *rand.Rand, n int, avg float64, relabel bool) (*query.Query, []int, error) {
	params := []scoring.PairParams{scoring.P1, scoring.P2, scoring.P3}[rng.Intn(3)]
	preds := []func() *scoring.Predicate{
		func() *scoring.Predicate { return scoring.Before(params) },
		func() *scoring.Predicate { return scoring.Meets(params) },
		func() *scoring.Predicate { return scoring.Overlaps(params) },
		func() *scoring.Predicate { return scoring.Starts(params) },
		func() *scoring.Predicate { return scoring.FinishedBy(params) },
		func() *scoring.Predicate { return scoring.JustBefore(params, avg) },
	}
	phi := func(v int) int {
		if relabel {
			return n - 1 - v
		}
		return v
	}
	var edges []query.Edge
	for v := 1; v < n; v++ {
		from, to := v-1, v
		if rng.Intn(2) == 0 {
			from, to = to, from
		}
		edges = append(edges, query.Edge{From: phi(from), To: phi(to), Pred: preds[rng.Intn(len(preds))]()})
	}
	mapping := make([]int, n)
	for u := range mapping {
		mapping[u] = phi(u) // vertex u plays original vertex phi(u)'s role
	}
	name := "chain"
	if relabel {
		name = "chain-relabeled"
	}
	q, err := query.New(name, n, edges, scoring.Avg{})
	return q, mapping, err
}

func TestStandingEquivalenceRandomized(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(4000 + seed*7919)))
			n := 2 + rng.Intn(2)
			cols := make([]*interval.Collection, n)
			for i := range cols {
				cols[i] = randomStandingCollection(rng, fmt.Sprintf("C%d", i), int64(i)*1_000_000)
			}
			avg := interval.AvgLength(cols...)
			// Build both labelings of one random shape: the same rng
			// state must drive both so the predicates coincide.
			chainSeed := rng.Int63()
			q1, map1, err := randomChain(rand.New(rand.NewSource(chainSeed)), n, avg, false)
			if err != nil {
				t.Fatal(err)
			}
			q2, map2, err := randomChain(rand.New(rand.NewSource(chainSeed)), n, avg, true)
			if err != nil {
				t.Fatal(err)
			}
			k := 1 + rng.Intn(15)
			k2 := 1 + rng.Intn(15) // second subscriber at its own k

			e := newTestEngine(t, cols, core.Options{
				Granules: 3 + rng.Intn(8),
				K:        k,
				Reducers: 2 + rng.Intn(5),
			})
			m := NewManager(e)
			defer m.Close()

			type subscriber struct {
				label string
				sub   *Subscription
				tk    *TopK
				q     *query.Query
				map_  []int
				k     int
			}
			mk := func(label string, q *query.Query, mapping []int, k int) *subscriber {
				sub, err := m.Subscribe(context.Background(), q, k, SubOptions{Mapping: mapping})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				t.Cleanup(sub.Close)
				return &subscriber{label: label, sub: sub, tk: NewTopK(k), q: q, map_: mapping, k: k}
			}
			subs := []*subscriber{
				mk("orig", q1, map1, k),
				mk("other-k", q1, map1, k2),
				mk("isomorphic", q2, map2, k),
			}
			if got, want := subs[2].sub.PlanKey(), subs[0].sub.PlanKey(); got != want {
				t.Fatalf("isomorphic subscription has its own plan key:\n%s\n%s", got, want)
			}
			if subs[1].sub.PlanKey() == subs[0].sub.PlanKey() {
				t.Fatal("different k shares a plan key")
			}

			check := func(stage string, epoch int64) {
				for _, s := range subs {
					waitEpoch(t, s.sub, s.tk, epoch)
					label := fmt.Sprintf("%s/%s", stage, s.label)
					// Server-side pushed state and client-side
					// materialization agree byte for byte.
					snap, snapEpoch := s.sub.Snapshot()
					if snapEpoch == s.tk.Epoch && !reflect.DeepEqual(snap, s.tk.Results) {
						t.Fatalf("%s: materialized state diverges from server snapshot at epoch %d", label, snapEpoch)
					}
					// Fresh execute at the same epoch.
					want, fe := freshResults(t, e, s.q, s.map_, s.k)
					if fe != epoch {
						t.Fatalf("%s: fresh execute pinned %d, want %d", label, fe, epoch)
					}
					requireEquivalent(t, label, s.q, s.tk.Results, want)
					// The naive oracle over the subscriber's vertex
					// collections.
					vertexCols := make([]*interval.Collection, len(s.map_))
					for v, ci := range s.map_ {
						vertexCols[v] = cols[ci]
					}
					naive, err := baselines.Naive(s.q, vertexCols, s.k)
					if err != nil {
						t.Fatalf("%s: naive: %v", label, err)
					}
					if !join.ScoreMultisetEqual(s.tk.Results, naive, 1e-9) {
						t.Fatalf("%s: materialized top-%d diverges from the naive oracle\n got: %v\nwant: %v",
							label, s.k, s.tk.Results, naive)
					}
				}
			}

			check("initial", 0)
			appends := 5
			if testing.Short() {
				appends = 2
			}
			var counter int64
			for a := 0; a < appends; a++ {
				col := rng.Intn(n)
				span := int64(500 + rng.Intn(4500)) // may widen boundary granules
				batch := make([]interval.Interval, 3+rng.Intn(10))
				for i := range batch {
					counter++
					s := rng.Int63n(span)
					batch[i] = interval.Interval{
						ID:    int64(col)*1_000_000 + 500_000 + counter,
						Start: s,
						End:   s + 1 + rng.Int63n(120),
					}
				}
				epoch, err := e.Append(col, batch)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("append=%d", a), epoch)
			}
			st := m.Stats()
			if st.Pushes+st.Promotions+st.Resyncs == 0 {
				t.Fatalf("harness pushed nothing: %+v", st)
			}
		})
	}
}
