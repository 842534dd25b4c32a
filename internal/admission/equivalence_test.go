package admission

// Server-equivalence harness: concurrent Submits must be
// result-identical to sequential Execute. What concurrent executions
// share — the single-flighted plan and its bounds — is a pure
// function of its key, so the top-k score multiset must come out
// byte-identical (exact float equality, no epsilon):
//
//   - quiesced: concurrent duplicate Submits vs the same engine's
//     sequential ExecuteMapped;
//   - under interleaved Append: every served report is checked against
//     the naive nested-loop oracle over the collection prefixes its
//     pinned epoch corresponds to.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tkij/internal/core"
	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/query"
	"tkij/internal/scoring"
)

func randomCollection(rng *rand.Rand, name string, idBase int64) *interval.Collection {
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

func randomQuery(rng *rand.Rand, n int, avg float64) (*query.Query, error) {
	params := []scoring.PairParams{scoring.P1, scoring.P2, scoring.P3}[rng.Intn(3)]
	preds := []func() *scoring.Predicate{
		func() *scoring.Predicate { return scoring.Before(params) },
		func() *scoring.Predicate { return scoring.Meets(params) },
		func() *scoring.Predicate { return scoring.Overlaps(params) },
		func() *scoring.Predicate { return scoring.Equals(params) },
		func() *scoring.Predicate { return scoring.JustBefore(params, avg) },
		func() *scoring.Predicate { return scoring.Sparks(params) },
	}
	var edges []query.Edge
	star := rng.Intn(2) == 0
	for v := 1; v < n; v++ {
		from, to := v-1, v
		if star {
			from = 0
		}
		if rng.Intn(2) == 0 {
			from, to = to, from
		}
		edges = append(edges, query.Edge{From: from, To: to, Pred: preds[rng.Intn(len(preds))]()})
	}
	return query.New(fmt.Sprintf("rand-n%d", n), n, edges, scoring.Avg{})
}

// exactScores renders a result list's scores sorted descending; two
// lists compare byte-identical iff these are element-wise equal.
func exactScores(rs []join.Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Score
	}
	return out
}

func sameScores(a, b []join.Result) bool {
	return join.ScoreMultisetEqual(a, b, 0)
}

func TestBatchedMatchesSequentialRandomized(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(4000 + seed*6131)))
			n := 2 + rng.Intn(2)
			cols := make([]*interval.Collection, n)
			for i := range cols {
				cols[i] = randomCollection(rng, fmt.Sprintf("C%d", i), int64(i)*1_000_000)
			}
			q1, err := randomQuery(rng, n, interval.AvgLength(cols...))
			if err != nil {
				t.Fatal(err)
			}
			q2, err := randomQuery(rng, n, interval.AvgLength(cols...))
			if err != nil {
				t.Fatal(err)
			}
			k := 1 + rng.Intn(12)
			e, err := core.NewEngine(cols, core.Options{
				Granules: 3 + rng.Intn(8),
				K:        k,
				Reducers: 2 + rng.Intn(5),
			})
			if err != nil {
				t.Fatal(err)
			}
			b := New(e, Options{})
			defer b.Close()

			// Quiesced round: duplicate concurrent Submits of two shapes
			// vs sequential Execute on the same (unmoving) epoch.
			queries := []*query.Query{q1, q1, q2, q1, q2, q2}
			reports := make([]*core.Report, len(queries))
			var wg sync.WaitGroup
			for i, q := range queries {
				wg.Add(1)
				go func(i int, q *query.Query) {
					defer wg.Done()
					r, err := b.Submit(context.Background(), q, nil)
					if err != nil {
						t.Error(err)
						return
					}
					reports[i] = r
				}(i, q)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			for i, q := range queries {
				seqReport, err := e.Execute(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if !sameScores(reports[i].Results, seqReport.Results) {
					t.Fatalf("served submit %d diverged from sequential Execute on %s\nserved:     %v\nsequential: %v",
						i, q.Name, exactScores(reports[i].Results), exactScores(seqReport.Results))
				}
				for _, r := range reports[i].Results {
					if got := q.Score(r.Tuple); got != r.Score {
						t.Fatalf("served result tuple %v reports score %g, rescores to %g", r.Tuple, r.Score, got)
					}
				}
			}

			// Ingest round: one appender streams batches, one after each
			// answered Submit, while duplicate Submits run; every report
			// must match the naive oracle over the collection prefixes of
			// its pinned epoch.
			var mu sync.Mutex
			lengths := map[int64][]int{0: colLengths(cols)}
			answered := make(chan struct{}, 1)
			var ingest sync.WaitGroup
			ingest.Add(1)
			go func() {
				defer ingest.Done()
				for i := 0; ; i++ {
					if _, ok := <-answered; !ok {
						return
					}
					col := rng.Intn(n)
					batch := make([]interval.Interval, 3+rng.Intn(8))
					span := int64(500 + rng.Intn(4500))
					for j := range batch {
						s := rng.Int63n(span)
						batch[j] = interval.Interval{ID: int64(9_000_000 + i*100 + j), Start: s, End: s + 1 + rng.Int63n(120)}
					}
					mu.Lock()
					epoch, err := e.Append(col, batch)
					if err != nil {
						mu.Unlock()
						t.Error(err)
						return
					}
					lengths[epoch] = colLengths(cols)
					mu.Unlock()
				}
			}()

			ingestReports := make([]*core.Report, 12)
			for i := range ingestReports {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					q := q1
					if i%3 == 2 {
						q = q2
					}
					r, err := b.Submit(context.Background(), q, nil)
					if err != nil {
						t.Error(err)
						return
					}
					ingestReports[i] = r
					select {
					case answered <- struct{}{}:
					default:
					}
				}(i)
			}
			wg.Wait()
			close(answered)
			ingest.Wait()
			if t.Failed() {
				t.FailNow()
			}

			for i, r := range ingestReports {
				mu.Lock()
				lens, ok := lengths[r.Epoch]
				mu.Unlock()
				if !ok {
					t.Fatalf("report %d pinned epoch %d with no recorded lengths", i, r.Epoch)
				}
				prefix := make([]*interval.Collection, n)
				for c := range prefix {
					prefix[c] = &interval.Collection{Name: cols[c].Name, Items: cols[c].Items[:lens[c]]}
				}
				want, err := join.Exhaustive(r.Query, prefix, k)
				if err != nil {
					t.Fatal(err)
				}
				if !sameScores(r.Results, want) {
					t.Fatalf("served submit %d (epoch %d) diverged from the naive oracle\nserved:  %v\nnaive:   %v",
						i, r.Epoch, exactScores(r.Results), exactScores(want))
				}
			}
		})
	}
}

func colLengths(cols []*interval.Collection) []int {
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = c.Len()
	}
	return out
}
