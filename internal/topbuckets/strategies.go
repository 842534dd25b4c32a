package topbuckets

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tkij/internal/query"
	"tkij/internal/solver"
	"tkij/internal/stats"
)

// Strategy selects how score bounds are computed (§3.3, Algorithm 2).
type Strategy int

// The three TopBuckets strategies.
const (
	// Loose computes solver bounds only for bucket pairs (4 variables,
	// O(|E|·g^4) solver calls) and aggregates them through the monotone
	// scoring function. Bounds may be loose; selection stays correct.
	// The paper's evaluation settles on this strategy (§4.2.3).
	Loose Strategy = iota
	// BruteForce computes tight solver bounds for every combination in
	// Ω (2n variables each); O(g^2n) solver calls.
	BruteForce
	// TwoPhase prunes with loose bounds first, then refines the
	// survivors with tight bounds and selects again.
	TwoPhase
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Loose:
		return "loose"
	case BruteForce:
		return "brute-force"
	case TwoPhase:
		return "two-phase"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Options configures a TopBuckets run.
type Options struct {
	Strategy Strategy
	// MaxCombos guards materializing paths (brute-force, two-phase
	// survivor refinement) against combinatorial explosion. Defaults to
	// 2e6.
	MaxCombos float64
	// workers is the number of parallel tight-bound workers
	// (TightenBounds: brute force, two-phase refinement): GOMAXPROCS.
	// Nothing a run returns depends on it; only this package's
	// worker-invariance tests set it.
	workers int
}

func (o Options) withDefaults() Options {
	if o.workers <= 0 {
		o.workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxCombos <= 0 {
		o.MaxCombos = 2e6
	}
	return o
}

// Result is the outcome of a TopBuckets run.
type Result struct {
	// Selected is Ω_k,S, sorted by descending score upper bound — the
	// access order the join phase uses.
	Selected []Combo
	// TotalCombos is |Ω|.
	TotalCombos float64
	// TotalResults is the number of candidate tuples in Ω.
	TotalResults float64
	// SelectedResults is the number of candidate tuples in Ω_k,S.
	SelectedResults float64
	// PairSolverCalls counts the pair bounds computed: one enclosure per
	// bucket pair per edge, plus the searches of the pairs whose
	// enclosure is not exact. TightSolverCalls counts combination
	// bounds.
	PairSolverCalls  int
	TightSolverCalls int
	// KthResLB is the certified lower bound on the k-th result's score
	// (Algorithm 1's kthResLB). The join phase uses it as a score floor.
	KthResLB float64
	// PairPhase, EnumPhase and RefinePhase time the strategy stages:
	// for a plan, its build (pair tables and cover) and its drain.
	PairPhase, EnumPhase, RefinePhase time.Duration
	// Total is the end-to-end TopBuckets wall time.
	Total time.Duration
}

// PrunedFraction is the share of candidate results eliminated before the
// join phase (the grey curve of Figure 10c).
func (r *Result) PrunedFraction() float64 {
	if r.TotalResults == 0 {
		return 0
	}
	return 1 - r.SelectedResults/r.TotalResults
}

// Run executes the TopBuckets process for query q over the statistics
// matrices, returning Ω_k,S per Definition 2. The loose strategy is a
// Plan drained; two-phase tightens the drained selection's bounds and
// selects again.
func Run(q *query.Query, matrices []*stats.Matrix, k int, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	lists, err := validateInputs(q, matrices, k)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var res *Result
	switch opts.Strategy {
	case Loose, TwoPhase:
		res, err = runLoose(q, matrices, k, opts)
	case BruteForce:
		res, err = runBruteForce(q, matrices, lists, k, opts)
	default:
		return nil, fmt.Errorf("topbuckets: unknown strategy %d", int(opts.Strategy))
	}
	if err != nil {
		return nil, err
	}
	res.Total = time.Since(start)
	return res, nil
}

// LooseBounds sets LB, UB and EdgeUB of every combination in place to
// its loose bounds over the current matrices, solving each distinct
// (edge, bucket pair) once. No planning path calls it: it is the
// reference a Plan is checked against (TestPlanEqualsListSelection,
// FuzzTopBuckets), all of Ω bounded combination by combination and
// selected as a list.
func LooseBounds(q *query.Query, matrices []*stats.Matrix, combos []Combo) {
	lbs := edgeBounds(q, gridsOf(matrices), combos)
	n := len(q.Edges)
	for i := range combos {
		combos[i].LB, combos[i].UB = q.Agg.Aggregate(lbs[i*n:(i+1)*n]), q.Agg.Aggregate(combos[i].EdgeUB)
	}
}

// runLoose implements Algorithm 2 as a drained Plan; with TwoPhase it
// then refines the selection with tight bounds and selects again.
func runLoose(q *query.Query, matrices []*stats.Matrix, k int, opts Options) (*Result, error) {
	p, err := NewPlan(q, matrices, k)
	if err != nil {
		return nil, err
	}
	enumStart := time.Now()
	selected := p.Drain()
	res := &Result{
		TotalCombos:     p.TotalCombos,
		TotalResults:    p.TotalResults,
		KthResLB:        p.KthResLB,
		PairSolverCalls: p.Cells + p.Searches(),
		PairPhase:       p.Built,
		EnumPhase:       time.Since(enumStart),
	}

	if opts.Strategy == TwoPhase {
		refineStart := time.Now()
		if float64(len(selected)) > opts.MaxCombos {
			return nil, fmt.Errorf("topbuckets: two-phase refinement over %d combinations exceeds MaxCombos %g", len(selected), opts.MaxCombos)
		}
		// The plan is this run's own: its drained prefix is refined in
		// place.
		TightenBounds(q, matrices, selected, opts)
		res.TightSolverCalls = len(selected)
		selected, res.KthResLB = SelectWithThreshold(k, selected)
		res.RefinePhase = time.Since(refineStart)
	}

	res.Selected = selected
	for _, c := range selected {
		res.SelectedResults += c.NbRes
	}
	return res, nil
}

// runBruteForce materializes Ω with tight solver bounds for every
// combination (and its pair UBs for the join), then selects.
func runBruteForce(q *query.Query, matrices []*stats.Matrix, lists [][]stats.Bucket, k int, opts Options) (*Result, error) {
	res := &Result{TotalCombos: comboCount(lists)}
	if res.TotalCombos > opts.MaxCombos {
		return nil, fmt.Errorf("topbuckets: brute-force over %g combinations exceeds MaxCombos %g (reduce g or use the loose strategy)", res.TotalCombos, opts.MaxCombos)
	}
	var combos []Combo
	enumerate(lists, func(buckets []stats.Bucket) {
		combos = append(combos, Combo{
			Buckets: append([]stats.Bucket(nil), buckets...),
			NbRes:   nbRes(buckets),
		})
	})
	for _, c := range combos {
		res.TotalResults += c.NbRes
	}
	edgeBounds(q, gridsOf(matrices), combos)
	refineStart := time.Now()
	TightenBounds(q, matrices, combos, opts)
	res.TightSolverCalls = len(combos)
	res.RefinePhase = time.Since(refineStart)

	selStart := time.Now()
	res.Selected, res.KthResLB = SelectWithThreshold(k, combos)
	res.EnumPhase = time.Since(selStart)
	for _, c := range res.Selected {
		res.SelectedResults += c.NbRes
	}
	return res, nil
}

// TightenBounds recomputes tight solver bounds for every combination in
// place, in parallel, and returns the total branch-and-bound nodes
// opened (the solver-work certificate of the recomputation). It is the
// second phase of the two-phase strategy and the whole of brute-force.
// EdgeUB is left as it is: a pair UB bounds its edge whatever bounds the
// combination.
func TightenBounds(q *query.Query, matrices []*stats.Matrix, combos []Combo, opts Options) int {
	opts = opts.withDefaults()
	var wg sync.WaitGroup
	var nodes atomic.Int64
	chunk := (len(combos) + opts.workers - 1) / opts.workers
	for w := 0; w < opts.workers; w++ {
		lo := w * chunk
		if lo >= len(combos) {
			break
		}
		hi := lo + chunk
		if hi > len(combos) {
			hi = len(combos)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			local := 0
			var boxes []solver.VertexBox
			for i := lo; i < hi; i++ {
				boxes = boxesFor(matrices, combos[i].Buckets, boxes[:0])
				var cert solver.Cert
				combos[i].LB, combos[i].UB, cert = solver.QueryBoundsCert(q, boxes)
				local += cert.Nodes
			}
			nodes.Add(int64(local))
		}(lo, hi)
	}
	wg.Wait()
	return int(nodes.Load())
}
