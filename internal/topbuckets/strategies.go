package topbuckets

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
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
	// Workers is the number of parallel bound-computation workers
	// (the paper shards TopBuckets over its 6 cluster workers).
	// Defaults to GOMAXPROCS.
	Workers int
	// MaxCombos guards materializing paths (brute-force, two-phase
	// survivor refinement) against combinatorial explosion. Defaults to
	// 2e6.
	MaxCombos float64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
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
	// PairSolverCalls and TightSolverCalls count bound optimizations.
	PairSolverCalls  int
	TightSolverCalls int
	// KthResLB is the certified lower bound on the k-th result's score
	// (Algorithm 1's kthResLB). The join phase uses it as a score floor.
	KthResLB float64
	// PairPhase, EnumPhase and RefinePhase time the strategy stages.
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
// matrices, returning Ω_k,S per Definition 2.
func Run(q *query.Query, matrices []*stats.Matrix, k int, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	lists, err := validateInputs(q, matrices, k)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var res *Result
	switch opts.Strategy {
	case Loose:
		res, err = runLoose(q, matrices, lists, k, opts, false)
	case BruteForce:
		res, err = runBruteForce(q, matrices, lists, k, opts)
	case TwoPhase:
		res, err = runLoose(q, matrices, lists, k, opts, true)
	default:
		return nil, fmt.Errorf("topbuckets: unknown strategy %d", int(opts.Strategy))
	}
	if err != nil {
		return nil, err
	}
	res.Total = time.Since(start)
	return res, nil
}

// pairBound holds solver bounds for one bucket pair.
type pairBound struct {
	lb, ub float64
}

// computePairBounds builds, for every query edge, the dense bound table
// over all bucket pairs of its two collections (lines 1-3 of Algorithm
// 2), parallelized across workers. Edge ei's bound for the buckets at
// positions i of lists[e.From] and j of lists[e.To] is
// tables[ei][i*len(lists[e.To])+j].
func computePairBounds(q *query.Query, matrices []*stats.Matrix, lists [][]stats.Bucket, opts Options) ([][]pairBound, int) {
	tables := make([][]pairBound, len(q.Edges))
	calls := 0
	for ei, e := range q.Edges {
		fromList, toList := lists[e.From], lists[e.To]
		fromGrid, toGrid := matrices[e.From].Grid(), matrices[e.To].Grid()
		toBoxes := make([]solver.VertexBox, len(toList))
		for j, bj := range toList {
			toBoxes[j] = BoxOf(toGrid, bj)
		}
		out := make([]pairBound, len(fromList)*len(toList))
		var wg sync.WaitGroup
		chunk := (len(fromList) + opts.Workers - 1) / opts.Workers
		for w := 0; w < opts.Workers; w++ {
			lo := w * chunk
			if lo >= len(fromList) {
				break
			}
			hi := lo + chunk
			if hi > len(fromList) {
				hi = len(fromList)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					fromBox := BoxOf(fromGrid, fromList[i])
					for j, toBox := range toBoxes {
						lb, ub := solver.PairBounds(e.Pred, fromBox, toBox)
						out[i*len(toList)+j] = pairBound{lb, ub}
					}
				}
			}(lo, hi)
		}
		wg.Wait()
		calls += len(out)
		tables[ei] = out
	}
	return tables, calls
}

// looseBounds aggregates per-edge pair bounds into combination bounds
// (lines 4-5 of Algorithm 2) for the combination at the enumeration's
// odometer positions pos: by monotonicity of S, aggregating edge lower
// (resp. upper) bounds yields a valid combination lower (resp. upper)
// bound.
func looseBounds(q *query.Query, tables [][]pairBound, lists [][]stats.Bucket, pos []int, lbs, ubs []float64) (lb, ub float64) {
	for ei, e := range q.Edges {
		pb := tables[ei][pos[e.From]*len(lists[e.To])+pos[e.To]]
		lbs[ei], ubs[ei] = pb.lb, pb.ub
	}
	return q.Agg.Aggregate(lbs), q.Agg.Aggregate(ubs)
}

// LooseBounds sets LB and UB of every combination in place to its loose
// bounds over the current matrices, reading the per-edge pair bounds
// through memo: only pairs memo has not seen at their current boxes are
// solved. It is runLoose's bounding for callers that bound a few
// combinations across many epochs (the standing layer's affected
// region) rather than all of Ω once.
func LooseBounds(q *query.Query, memo *solver.PairMemo, matrices []*stats.Matrix, combos []Combo) {
	sigs := make([]string, len(q.Edges))
	for ei, e := range q.Edges {
		sigs[ei] = e.Pred.Signature()
	}
	lbs := make([]float64, len(q.Edges))
	ubs := make([]float64, len(q.Edges))
	for i := range combos {
		bs := combos[i].Buckets
		for ei, e := range q.Edges {
			// Enumeration order varies the last vertices fastest, so an
			// edge over earlier ones keeps its bucket pair — and the
			// bounds already in lbs/ubs — for runs of combinations.
			if i > 0 && bs[e.From] == combos[i-1].Buckets[e.From] && bs[e.To] == combos[i-1].Buckets[e.To] {
				continue
			}
			lbs[ei], ubs[ei], _ = memo.Bounds(e.Pred, sigs[ei],
				BoxOf(matrices[e.From].Grid(), bs[e.From]), BoxOf(matrices[e.To].Grid(), bs[e.To]))
		}
		combos[i].LB, combos[i].UB = q.Agg.Aggregate(lbs), q.Agg.Aggregate(ubs)
	}
}

// runLoose implements Algorithm 2. With refine=false it is the loose
// strategy (onePhase=true); with refine=true it is two-phase.
func runLoose(q *query.Query, matrices []*stats.Matrix, lists [][]stats.Bucket, k int, opts Options, refine bool) (*Result, error) {
	res := &Result{TotalCombos: comboCount(lists)}

	pairStart := time.Now()
	tables, calls := computePairBounds(q, matrices, lists, opts)
	res.PairSolverCalls = calls
	res.PairPhase = time.Since(pairStart)

	// The total candidate count is the product of collection sizes:
	// every tuple falls in exactly one bucket combination.
	res.TotalResults = 1
	for _, m := range matrices {
		res.TotalResults *= float64(m.Total())
	}

	// One streaming pass over Ω with cheap table-lookup bounds, sharded by
	// the first collection's buckets exactly as the paper's distributed
	// TopBuckets splits B_1 into worker groups (§4 "Selection of bucket
	// combinations"): each shard selects a locally sufficient set, and a
	// final SelectList over the union returns a globally valid Ω_k,S —
	// every shard's certificate survives into the union.
	enumStart := time.Now()
	shards := opts.Workers
	if shards > len(lists[0]) {
		shards = len(lists[0])
	}
	shardSel := make([][]candidate, shards)
	var wg sync.WaitGroup
	shardSize := (len(lists[0]) + shards - 1) / shards
	for w := 0; w < shards; w++ {
		lo := w * shardSize
		if lo >= len(lists[0]) {
			break
		}
		hi := lo + shardSize
		if hi > len(lists[0]) {
			hi = len(lists[0])
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			shardSel[w] = selectShard(q, tables, lists, lo, hi, k)
		}(w, lo, hi)
	}
	wg.Wait()
	selected, kthResLB := selectUnion(lists, shardSel, k)
	res.KthResLB = kthResLB
	res.EnumPhase = time.Since(enumStart)

	if refine {
		refineStart := time.Now()
		if float64(len(selected)) > opts.MaxCombos {
			return nil, fmt.Errorf("topbuckets: two-phase refinement over %d combinations exceeds MaxCombos %g", len(selected), opts.MaxCombos)
		}
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

// selectShard is one shard of the loose enumeration: the combinations
// whose first bucket is at positions [lo, hi) of lists[0], bounded from
// the pair tables and selected in one pass. It returns the shard's
// Ω_k,S as candidates at their row-major positions in Ω, in byUBPos
// order.
func selectShard(q *query.Query, tables [][]pairBound, lists [][]stats.Bucket, lo, hi, k int) []candidate {
	sel := newSelector(k)
	lbs := make([]float64, len(q.Edges))
	ubs := make([]float64, len(q.Edges))
	// Row-major positions: the shard starts at lo times the count of
	// tuples below each first bucket.
	pos := lo
	for _, l := range lists[1:] {
		pos *= len(l)
	}
	enumerate(lists, lo, hi, func(idx []int, buckets []stats.Bucket) {
		lb, ub := looseBounds(q, tables, lists, idx, lbs, ubs)
		sel.offer(candidate{pos: pos, lb: lb, ub: ub, nbRes: nbRes(buckets)})
		pos++
	})
	picked, _ := sel.pick()
	slices.SortFunc(picked, byUBPos)
	return picked
}

// byUBPos orders candidates at row-major positions in Ω as byUB orders
// their combinations: Matrix.Buckets lists each collection's buckets in
// tuple order, so row-major positions order tuples as compareTuples
// does.
func byUBPos(a, b candidate) int {
	switch {
	case a.ub > b.ub:
		return -1
	case a.ub < b.ub:
		return 1
	}
	return cmp.Compare(a.pos, b.pos)
}

// selectUnion is the final selection of the loose enumeration over the
// union of its shards' selections, each run one shard's picks in
// byUBPos order. It offers the union run by run, each run in its own
// order: which of two equal LBs leaves the cover depends on that order
// (TestPlanPin pins it). The picks of each run keep their run's order,
// so Ω_k,S in byUB order is a merge of the runs' picks, not a sort, and
// only its tuples are built, into one slab.
func selectUnion(lists [][]stats.Bucket, runs [][]candidate, k int) ([]Combo, float64) {
	sel := newSelector(k)
	i := 0
	for _, run := range runs {
		for _, c := range run {
			c.pos = i // the union index, so that kept candidates are in position order
			sel.offer(c)
			i++
		}
	}
	picked, t := sel.pick()
	// Back from union indices, which ascend run by run, to the runs'
	// candidates.
	parts := make([][]candidate, len(runs))
	flat := make([]candidate, len(picked))
	p, start := 0, 0
	for r, run := range runs {
		from := p
		for ; p < len(picked) && picked[p].pos < start+len(run); p++ {
			flat[p] = run[picked[p].pos-start]
		}
		parts[r] = flat[from:p]
		start += len(run)
	}
	merged := mergeRuns(parts)
	n := len(lists)
	slab := make([]stats.Bucket, len(merged)*n)
	out := make([]Combo, len(merged))
	for i, c := range merged {
		bs := slab[i*n : (i+1)*n : (i+1)*n]
		tupleAt(lists, c.pos, bs)
		out[i] = Combo{Buckets: bs, LB: c.lb, UB: c.ub, NbRes: c.nbRes}
	}
	return out, t
}

// mergeRuns merges one or more runs sorted by byUBPos into one sorted
// run, two runs at a time.
func mergeRuns(runs [][]candidate) []candidate {
	for len(runs) > 1 {
		next := make([][]candidate, 0, (len(runs)+1)/2)
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				next = append(next, runs[i])
				continue
			}
			a, b := runs[i], runs[i+1]
			m := make([]candidate, 0, len(a)+len(b))
			for len(a) > 0 && len(b) > 0 {
				if byUBPos(b[0], a[0]) < 0 {
					m, b = append(m, b[0]), b[1:]
				} else {
					m, a = append(m, a[0]), a[1:]
				}
			}
			next = append(next, append(append(m, a...), b...))
		}
		runs = next
	}
	return runs[0]
}

// runBruteForce materializes Ω with tight solver bounds for every
// combination, then selects.
func runBruteForce(q *query.Query, matrices []*stats.Matrix, lists [][]stats.Bucket, k int, opts Options) (*Result, error) {
	res := &Result{TotalCombos: comboCount(lists)}
	if res.TotalCombos > opts.MaxCombos {
		return nil, fmt.Errorf("topbuckets: brute-force over %g combinations exceeds MaxCombos %g (reduce g or use the loose strategy)", res.TotalCombos, opts.MaxCombos)
	}
	var combos []Combo
	enumerate(lists, 0, len(lists[0]), func(_ []int, buckets []stats.Bucket) {
		combos = append(combos, Combo{
			Buckets: append([]stats.Bucket(nil), buckets...),
			NbRes:   nbRes(buckets),
		})
	})
	for _, c := range combos {
		res.TotalResults += c.NbRes
	}
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

// tightOptions is the solver setting of the 2n-variable combination
// optimizations. Tight bounds only drive pruning decisions; 1e-3
// accuracy is ample and keeps branch-and-bound off the flat plateaus of
// equals-based predicates, where 1e-6 convergence costs milliseconds
// per call.
var tightOptions = solver.Options{MaxNodes: 512, Eps: 1e-3}

// TightenBounds recomputes tight solver bounds for every combination in
// place, in parallel, and returns the total branch-and-bound nodes
// opened (the solver-work certificate of the recomputation). It is the
// second phase of the two-phase strategy, the whole of brute-force, and
// the refinement a standing push applies to the grown combinations its
// loose bounds could not prune.
func TightenBounds(q *query.Query, matrices []*stats.Matrix, combos []Combo, opts Options) int {
	opts = opts.withDefaults()
	var wg sync.WaitGroup
	var nodes atomic.Int64
	chunk := (len(combos) + opts.Workers - 1) / opts.Workers
	for w := 0; w < opts.Workers; w++ {
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
				combos[i].LB, combos[i].UB, cert = solver.QueryBoundsCert(q, boxes, tightOptions)
				local += cert.Nodes
			}
			nodes.Add(int64(local))
		}(lo, hi)
	}
	wg.Wait()
	return int(nodes.Load())
}
