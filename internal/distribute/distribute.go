package distribute

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"tkij/internal/join"
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// Assignment is the result of a distribution algorithm.
type Assignment struct {
	// Algorithm names the producing algorithm ("DTB", "LPT", ...).
	Algorithm string
	// Reducers is the number of reduce partitions r.
	Reducers int
	// ComboReducer maps each combination (by index into the input slice)
	// to its reducer.
	ComboReducer []int
	// ReducerCombos lists, per reducer, the combination indexes it was
	// assigned, by descending UB with ties in assignment order — the
	// order a reducer processes them in (§3.4), so that it can stop at
	// the first combination its threshold dominates.
	ReducerCombos [][]int
	// BucketReducers maps each distinct bucket to the sorted set of
	// reducers that need a copy of its intervals. This drives the join
	// phase's map-side routing.
	BucketReducers map[stats.BucketKey][]int
	// ReducerResults is the candidate-result load per reducer
	// (Σ ω.nbRes over its combinations).
	ReducerResults []float64
	// ReplicatedRecords is the total number of interval records shipped
	// in the shuffle: Σ over buckets of |b| × (number of reducers
	// holding b). This is the I/O cost DTB's tie-breaking minimizes.
	ReplicatedRecords float64
}

// ResultImbalance returns max/avg of ReducerResults, the average taken
// over all Reducers, idle ones included — the worst-case output
// imbalance the assignment allows.
func (a *Assignment) ResultImbalance() float64 {
	var max, sum float64
	n := 0
	for _, v := range a.ReducerResults {
		if v > max {
			max = v
		}
		sum += v
		n++
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(n))
}

// Tasks lists the assignment's reducers that received at least one
// combination, ascending, as join tasks (each list by descending UB). A
// reducer with nothing assigned is never run.
func (a *Assignment) Tasks() []join.ReducerTask {
	tasks := make([]join.ReducerTask, 0, len(a.ReducerCombos))
	for rj, idxs := range a.ReducerCombos {
		if len(idxs) > 0 {
			tasks = append(tasks, join.ReducerTask{Reducer: rj, Combos: idxs})
		}
	}
	return tasks
}

// Gather is a runner's accounting of a run of the assignment's Tasks:
// outs (any order) placed by reducer, an index-only entry for each idle
// reducer, and each reducer credited one reference per bucket its
// combinations touch, weighted by the bucket's size in srcs (by vertex).
func (a *Assignment) Gather(outs []join.ReducerOutput, srcs []join.Source) *join.RunnerOutput {
	out := &join.RunnerOutput{Reducers: make([]join.ReducerOutput, a.Reducers)}
	for rj := range out.Reducers {
		out.Reducers[rj] = join.ReducerOutput{Reducer: rj, Stats: join.LocalStats{Reducer: rj}}
	}
	for _, ro := range outs {
		out.Reducers[ro.Reducer] = ro
	}
	weights := make([]int, a.Reducers)
	for key, reducers := range a.BucketReducers {
		n := len(join.ItemsOf(srcs[key.Col], key.StartG, key.EndG))
		for _, rj := range reducers {
			out.Reducers[rj].Stats.BucketRefsRouted++
			weights[rj] += n
		}
	}
	for rj, w := range weights {
		out.Reducers[rj].Stats.RoutedIntervals = float64(w)
	}
	return out
}

// RunReducers makes the assignment a join.Runner that runs its Tasks
// side by side in this process, each on a goroutine of its own
// (join.RunTasks over the drained req.Plan, the list the assignment
// split): the paper's r reducers as the figure drivers
// simulate them, and the reference a shard cluster scattering the same
// assignment must reproduce.
func (a *Assignment) RunReducers(ctx context.Context, req *join.ReduceRequest) (*join.RunnerOutput, error) {
	outs, err := join.RunTasks(ctx, req, req.Plan.Drain(), a.Tasks())
	if err != nil {
		return nil, err
	}
	return a.Gather(outs, req.Srcs), nil
}

// assignmentState tracks per-reducer load during construction. Buckets
// are numbered densely once per assignment, so the replication
// bookkeeping is a flat table rather than a map per bucket.
type assignmentState struct {
	a          *Assignment
	comboCount []int // |Ω_rj|
	// ids[ci][v] is the dense number of combos[ci].Buckets[v]; keys maps
	// a number back to its bucket.
	ids  [][]int32
	keys []stats.BucketKey
	// on[id*Reducers+rj] reports that reducer rj holds bucket id.
	on []bool
}

func newState(algorithm string, combos []topbuckets.Combo, r int) *assignmentState {
	s := &assignmentState{
		a: &Assignment{
			Algorithm:      algorithm,
			Reducers:       r,
			ComboReducer:   make([]int, len(combos)),
			ReducerCombos:  make([][]int, r),
			BucketReducers: make(map[stats.BucketKey][]int),
			ReducerResults: make([]float64, r),
		},
		comboCount: make([]int, r),
		ids:        make([][]int32, len(combos)),
	}
	n := 0
	for _, c := range combos {
		n += len(c.Buckets)
	}
	flat := make([]int32, n)
	number := make(map[stats.BucketKey]int32)
	for ci, c := range combos {
		ids := flat[:len(c.Buckets):len(c.Buckets)]
		flat = flat[len(c.Buckets):]
		for v, b := range c.Buckets {
			key := b.Key()
			id, ok := number[key]
			if !ok {
				id = int32(len(s.keys))
				number[key] = id
				s.keys = append(s.keys, key)
			}
			ids[v] = id
		}
		s.ids[ci] = ids
	}
	s.on = make([]bool, len(s.keys)*r)
	return s
}

// assign records combination ci (with the given buckets and result
// count) on reducer rj, updating replication bookkeeping.
func (s *assignmentState) assign(ci int, c topbuckets.Combo, rj int) {
	s.a.ComboReducer[ci] = rj
	s.a.ReducerCombos[rj] = append(s.a.ReducerCombos[rj], ci)
	s.a.ReducerResults[rj] += c.NbRes
	s.comboCount[rj]++
	for v, id := range s.ids[ci] {
		if at := int(id)*s.a.Reducers + rj; !s.on[at] {
			s.on[at] = true
			s.a.ReplicatedRecords += float64(c.Buckets[v].Count)
		}
	}
}

// finalize puts every reducer's list in descending-UB order (stable, so
// ties keep the assignment order; DTB and RoundRobin assign in that
// order already, LPT does not) and freezes the bucket→reducer sets in
// sorted order.
func (s *assignmentState) finalize(combos []topbuckets.Combo) *Assignment {
	byUB := func(a, b int) int { return cmp.Compare(combos[b].UB, combos[a].UB) }
	for _, idxs := range s.a.ReducerCombos {
		slices.SortStableFunc(idxs, byUB)
	}
	r := s.a.Reducers
	for id, key := range s.keys {
		var rs []int
		for rj, on := range s.on[id*r : (id+1)*r] {
			if on {
				rs = append(rs, rj)
			}
		}
		s.a.BucketReducers[key] = rs
	}
	return s.a
}

// inCost returns the input cost that assigning ω to rj would *add*: the
// total cardinality of ω's buckets not yet present on rj.
//
// Note on fidelity: Algorithm 4 as printed defines inCost with
// Φ(rj, b) = 1 when b is already on rj and then minimizes it, which
// contradicts the accompanying prose ("selects the reducer that was
// already assigned the largest fraction of current ω ... favors
// assignments that reduce replication cost"). We follow the prose:
// minimize the *newly shipped* records, which is equivalent to
// maximizing the already-present fraction.
func (s *assignmentState) inCost(ci int, c topbuckets.Combo, rj int) float64 {
	var cost float64
	for v, id := range s.ids[ci] {
		if !s.on[int(id)*s.a.Reducers+rj] {
			cost += float64(c.Buckets[v].Count)
		}
	}
	return cost
}

// sortIdx returns combination indexes ordered by less with a
// deterministic tie-break on the input order. Input already in order —
// DTB's and RoundRobin's usual case, Ω_k,S arriving by descending UB —
// is returned as is: a stable sort of it is the identity.
func sortIdx(n int, less func(i, j int) bool) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		if less(i, i-1) {
			sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
			break
		}
	}
	return idx
}

// DTB implements DistributeTopBuckets (Algorithm 3). Combinations are
// processed in descending UB order; each goes to the reducer chosen by
// getReducer (Algorithm 4).
func DTB(combos []topbuckets.Combo, r int) (*Assignment, error) {
	if err := checkArgs(combos, r); err != nil {
		return nil, err
	}
	s := newState("DTB", combos, r)
	var totalRes float64
	for _, c := range combos {
		totalRes += c.NbRes
	}
	avgRes := totalRes / float64(r)
	order := sortIdx(len(combos), func(i, j int) bool { return combos[i].UB > combos[j].UB })
	for _, ci := range order {
		rj := s.getReducer(ci, combos[ci], avgRes)
		s.assign(ci, combos[ci], rj)
	}
	return s.finalize(combos), nil
}

// getReducer implements Algorithm 4: among reducers under the 2×avgRes
// result cap, restrict to those with the fewest assigned combinations,
// then pick the one with the lowest added input cost.
func (s *assignmentState) getReducer(ci int, c topbuckets.Combo, avgRes float64) int {
	r := s.a.Reducers
	underCap := func(rj int) bool { return s.a.ReducerResults[rj] < 2*avgRes }
	// If every reducer is over the cap (degenerate: one combination
	// dwarfs the average), fall back to considering all of them.
	anyUnder := false
	for rj := 0; rj < r; rj++ {
		if underCap(rj) {
			anyUnder = true
			break
		}
	}
	eligible := func(rj int) bool { return !anyUnder || underCap(rj) }

	minAssigned := int(^uint(0) >> 1)
	for rj := 0; rj < r; rj++ {
		if eligible(rj) && s.comboCount[rj] < minAssigned {
			minAssigned = s.comboCount[rj]
		}
	}
	best, bestCost := -1, 0.0
	for rj := 0; rj < r; rj++ {
		if !eligible(rj) || s.comboCount[rj] != minAssigned {
			continue
		}
		cost := s.inCost(ci, c, rj)
		if best == -1 || cost < bestCost {
			best, bestCost = rj, cost
		}
	}
	return best
}

// LPT is the baseline of §4.2.2: combinations in descending result-count
// order, each to the least result-loaded reducer. Scores are ignored.
func LPT(combos []topbuckets.Combo, r int) (*Assignment, error) {
	if err := checkArgs(combos, r); err != nil {
		return nil, err
	}
	s := newState("LPT", combos, r)
	order := sortIdx(len(combos), func(i, j int) bool { return combos[i].NbRes > combos[j].NbRes })
	for _, ci := range order {
		best := 0
		for rj := 1; rj < r; rj++ {
			if s.a.ReducerResults[rj] < s.a.ReducerResults[best] {
				best = rj
			}
		}
		s.assign(ci, combos[ci], best)
	}
	return s.finalize(combos), nil
}

// RoundRobin is an ablation: descending-UB order, reducer i%r. It shares
// DTB's score-awareness but ignores both balance and replication.
func RoundRobin(combos []topbuckets.Combo, r int) (*Assignment, error) {
	if err := checkArgs(combos, r); err != nil {
		return nil, err
	}
	s := newState("RoundRobin", combos, r)
	order := sortIdx(len(combos), func(i, j int) bool { return combos[i].UB > combos[j].UB })
	for pos, ci := range order {
		s.assign(ci, combos[ci], pos%r)
	}
	return s.finalize(combos), nil
}

func checkArgs(combos []topbuckets.Combo, r int) error {
	if r < 1 {
		return fmt.Errorf("distribute: need at least 1 reducer, got %d", r)
	}
	if len(combos) == 0 {
		return fmt.Errorf("distribute: no combinations to assign")
	}
	return nil
}

// Algorithm selects a distribution algorithm by name.
type Algorithm int

// The available distribution algorithms.
const (
	AlgDTB Algorithm = iota
	AlgLPT
	AlgRoundRobin
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgDTB:
		return "DTB"
	case AlgLPT:
		return "LPT"
	case AlgRoundRobin:
		return "RoundRobin"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Assign runs the selected algorithm.
func Assign(alg Algorithm, combos []topbuckets.Combo, r int) (*Assignment, error) {
	switch alg {
	case AlgDTB:
		return DTB(combos, r)
	case AlgLPT:
		return LPT(combos, r)
	case AlgRoundRobin:
		return RoundRobin(combos, r)
	}
	return nil, fmt.Errorf("distribute: unknown algorithm %d", int(alg))
}
