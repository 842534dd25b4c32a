package distribute

import (
	"math/rand"
	"testing"

	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// randCombos builds combinations over a pool of shared buckets so that
// replication effects are visible.
func randCombos(rng *rand.Rand, n, cols, bucketsPerCol int) []topbuckets.Combo {
	pool := make([][]stats.Bucket, cols)
	for c := range pool {
		pool[c] = make([]stats.Bucket, bucketsPerCol)
		for b := range pool[c] {
			pool[c][b] = stats.Bucket{Col: c, StartG: b, EndG: b + rng.Intn(3), Count: 1 + rng.Intn(500)}
		}
	}
	combos := make([]topbuckets.Combo, n)
	for i := range combos {
		bs := make([]stats.Bucket, cols)
		nb := 1.0
		for c := range bs {
			bs[c] = pool[c][rng.Intn(bucketsPerCol)]
			nb *= float64(bs[c].Count)
		}
		ub := rng.Float64()
		combos[i] = topbuckets.Combo{Buckets: bs, UB: ub, LB: ub * rng.Float64(), NbRes: nb}
	}
	return combos
}

func checkAssignmentInvariants(t *testing.T, a *Assignment, combos []topbuckets.Combo) {
	t.Helper()
	if len(a.ComboReducer) != len(combos) {
		t.Fatalf("%s: %d assignments for %d combos", a.Algorithm, len(a.ComboReducer), len(combos))
	}
	// Every combination on exactly one reducer, and that reducer holds
	// every bucket of the combination.
	for ci, rj := range a.ComboReducer {
		if rj < 0 || rj >= a.Reducers {
			t.Fatalf("%s: combo %d on invalid reducer %d", a.Algorithm, ci, rj)
		}
		for _, b := range combos[ci].Buckets {
			found := false
			for _, hr := range a.BucketReducers[b.Key()] {
				if hr == rj {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: combo %d on reducer %d but bucket %v not routed there", a.Algorithm, ci, rj, b.Key())
			}
		}
	}
	// Every reducer's list is in the order it will be processed:
	// descending UB, so early termination may stop at the first
	// dominated combination.
	for rj, idxs := range a.ReducerCombos {
		for i := 1; i < len(idxs); i++ {
			if combos[idxs[i-1]].UB < combos[idxs[i]].UB {
				t.Fatalf("%s: reducer %d lists combo %d (UB %g) before combo %d (UB %g)", a.Algorithm, rj,
					idxs[i-1], combos[idxs[i-1]].UB, idxs[i], combos[idxs[i]].UB)
			}
		}
	}
	// Result loads must sum to the total.
	var want, got float64
	for _, c := range combos {
		want += c.NbRes
	}
	for _, v := range a.ReducerResults {
		got += v
	}
	if want != got {
		t.Fatalf("%s: reducer results sum %g != total %g", a.Algorithm, got, want)
	}
}

func TestAllAlgorithmsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		combos := randCombos(rng, 1+rng.Intn(200), 3, 8)
		r := 1 + rng.Intn(24)
		for _, alg := range []Algorithm{AlgDTB, AlgLPT, AlgRoundRobin} {
			a, err := Assign(alg, combos, r)
			if err != nil {
				t.Fatal(err)
			}
			checkAssignmentInvariants(t, a, combos)
		}
	}
}

func TestDTBSpreadsHighUBCombos(t *testing.T) {
	// With r combos of equal weight, the r highest-UB combos must land
	// on r distinct reducers (round-robin over least-assigned).
	rng := rand.New(rand.NewSource(7))
	combos := randCombos(rng, 24, 2, 12)
	for i := range combos {
		combos[i].NbRes = 100 // uniform weight: cap never binds
	}
	const r = 8
	a, err := DTB(combos, r)
	if err != nil {
		t.Fatal(err)
	}
	order := sortIdx(len(combos), func(i, j int) bool { return combos[i].UB > combos[j].UB })
	seen := make(map[int]bool)
	for _, ci := range order[:r] {
		rj := a.ComboReducer[ci]
		if seen[rj] {
			t.Fatalf("two of the top-%d UB combos share reducer %d", r, rj)
		}
		seen[rj] = true
	}
}

func TestDTBRespectsResultCap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	combos := randCombos(rng, 300, 3, 6)
	const r = 6
	a, err := DTB(combos, r)
	if err != nil {
		t.Fatal(err)
	}
	var total, maxCombo float64
	for _, c := range combos {
		total += c.NbRes
		if c.NbRes > maxCombo {
			maxCombo = c.NbRes
		}
	}
	avg := total / r
	// A reducer is excluded once it reaches 2×avg, so its final load
	// cannot exceed 2×avg plus one further combination.
	for rj, load := range a.ReducerResults {
		if load >= 2*avg+maxCombo {
			t.Errorf("reducer %d load %g exceeds cap 2×avg (%g) + max combo (%g)", rj, load, 2*avg, maxCombo)
		}
	}
}

func TestDTBReplicationTieBreak(t *testing.T) {
	// Two combinations sharing a bucket and equal UB: after the first r
	// assignments fill the least-assigned tie, the sharing combo should
	// land where its bucket already lives.
	shared := stats.Bucket{Col: 0, StartG: 0, EndG: 0, Count: 100}
	b1 := stats.Bucket{Col: 1, StartG: 0, EndG: 0, Count: 10}
	b2 := stats.Bucket{Col: 1, StartG: 1, EndG: 1, Count: 10}
	b3 := stats.Bucket{Col: 0, StartG: 5, EndG: 5, Count: 10}
	b4 := stats.Bucket{Col: 1, StartG: 6, EndG: 6, Count: 10}
	combos := []topbuckets.Combo{
		{Buckets: []stats.Bucket{shared, b1}, UB: 1.0, NbRes: 10},
		{Buckets: []stats.Bucket{b3, b4}, UB: 0.9, NbRes: 10},
		{Buckets: []stats.Bucket{shared, b2}, UB: 0.8, NbRes: 10},
	}
	a, err := DTB(combos, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Combo 0 -> some reducer A, combo 1 -> the other (least assigned),
	// combo 2 ties on combo count (1 each) and must follow the shared
	// bucket to A.
	if a.ComboReducer[2] != a.ComboReducer[0] {
		t.Errorf("sharing combo on reducer %d, shared bucket on %d", a.ComboReducer[2], a.ComboReducer[0])
	}
	// The shared bucket must be shipped once, not twice.
	if got := len(a.BucketReducers[shared.Key()]); got != 1 {
		t.Errorf("shared bucket on %d reducers, want 1", got)
	}
}

func TestLPTBalancesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	combos := randCombos(rng, 500, 2, 10)
	const r = 10
	a, err := LPT(combos, r)
	if err != nil {
		t.Fatal(err)
	}
	// LPT guarantees makespan <= (4/3 - 1/3r)·OPT for identical
	// machines; a loose sanity check: imbalance stays modest.
	if imb := a.ResultImbalance(); imb > 1.5 {
		t.Errorf("LPT imbalance = %g, want <= 1.5 on 500 random combos", imb)
	}
}

// DTB's replication-aware tie-break should not ship more records than
// LPT on average (the paper reports LPT shuffling 43% more).
func TestDTBReplicationNotWorseThanLPTOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var dtbTotal, lptTotal float64
	for trial := 0; trial < 25; trial++ {
		combos := randCombos(rng, 200, 3, 5)
		dtb, err := DTB(combos, 12)
		if err != nil {
			t.Fatal(err)
		}
		lpt, err := LPT(combos, 12)
		if err != nil {
			t.Fatal(err)
		}
		dtbTotal += dtb.ReplicatedRecords
		lptTotal += lpt.ReplicatedRecords
	}
	if dtbTotal > lptTotal {
		t.Errorf("DTB shipped %g records vs LPT %g; expected DTB <= LPT on average", dtbTotal, lptTotal)
	}
}

func TestErrors(t *testing.T) {
	combos := []topbuckets.Combo{{NbRes: 1}}
	if _, err := DTB(combos, 0); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := DTB(nil, 4); err == nil {
		t.Error("empty combos accepted")
	}
	if _, err := Assign(Algorithm(9), combos, 2); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgDTB.String() != "DTB" || AlgLPT.String() != "LPT" || AlgRoundRobin.String() != "RoundRobin" {
		t.Error("algorithm names wrong")
	}
}

func TestSingleReducer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	combos := randCombos(rng, 50, 2, 4)
	for _, alg := range []Algorithm{AlgDTB, AlgLPT, AlgRoundRobin} {
		a, err := Assign(alg, combos, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, rj := range a.ComboReducer {
			if rj != 0 {
				t.Fatalf("%s: combo on reducer %d with r=1", a.Algorithm, rj)
			}
		}
	}
}
