package main

import (
	"fmt"
	"math/rand"

	"tkij"
)

// The generator is the only consumer of -seed, and the engine is handed
// what it makes and nothing else.
//
// The seed draws the order of the traffic: the order of the shapes and
// the sequence of plan-key variants. Seed 1 is the default; seed 2 is the
// held-out seed a later claim must also hold on.
//
// The data — the three base collections and the ingest batches — is one
// constant draw, dataDraw, whatever the seed. The engine's cost is
// chaotic in the data: a reducer stops once its top-k is full of
// perfect-score tuples, and how soon that happens depends on which
// buckets it meets first. At this benchmark's sizes QjB,jB takes 52 to
// 142 ms and Qo,m 9 to 67 ms across six draws of the same distribution,
// and push_p50_ms runs from 80 to 100 ms over six draws of the batches
// alone (README, "Seed discipline"). The driver measures each metric's
// spread over ten seeds against its bound, so a seed that redrew the data
// would have to be bounded by the gap between datasets, not by the noise
// of one.

// dataDraw is the draw of the data. Among the draws 1 to 6 it has a warm
// mix in which no shape costs more than about three times another, so
// that throughput answers to all three shapes; on draws 1 and 2 QjB,jB
// costs five to six times Qo,m.
const dataDraw = 4

// timeMax is the synthetic time range [0, timeMax] of tkij.Uniform.
const timeMax = 100000

// variants is the number of distinct predicate-parameter variants per
// shape. A variant changes every tolerance ρ by a thousandth per step,
// which changes the plan key (the predicate signature is part of it) and
// leaves the work of planning and joining the same. Server.Submit takes
// no k — k is an engine option — so the plan-miss workload varies ρ
// where the issue text suggested varying k.
const variants = 128

// batch is one Append call's input.
type batch struct {
	col int
	ivs []tkij.Interval
}

// standing is one standing subscription's registration.
type standing struct {
	name    string
	q       *tkij.Query
	mapping []int // nil = identity
}

type inputs struct {
	cols    []*tkij.Collection
	batches []batch
	// queries[shape] holds the shape's variants; variant 0 is Table 2's P1.
	queries map[string][]*tkij.Query
	// order is the seed-fixed cyclic sequence of variants 1..variants-1
	// the plan-miss workload walks.
	order []int
	// blocks is the seed-fixed order of the shapes: each block is one
	// permutation of the mix, so the shares stay equal while no fixed
	// cycle lets two closed-loop clients lock into one pairing.
	blocks [][]int
	subs   []standing
}

// scriptBlocks is the number of shape permutations before the order of
// the shapes repeats.
const scriptBlocks = 64

// generate makes every input of one run.
func generate(seed int64, n, nBatches, batchSize int, shapes []string) (*inputs, error) {
	in := &inputs{queries: make(map[string][]*tkij.Query)}
	for i := 0; i < 3; i++ {
		in.cols = append(in.cols, tkij.Uniform(fmt.Sprintf("C%d", i+1), n, dataDraw*7919+int64(i)))
	}
	avg := tkij.AvgLength(in.cols...)

	all := append([]string{"Qo,m", "Qo,o", "Qs,s", "Qf,f"}, shapes...)
	for _, name := range all {
		if in.queries[name] != nil {
			continue
		}
		for v := 0; v < variants; v++ {
			pp := tkij.P1
			pp.Equals.Rho += 0.001 * float64(v)
			pp.Greater.Rho += 0.001 * float64(v)
			q, err := tkij.QueryByName(name, tkij.QueryEnv{Params: pp, Avg: avg})
			if err != nil {
				return nil, err
			}
			in.queries[name] = append(in.queries[name], q)
		}
	}

	rng := rand.New(rand.NewSource(seed*104729 + 17))
	in.order = rng.Perm(variants - 1)
	for i := range in.order {
		in.order[i]++
	}
	for i := 0; i < scriptBlocks; i++ {
		in.blocks = append(in.blocks, rng.Perm(len(shapes)))
	}

	// Ingest batches, part of the data: starts in the most recent tenth
	// of the time range (recent-time locality; two granules, so that no
	// one bucket takes every append and push cost climbs little through a
	// phase), and every eighth batch carries a few intervals past the
	// range's end, which widens the last granule.
	rng = rand.New(rand.NewSource(dataDraw*15485863 + 29))
	next := []int64{int64(n), int64(n), int64(n)}
	for b := 0; b < nBatches; b++ {
		col := b % 3
		ivs := make([]tkij.Interval, 0, batchSize)
		for j := 0; j < batchSize; j++ {
			s := timeMax - timeMax/10 + rng.Int63n(timeMax/10+1)
			if b%8 == 7 && j < 4 {
				s = timeMax + 100 + int64(b)*10 + rng.Int63n(100)
			}
			ivs = append(ivs, tkij.Interval{ID: next[col], Start: s, End: s + 1 + rng.Int63n(100)})
			next[col]++
		}
		in.batches = append(in.batches, batch{col: col, ivs: ivs})
	}

	// Four standing subscriptions: Qo,o, a relabelling of it that reads
	// the same collections through a mapping and so shares its plan key,
	// and two other shapes. None is a query of a serving mix at variant 0:
	// a push cycle carries the subscription's cached plan to the new
	// epoch, and a one-shot query of the same key would find it there and
	// never revalidate.
	oo := in.queries["Qo,o"][0]
	iso, err := tkij.NewQuery("Qo,o-relabelled", 3, []tkij.Edge{
		{From: 2, To: 1, Pred: oo.Edges[0].Pred},
		{From: 1, To: 0, Pred: oo.Edges[1].Pred},
	}, tkij.Avg{})
	if err != nil {
		return nil, err
	}
	in.subs = []standing{
		{name: "Qo,o", q: oo},
		{name: "Qo,o-relabelled", q: iso, mapping: []int{2, 1, 0}},
		{name: "Qs,s", q: in.queries["Qs,s"][0]},
		{name: "Qf,f", q: in.queries["Qf,f"][0]},
	}
	return in, nil
}
