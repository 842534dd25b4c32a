package standing

// Regression for the join.Runner seam: a standing subscription on a
// sharded engine re-probes through shard.Cluster — DTB tasks scatter to
// worker replicas over the wire protocol, with or without floor
// broadcast — and must emit byte-identical deltas to the same
// subscription served by the local in-process runner over the same
// appends. Any divergence means ProbePinned's combination list or floor
// seeding behaves differently through the cluster seam.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tkij/internal/core"
	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/scoring"
)

func cloneCols(cols []*interval.Collection) []*interval.Collection {
	out := make([]*interval.Collection, len(cols))
	for i, c := range cols {
		out[i] = &interval.Collection{Name: c.Name, Items: slices.Clone(c.Items)}
	}
	return out
}

func TestStandingShardedDeltasMatchLocal(t *testing.T) {
	base := testCols(3, 250, 51)
	const k = 8
	mkOpts := func(shards int, noFloor bool) core.Options {
		return core.Options{
			Granules: 6, K: k, Reducers: 3,
			Shards:                shards,
			ShardNoFloorBroadcast: noFloor,
		}
	}
	variants := []struct {
		label string
		opts  core.Options
	}{
		{"local", mkOpts(0, false)},
		{"shards=2", mkOpts(2, false)},
		{"shards=3", mkOpts(3, false)},
		{"shards=2/no-floor-broadcast", mkOpts(2, true)},
	}
	q := query.Qbb(query.Env{Params: scoring.P1})

	type leg struct {
		label  string
		e      *core.Engine
		m      *Manager
		sub    *Subscription
		deltas []Delta
		tk     *TopK
	}
	legs := make([]*leg, len(variants))
	for i, v := range variants {
		e := newTestEngine(t, cloneCols(base), v.opts)
		m := NewManager(e)
		t.Cleanup(m.Close)
		sub, err := m.Subscribe(context.Background(), q, k, SubOptions{Buffer: 64})
		if err != nil {
			t.Fatalf("%s: %v", v.label, err)
		}
		t.Cleanup(sub.Close)
		legs[i] = &leg{label: v.label, e: e, m: m, sub: sub, tk: NewTopK(k)}
	}

	drain := func(l *leg, epoch int64) {
		t.Helper()
		for l.tk.Seq == 0 || l.tk.Epoch < epoch {
			d, ok := <-l.sub.Deltas()
			if !ok {
				t.Fatalf("%s: channel closed: %v", l.label, l.sub.Err())
			}
			if err := l.tk.Apply(d); err != nil {
				t.Fatalf("%s: apply seq %d: %v", l.label, d.Seq, err)
			}
			l.deltas = append(l.deltas, d)
		}
	}
	compare := func(stage string) {
		t.Helper()
		ref := legs[0]
		for _, l := range legs[1:] {
			if !reflect.DeepEqual(l.tk.Results, ref.tk.Results) {
				t.Fatalf("%s: %s materialized top-%d diverges from local\n got: %v\nwant: %v",
					stage, l.label, k, l.tk.Results, ref.tk.Results)
			}
			if !reflect.DeepEqual(l.deltas, ref.deltas) {
				t.Fatalf("%s: %s delta stream diverges from local\n got: %v\nwant: %v",
					stage, l.label, l.deltas, ref.deltas)
			}
		}
	}

	for _, l := range legs {
		drain(l, 0)
	}
	compare("initial")

	rng := rand.New(rand.NewSource(52))
	var counter int64
	for a := 0; a < 6; a++ {
		col := a % 3
		batch := randBatch(rng, col, 4, &counter)
		var epoch int64
		for _, l := range legs {
			ep, err := l.e.Append(col, slices.Clone(batch))
			if err != nil {
				t.Fatalf("%s: %v", l.label, err)
			}
			epoch = ep
		}
		for _, l := range legs {
			drain(l, epoch)
		}
		compare(fmt.Sprintf("append=%d", a))
	}

	// The sharded legs must actually have probed incrementally — a
	// silent fall-back to resync would vacuously pass the comparison.
	for _, l := range legs {
		if st := l.m.Stats(); st.Pushes == 0 {
			t.Fatalf("%s: no incremental pushes recorded: %+v", l.label, st)
		}
	}
}
