package standing

// Regression for the join.Runner seam: a standing subscription on a
// sharded engine pushes through shard.Cluster — DTB tasks scatter to
// worker replicas over the wire protocol, with or without floor
// broadcast. Every leg's materialized top-k equals a fresh execute on
// its own engine byte for byte. Every cluster at one reducer count runs
// the same assignment, so all of them must emit byte-identical deltas
// over the same appends, and materialize the scores the same
// subscription on a local engine (one serial pass, which may pick other
// tuples among ties) does.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tkij/internal/core"
	"tkij/internal/interval"
	"tkij/internal/join"
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
	mkOpts := func(shards int) core.Options {
		return core.Options{Granules: 6, K: k, Reducers: 3, Shards: shards}
	}
	variants := []struct {
		label string
		opts  core.Options
	}{
		{"local", mkOpts(0)},
		{"shards=2", mkOpts(2)},
		{"shards=3", mkOpts(3)},
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
		for _, l := range legs {
			want, _ := freshResults(t, l.e, q, identity(3), k)
			requireSameResults(t, fmt.Sprintf("%s: %s", stage, l.label), l.tk.Results, want)
		}
		local, ref := legs[0], legs[1]
		if !join.ScoreMultisetEqual(ref.tk.Results, local.tk.Results, 1e-9) {
			t.Fatalf("%s: %s materialized top-%d scores diverge from local\n got: %v\nwant: %v",
				stage, ref.label, k, ref.tk.Results, local.tk.Results)
		}
		for _, l := range legs[2:] {
			if !reflect.DeepEqual(l.tk.Results, ref.tk.Results) {
				t.Fatalf("%s: %s materialized top-%d diverges from %s\n got: %v\nwant: %v",
					stage, l.label, k, ref.label, l.tk.Results, ref.tk.Results)
			}
			if !reflect.DeepEqual(l.deltas, ref.deltas) {
				t.Fatalf("%s: %s delta stream diverges from %s\n got: %v\nwant: %v",
					stage, l.label, ref.label, l.deltas, ref.deltas)
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

	// Every leg must actually have pushed — a silent fall-back to
	// resync would vacuously pass the comparison.
	for _, l := range legs {
		if st := l.m.Stats(); st.Pushes == 0 {
			t.Fatalf("%s: no pushes recorded: %+v", l.label, st)
		}
	}
}
