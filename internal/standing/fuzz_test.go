package standing

// FuzzStandingDelta drives the full push pipeline with a fuzz-chosen
// append sequence and checks the delta stream both ways: applied in
// order it reproduces the fresh result set exactly, and replayed,
// reordered or tampered-with it must fail TopK.Apply loudly — a client
// can trust that a successfully applied stream IS the server's state.

import (
	"context"
	"testing"

	"tkij/internal/core"
	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/scoring"
)

func FuzzStandingDelta(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x20})
	f.Add([]byte{0x81, 0x42, 0x13, 0xf4, 0x55, 0x26})
	f.Add([]byte{0xff, 0xff, 0x00, 0x01, 0x80, 0x7f, 0x33, 0x99})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 24 {
			return
		}
		const k = 5
		cols := testCols(2, 60, 21)
		e, err := core.NewEngine(cols, core.Options{Granules: 4, K: k, Reducers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.PrepareStats(); err != nil {
			t.Fatal(err)
		}
		q, err := query.New("fuzz2", 2,
			[]query.Edge{{From: 0, To: 1, Pred: scoring.Before(scoring.P1)}}, scoring.Avg{})
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(e)
		defer m.Close()

		sub, err := m.Subscribe(context.Background(), q, k, SubOptions{Buffer: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()

		// Each fuzz byte becomes one appended interval: bits pick the
		// collection, start and length (including spans past the
		// original granulation, widening boundary granules).
		tk := NewTopK(k)
		var stream []Delta
		apply := func(d Delta) {
			if err := tk.Apply(d); err != nil {
				t.Fatalf("apply delta seq %d: %v", d.Seq, err)
			}
			stream = append(stream, d)
		}
		waitFor := func(epoch int64) {
			for tk.Seq == 0 || tk.Epoch < epoch {
				d, ok := <-sub.Deltas()
				if !ok {
					t.Fatalf("channel closed: %v", sub.Err())
				}
				apply(d)
			}
		}
		waitFor(0)
		for i, b := range data {
			col := int(b >> 7)
			start := int64(b&0x7f) * 40 // 0..5080: past the ~3000 span
			iv := interval.Interval{
				ID:    int64(col)*1_000_000 + 500_000 + int64(i),
				Start: start,
				End:   start + 1 + int64(b%37),
			}
			epoch, err := e.Append(col, []interval.Interval{iv})
			if err != nil {
				t.Fatal(err)
			}
			waitFor(epoch)

			want, _ := freshResults(t, e, q, identity(2), k)
			requireSameResults(t, "fuzz", tk.Results, want)
		}

		// The honest stream replays cleanly from scratch.
		replay := NewTopK(k)
		for _, d := range stream {
			if err := replay.Apply(d); err != nil {
				t.Fatalf("honest replay failed at seq %d: %v", d.Seq, err)
			}
		}

		// Replaying any delta twice must error (resyncs by seq
		// non-advance, increments by the seq chain).
		for i, d := range stream {
			dup := NewTopK(k)
			for _, p := range stream[:i+1] {
				if err := dup.Apply(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := dup.Apply(d); err == nil {
				t.Fatalf("replaying delta seq %d twice was accepted", d.Seq)
			}
		}

		// Skipping an incremental delta must error at the gap.
		for i := 1; i < len(stream); i++ {
			if stream[i].Resync {
				continue
			}
			skip := NewTopK(k)
			for _, p := range stream[:i-1] {
				if err := skip.Apply(p); err != nil {
					t.Fatal(err)
				}
			}
			if !stream[i-1].Resync {
				if err := skip.Apply(stream[i]); err == nil {
					t.Fatalf("skipped delta seq %d was accepted", stream[i-1].Seq)
				}
			}
		}

		// A tampered delta must error: corrupt the floor of each
		// incremental delta carrying results.
		for i, d := range stream {
			if d.Resync && len(d.TopK) == 0 {
				continue
			}
			bad := d
			bad.Floor = d.Floor + 0.25
			tam := NewTopK(k)
			for _, p := range stream[:i] {
				if err := tam.Apply(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := tam.Apply(bad); err == nil {
				t.Fatalf("tampered floor on delta seq %d was accepted", d.Seq)
			}
		}
	})
}
