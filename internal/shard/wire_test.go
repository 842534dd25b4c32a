package shard

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
	"tkij/internal/store"
	"tkij/internal/topbuckets"
)

func mustGran(t testing.TB, min, max int64, g int) stats.Granulation {
	t.Helper()
	gran, err := stats.NewGranulation(interval.Timestamp(min), interval.Timestamp(max), g)
	if err != nil {
		t.Fatal(err)
	}
	return gran
}

// sampleFrames builds one well-formed frame of every kind — the
// round-trip corpus and the fuzz seeds.
func sampleFrames(t testing.TB) []Frame {
	t.Helper()
	gran := mustGran(t, 0, 120, 6)
	env := query.Env{Params: scoring.P1, Avg: 40}
	q := query.Qbb(env)
	ivs := []interval.Interval{{ID: 1, Start: 3, End: 17}, {ID: 2, Start: 14, End: 30}}
	return []Frame{
		&LoadFrame{ShardID: 1, Shards: 3, Cols: []store.PartitionCol{
			{Col: 0, Gran: gran, Buckets: []store.BucketSlice{{StartG: 0, EndG: 0, Items: ivs[:1]}}},
			{Col: 1, Gran: gran, Buckets: []store.BucketSlice{}},
		}},
		&AppendFrame{Epoch: 4, Col: 1, Items: ivs},
		&QueryFrame{
			QueryID: 9, Epoch: 4, K: 5, Floor: 0.25,
			DisableIndex: true, NoFloorUplink: true,
			Query:   q,
			Mapping: []int{0, 1, 0},
			Grids: []stats.Grid{
				{Gran: gran, Lo: 0, Hi: 5},
				{Gran: gran, Lo: 1, Hi: 4},
				{Gran: gran, Lo: 0, Hi: 5},
			},
			Combos: []topbuckets.Combo{{
				Buckets: []stats.Bucket{
					{Col: 0, StartG: 0, EndG: 0, Count: 1},
					{Col: 1, StartG: 0, EndG: 1, Count: 2},
					{Col: 0, StartG: 0, EndG: 0, Count: 1},
				},
				LB: 0.25, UB: 0.75, NbRes: 2,
			}},
			Tasks:   []join.ReducerTask{{Reducer: 2, Combos: []int{0}}},
			Shipped: []ShippedBucket{{Col: 1, StartG: 0, EndG: 1, Items: ivs}},
		},
		&FloorFrame{QueryID: 9, Floor: 0.625},
		&ResultFrame{QueryID: 9, Epoch: 4, Reducers: []join.ReducerOutput{{
			Reducer: 2,
			Stats: join.LocalStats{
				Reducer: 2, CombosAssigned: 1, CombosProcessed: 1, CombosSkipped: 0,
				TuplesExamined: 12, PartialsPruned: 3, ResultsReturned: 1,
				ProbeRounds: 1, FloorUsed: 0.25, MinScore: 0.5,
				BucketRefsRouted: 2, RoutedIntervals: 3,
				SharedFloorFinal: 0.625, BoundSolves: 4, BoundReuses: 7,
				Duration: 42 * time.Microsecond,
			},
			Results: []join.Result{{
				Tuple: []interval.Interval{{ID: 1, Start: 3, End: 17}, {ID: 2, Start: 14, End: 30}, {ID: 1, Start: 3, End: 17}},
				Score: 0.5,
			}},
		}}},
		&ErrorFrame{QueryID: 9, Code: CodeExec, Msg: "reducer 2: boom"},
	}
}

// shortComboFrame encodes the sample query frame with its combination
// one bucket narrower than the query's vertex count — every length
// prefix is honest, only the cross-field relation is broken.
func shortComboFrame(t testing.TB) []byte {
	t.Helper()
	for _, f := range sampleFrames(t) {
		if qf, ok := f.(*QueryFrame); ok {
			c := &qf.Combos[0]
			c.Buckets = c.Buckets[:qf.Query.NumVertices-1]
			b, err := EncodeFrame(qf)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	t.Fatal("sampleFrames holds no query frame")
	return nil
}

// unsortedTaskFrame encodes the sample query frame with a second,
// higher-UB combination appended and its task listing the two in
// ascending-UB order — every index is in range, only the order the
// reducers' early termination relies on is broken.
func unsortedTaskFrame(t testing.TB) []byte {
	t.Helper()
	for _, f := range sampleFrames(t) {
		if qf, ok := f.(*QueryFrame); ok {
			hot := qf.Combos[0]
			hot.UB = 0.9
			qf.Combos = append(qf.Combos, hot)
			qf.Tasks[0].Combos = []int{0, 1}
			b, err := EncodeFrame(qf)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	t.Fatal("sampleFrames holds no query frame")
	return nil
}

// Every frame kind survives encode→decode→re-encode with byte identity
// and structural equality.
func TestWireRoundTrip(t *testing.T) {
	for _, f := range sampleFrames(t) {
		b, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("%T: encode: %v", f, err)
		}
		g, n, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("%T: decode: %v", f, err)
		}
		if n != len(b) {
			t.Fatalf("%T: decode consumed %d of %d bytes", f, n, len(b))
		}
		if qf, ok := f.(*QueryFrame); ok {
			// query.New rebuilds the predicate closures, so compare the
			// query by its encodable surface and the rest structurally.
			gq := g.(*QueryFrame)
			if gq.Query.Name != qf.Query.Name || gq.Query.NumVertices != qf.Query.NumVertices ||
				len(gq.Query.Edges) != len(qf.Query.Edges) {
				t.Fatalf("QueryFrame: query mismatch after decode")
			}
			qf2, gq2 := *qf, *gq
			qf2.Query, gq2.Query = nil, nil
			if !reflect.DeepEqual(&gq2, &qf2) {
				t.Fatalf("QueryFrame: decode mismatch\n got %+v\nwant %+v", gq2, qf2)
			}
		} else if !reflect.DeepEqual(g, f) {
			t.Fatalf("%T: decode mismatch\n got %+v\nwant %+v", f, g, f)
		}
		b2, err := EncodeFrame(g)
		if err != nil {
			t.Fatalf("%T: re-encode: %v", f, err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("%T: re-encode is not byte-identical", f)
		}
	}
}

// ReadFrame distinguishes a clean close (io.EOF between frames) from a
// torn frame (header or payload cut short).
func TestReadFrameTruncation(t *testing.T) {
	f := &FloorFrame{QueryID: 3, Floor: 0.5}
	b, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
	for cut := 1; cut < len(b); cut++ {
		_, err := ReadFrame(bytes.NewReader(b[:cut]))
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("cut at %d: got %v, want ErrProtocol", cut, err)
		}
	}
	g, err := ReadFrame(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, f) {
		t.Fatalf("full read mismatch: %+v", g)
	}
}

// Malformed payloads decode to errors, never to frames.
func TestDecodeRejects(t *testing.T) {
	floor, err := EncodeFrame(&FloorFrame{QueryID: 1, Floor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"unknown kind":     interval.AppendU64(interval.AppendU64(nil, 16), 99),
		"oversized length": interval.AppendU64(nil, MaxFrameSize+1),
		"declared length exceeds payload": func() []byte {
			b := append([]byte(nil), floor...)
			interval.PutU64(b, uint64(len(b))+8)
			return b
		}(),
		"trailing bytes": func() []byte {
			b := append(append([]byte(nil), floor...), 0xEE)
			interval.PutU64(b, uint64(len(b)))
			return b
		}(),
		"non-binary bool": func() []byte {
			b, _ := EncodeFrame(&QueryFrame{})
			return b
		}(),
		"bad error code": func() []byte {
			b, _ := EncodeFrame(&ErrorFrame{QueryID: 1, Code: 7, Msg: "x"})
			return b
		}(),
		"combo narrower than its query":   shortComboFrame(t),
		"task not in descending-UB order": unsortedTaskFrame(t),
	}
	for name, b := range cases {
		if b == nil {
			continue
		}
		if _, _, err := DecodeFrame(b); !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s: decode returned %v, want ErrProtocol", name, err)
		}
	}
}

// FuzzShardWire is the protocol robustness gate: arbitrary bytes must
// never panic the decoder, and anything that does decode must re-encode
// byte-identically (the strict-codec invariant the coordinator and
// worker both rely on when they cross-check frames).
func FuzzShardWire(f *testing.F) {
	for _, fr := range sampleFrames(f) {
		b, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add(interval.AppendU64(nil, 16))
	f.Add(shortComboFrame(f))
	f.Add(unsortedTaskFrame(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("decode error outside the protocol taxonomy: %v", err)
			}
			return
		}
		if n < 16 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		b, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(b, data[:n]) {
			t.Fatalf("re-encode not byte-identical:\n in  %x\n out %x", data[:n], b)
		}
	})
}
