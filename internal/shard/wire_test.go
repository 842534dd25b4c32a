package shard

import (
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
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
		&LoadFrame{ShardID: 1, Shards: 3, Cols: []store.MappedCol{
			{Col: 0, Gran: gran, Buckets: []store.MappedBucket{{StartG: 0, EndG: 0, Items: ivs[:1]}}},
			{Col: 1, Gran: gran, Buckets: []store.MappedBucket{}},
		}},
		&AppendFrame{Epoch: 4, Col: 1, Items: ivs},
		&QueryFrame{
			QueryID: 9, Epoch: 4, K: 5, Floor: 0.25,
			Query:   q,
			Mapping: []int{0, 1, 0},
			Combos: []topbuckets.Combo{{
				Buckets: []stats.Bucket{
					{Col: 0, StartG: 0, EndG: 0, Count: 1},
					{Col: 1, StartG: 0, EndG: 1, Count: 2},
					{Col: 0, StartG: 0, EndG: 0, Count: 1},
				},
				UB: 0.75, EdgeUB: []float64{1, 0.5},
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
				SharedFloorFinal: 0.625, Duration: 42 * time.Microsecond,
			},
			Results: []join.Result{{
				Tuple: []interval.Interval{{ID: 1, Start: 3, End: 17}, {ID: 2, Start: 14, End: 30}, {ID: 1, Start: 3, End: 17}},
				Score: 0.5,
			}},
		}}},
		&ErrorFrame{QueryID: 9, Code: CodeExec, Msg: "reducer 2: boom"},
	}
}

// sampleQuery returns sampleFrames' query frame.
func sampleQuery(t testing.TB) *QueryFrame {
	t.Helper()
	for _, f := range sampleFrames(t) {
		if qf, ok := f.(*QueryFrame); ok {
			return qf
		}
	}
	t.Fatal("sampleFrames holds no query frame")
	return nil
}

func mustEncode(t testing.TB, f Frame) []byte {
	t.Helper()
	b, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// shortComboFrame encodes the sample query frame with its combination
// one bucket narrower than the query's vertex count — every length
// prefix is honest, only the cross-field relation is broken.
func shortComboFrame(t testing.TB) []byte {
	t.Helper()
	qf := sampleQuery(t)
	c := &qf.Combos[0]
	c.Buckets = c.Buckets[:qf.Query.NumVertices-1]
	return mustEncode(t, qf)
}

// unsortedTaskFrame encodes the sample query frame with a second,
// higher-UB combination appended and its task listing the two in
// ascending-UB order — every index is in range, only the order the
// reducers' early termination relies on is broken.
func unsortedTaskFrame(t testing.TB) []byte {
	t.Helper()
	qf := sampleQuery(t)
	hot := qf.Combos[0]
	hot.UB = 0.9
	qf.Combos = append(qf.Combos, hot)
	qf.Tasks[0].Combos = []int{0, 1}
	return mustEncode(t, qf)
}

// mismatchedWeightsFrame encodes the sample query frame with a weighted
// sum carrying one weight more than the query has edges — every weight
// is valid, only the count is off, and Aggregate would panic on it.
func mismatchedWeightsFrame(t testing.TB) []byte {
	t.Helper()
	qf := sampleQuery(t)
	q := *qf.Query
	weights := make([]float64, len(q.Edges)+1)
	for i := range weights {
		weights[i] = 1
	}
	q.Agg = &scoring.WeightedSum{Weights: weights}
	qf.Query = &q
	return mustEncode(t, qf)
}

// vertexCountAt is the byte offset of the query's vertex count in an
// encoded QueryFrame: the length prefix, kind, QueryID, Epoch, K and
// Floor words and the query name (length word, then its bytes) precede
// it.
func vertexCountAt(qf *QueryFrame) int { return 7*8 + len(qf.Query.Name) }

// patchedQueryFrame encodes the sample query frame with the word at(qf)
// — which must hold was — overwritten by v.
func patchedQueryFrame(t testing.TB, at func(*QueryFrame) int, was, v uint64) []byte {
	t.Helper()
	qf := sampleQuery(t)
	b := mustEncode(t, qf)
	off := at(qf)
	if got := interval.NewBinaryReader(b[off:]).U64(); got != was {
		t.Fatalf("word at byte %d is %d, want %d", off, got, was)
	}
	interval.PutU64(b[off:], v)
	return b
}

// hugeVertexFrame declares 2^35+3 vertices for a query of two edges: a
// union-find sized by that count would need 256 GiB.
func hugeVertexFrame(t testing.TB) []byte {
	return patchedQueryFrame(t, vertexCountAt, 3, 1<<35+3)
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

// Malformed payloads decode to errors, never to frames, and a refusal
// costs the memory of the bytes sent, not of the counts they declare.
func TestDecodeRejects(t *testing.T) {
	floor := mustEncode(t, &FloorFrame{QueryID: 1, Floor: 0.5})
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
		"bad error code":                  mustEncode(t, &ErrorFrame{QueryID: 1, Code: 7, Msg: "x"}),
		"combo narrower than its query":   shortComboFrame(t),
		"task not in descending-UB order": unsortedTaskFrame(t),
		"vertex count beyond its edges":   hugeVertexFrame(t),
		"weight count beyond its edges":   mismatchedWeightsFrame(t),
	}
	for name, b := range cases {
		if b == nil {
			t.Fatalf("%s: no input", name)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeFrame(b)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s: decode returned %v, want ErrProtocol", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s: refusing %d bytes allocated %d", name, len(b), alloc)
		}
	}
}

// The byte format is pinned: sampleFrames encode to exactly the frames
// in testdata/frames-v2.bin, and every pinned frame decodes and
// re-encodes to its own bytes.
func TestFrameFormatPin(t *testing.T) {
	pin, err := os.ReadFile("testdata/frames-v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	frames := sampleFrames(t)
	var enc []byte
	for _, f := range frames {
		enc = append(enc, mustEncode(t, f)...)
	}
	if !bytes.Equal(enc, pin) {
		t.Fatalf("sampleFrames encode to %d bytes that differ from the %d-byte pin", len(enc), len(pin))
	}
	n := 0
	for rest := pin; len(rest) > 0; n++ {
		f, used, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("pinned frame %d: %v", n, err)
		}
		if f.kind() != frames[n].kind() || !bytes.Equal(mustEncode(t, f), rest[:used]) {
			t.Fatalf("pinned frame %d (%T) does not round-trip", n, f)
		}
		rest = rest[used:]
	}
	if n != len(frames) {
		t.Fatalf("pin holds %d frames, want %d", n, len(frames))
	}
}

// A peer on the first wire format is refused where the format changed
// and understood where it did not: testdata/frames-v1-refused.bin holds
// that format's sample frames. Its load, append, floor and error frames
// decode and re-encode byte-identically; its query and result frames
// (kinds 3 and 5) fail as unknown kinds, at the cost of the bytes sent.
func TestFramesV1Refused(t *testing.T) {
	old, err := os.ReadFile("testdata/frames-v1-refused.bin")
	if err != nil {
		t.Fatal(err)
	}
	var decoded, refused int
	for rest := old; len(rest) > 0; {
		if len(rest) < 16 {
			t.Fatalf("fixture ends in a %d-byte fragment", len(rest))
		}
		n := 8 + int(interval.NewBinaryReader(rest).U64())
		kind := interval.NewBinaryReader(rest[8:]).U64()
		frame := rest[:n]
		rest = rest[n:]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, used, err := DecodeFrame(frame)
		runtime.ReadMemStats(&after)
		if kind == 3 || kind == 5 {
			if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "unknown frame kind") {
				t.Fatalf("v1 frame kind %d: decode returned %v, want ErrProtocol for an unknown kind", kind, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("v1 frame kind %d: refusing %d bytes allocated %d", kind, n, alloc)
			}
			refused++
			continue
		}
		if err != nil || used != n {
			t.Fatalf("v1 frame kind %d: decode = (%d bytes, %v), want all %d", kind, used, err, n)
		}
		if !bytes.Equal(mustEncode(t, f), frame) {
			t.Fatalf("v1 frame kind %d (%T) does not re-encode to its bytes", kind, f)
		}
		decoded++
	}
	if decoded != 4 || refused != 2 {
		t.Fatalf("fixture held %d decodable and %d refused frames, want 4 and 2", decoded, refused)
	}
}

// boundFrames are valid frames made only of a list's smallest entries
// and nothing after them: a result frame of 16 reducers without
// results, and a query frame of 64 combinations without tasks or
// shipped buckets. A list's per-entry byte bound above its smallest
// valid entry refuses them.
func boundFrames(t testing.TB) []Frame {
	t.Helper()
	res := &ResultFrame{QueryID: 3, Epoch: 1, Reducers: make([]join.ReducerOutput, 16)}
	for i := range res.Reducers {
		res.Reducers[i].Reducer = i
	}
	qf := sampleQuery(t)
	qf.Tasks, qf.Shipped = nil, nil
	for len(qf.Combos) < 64 {
		qf.Combos = append(qf.Combos, qf.Combos[0])
	}
	return []Frame{res, qf}
}

// Every list's entry bound admits its smallest valid entry.
func TestFrameBoundsAdmitSmallestEntries(t *testing.T) {
	for _, f := range boundFrames(t) {
		b := mustEncode(t, f)
		g, n, err := DecodeFrame(b)
		if err != nil || n != len(b) {
			t.Fatalf("%T: decode = (%d of %d bytes, %v)", f, n, len(b), err)
		}
		if !bytes.Equal(mustEncode(t, g), b) {
			t.Fatalf("%T: re-encode is not byte-identical", f)
		}
	}
}

// Encoding only reads the frame: concurrent scatters encode frames that
// share one plan's Combos, Mapping and Query. Under -race a store from
// any of the 8 encoders is a reported race; the deep comparison also
// catches one that stores the value already there.
func TestEncodeDoesNotWriteFrame(t *testing.T) {
	shared, want := sampleQuery(t), sampleQuery(t)
	wantBytes := mustEncode(t, want)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b, err := EncodeFrame(shared)
				if err == nil && !bytes.Equal(b, wantBytes) {
					err = errors.New("encoding changed between calls")
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, want) {
		t.Fatal("encoding modified the frame")
	}
}

// FuzzShardWire is the protocol robustness gate: arbitrary bytes must
// never panic the decoder, and anything that does decode must re-encode
// byte-identically (the strict-codec invariant the coordinator and
// worker both rely on when they cross-check frames).
func FuzzShardWire(f *testing.F) {
	for _, fr := range sampleFrames(f) {
		f.Add(mustEncode(f, fr))
	}
	f.Add([]byte{})
	f.Add(interval.AppendU64(nil, 16))
	f.Add(shortComboFrame(f))
	f.Add(unsortedTaskFrame(f))
	f.Add(hugeVertexFrame(f))
	f.Add(mismatchedWeightsFrame(f))
	for _, fr := range boundFrames(f) {
		f.Add(mustEncode(f, fr))
	}
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
