package shard

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"tkij/internal/distribute"
	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
	"tkij/internal/store"
	"tkij/internal/topbuckets"
)

func synthCols(n, perCol int, seed int64) []*interval.Collection {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*interval.Collection, n)
	for i := range cols {
		c := &interval.Collection{Name: "C"}
		for j := 0; j < perCol; j++ {
			s := rng.Int63n(2000)
			c.Add(interval.Interval{ID: int64(i*1000000 + j), Start: s, End: s + 1 + rng.Int63n(80)})
		}
		cols[i] = c
	}
	return cols
}

// collect builds one bucket matrix per collection under g granules —
// what the offline statistics job produces, without running it.
func collect(t *testing.T, cols []*interval.Collection, g int) []*stats.Matrix {
	t.Helper()
	ms := make([]*stats.Matrix, len(cols))
	for i, c := range cols {
		s := c.ComputeStats()
		gran, err := stats.NewGranulation(s.MinStart, s.MaxEnd, g)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = stats.NewMatrix(i, gran)
		for _, iv := range c.Items {
			ms[i].Add(iv)
		}
	}
	return ms
}

// pipelineEnv is everything up to the join phase: the store, per-vertex
// sources, selected combinations, and the DTB assignment over reducers
// that a cluster makes of them.
type pipelineEnv struct {
	q        *query.Query
	st       *store.Store
	srcs     []join.Source
	combos   []topbuckets.Combo
	reducers int
	assign   *distribute.Assignment
	k        int
}

func buildPipeline(t *testing.T, q *query.Query, cols []*interval.Collection, g, k, reducers int) *pipelineEnv {
	t.Helper()
	ms := collect(t, cols, g)
	tb, err := topbuckets.Run(q, ms, k, topbuckets.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := distribute.Assign(distribute.AlgDTB, tb.Selected, reducers)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Build(cols, ms)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]join.Source, len(cols))
	for v := range cols {
		srcs[v] = st.Col(v)
	}
	return &pipelineEnv{q: q, st: st, srcs: srcs,
		combos: tb.Selected, reducers: reducers, assign: assign, k: k}
}

func (env *pipelineEnv) run(t *testing.T, runner join.Runner) *join.Output {
	t.Helper()
	out, err := join.Run(context.Background(), env.request(), runner)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// request builds the ReduceRequest for join.Run — or, with the shared
// floor Run would install, for fault tests that call
// Cluster.RunReducers directly.
func (env *pipelineEnv) request() *join.ReduceRequest {
	return &join.ReduceRequest{
		Query: env.q, Srcs: env.srcs, Plan: topbuckets.Listed(env.combos),
		Reducers: env.reducers, K: env.k, Shared: new(join.SharedFloor),
	}
}

func testQuery() *query.Query {
	env := query.Env{Params: scoring.P1, Avg: 40}
	return query.Qbb(env)
}

// quiesce waits for every worker's in-flight executors, then asserts
// zero live views — the pin-release invariant for remote execution.
func assertNoLiveViews(t *testing.T, workers []*Worker) {
	t.Helper()
	for i, w := range workers {
		w.Quiesce()
		if st := w.Store(); st != nil {
			if vs := st.ViewStats(); vs.Live != 0 {
				t.Fatalf("worker %d holds %d live views after quiesce", i, vs.Live)
			}
		}
	}
}

// Distributed execution over N real (in-process, full wire protocol)
// workers must return results identical to the same DTB assignment run
// in one process — same scores, same tuples, same order — for every
// shard count.
func TestClusterEquivalence(t *testing.T) {
	q := testQuery()
	for seed := int64(1); seed <= 2; seed++ {
		cols := synthCols(3, 120, seed)
		env := buildPipeline(t, q, cols, 6, 10, 4)
		local := env.run(t, env.assign)
		for _, n := range []int{1, 2, 3, 5} {
			c, workers, err := InProcess(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.LoadStore(env.st); err != nil {
				t.Fatal(err)
			}
			remote := env.run(t, c)
			if !reflect.DeepEqual(remote.Results, local.Results) {
				t.Fatalf("seed %d, %d shards: remote results differ from local\nremote: %v\nlocal:  %v",
					seed, n, remote.Results, local.Results)
			}
			if n > 1 && remote.ShippedBuckets == 0 && len(env.assign.BucketReducers) > 1 {
				// With round-robin reducers over a partitioned store,
				// some bucket is essentially always foreign.
				t.Logf("seed %d, %d shards: nothing shipped (unusual but not wrong)", seed, n)
			}
			assertNoLiveViews(t, workers)
			c.Close()
		}
	}
}

// The join's ablations run in process only: a cluster asked for one
// returns an error and scatters nothing.
func TestRunReducersRefusesLocalOptions(t *testing.T) {
	env := buildPipeline(t, testQuery(), synthCols(3, 80, 12), 5, 6, 4)
	fakeEnd, coordEnd := net.Pipe()
	var queries int
	served := make(chan struct{})
	go func() {
		defer close(served)
		fakeWorker(fakeEnd, func(f Frame, fw *frameWriter) bool {
			if qf, isQuery := f.(*QueryFrame); isQuery {
				// Answered, so a cluster that scatters anyway fails this
				// test instead of hanging it.
				queries++
				_ = fw.send(&ErrorFrame{QueryID: qf.QueryID, Code: CodeExec, Msg: "scattered"})
			}
			return true
		})
	}()
	c := NewCluster([]io.ReadWriteCloser{coordEnd})
	if err := c.LoadStore(env.st); err != nil {
		t.Fatal(err)
	}
	req := env.request()
	req.Opts.DisableIndex = true
	out, err := c.RunReducers(context.Background(), req)
	// A net.Pipe write returns once the fake worker has read it, so after
	// Close ends its loop every frame the cluster sent has been counted.
	c.Close()
	<-served
	if out != nil || err == nil {
		t.Fatalf("RunReducers = (%v, %v), want an error", out, err)
	}
	if queries != 0 {
		t.Fatalf("a refused request scattered %d query frames", queries)
	}
}

// Appends must keep replicas in lockstep: after coordinator and cluster
// both apply a batch, a re-planned query over the grown store matches
// local execution, and the worker epochs equal the coordinator delta.
func TestClusterAppendLockstep(t *testing.T) {
	q := testQuery()
	cols := synthCols(3, 100, 3)
	env := buildPipeline(t, q, cols, 6, 8, 4)
	c, workers, err := InProcess(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadStore(env.st); err != nil {
		t.Fatal(err)
	}
	base := env.st.Epoch()

	// Two interleaved append epochs, queried after each.
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 2; round++ {
		var batch []interval.Interval
		for j := 0; j < 40; j++ {
			s := rng.Int63n(2000)
			batch = append(batch, interval.Interval{ID: int64(10000 + round*1000 + j), Start: s, End: s + 1 + rng.Int63n(80)})
		}
		if _, err := env.st.Append(0, batch); err != nil {
			t.Fatal(err)
		}
		if err := c.Append(0, batch); err != nil {
			t.Fatal(err)
		}
		for _, iv := range batch {
			cols[0].Add(iv)
		}
		// Re-plan against the grown dataset (fresh matrices → fresh
		// combos/assignment), reusing the same resident store.
		grown := buildPipelineFromStore(t, q, cols, env.st, 6, 8, 4)
		local := grown.run(t, grown.assign)
		remote := grown.run(t, c)
		if !reflect.DeepEqual(remote.Results, local.Results) {
			t.Fatalf("round %d: remote results differ from local", round)
		}
		for i, w := range workers {
			w.Quiesce()
			if got, want := w.Store().Epoch(), env.st.Epoch()-base; got != want {
				t.Fatalf("round %d: worker %d at epoch %d, want %d", round, i, got, want)
			}
		}
	}
	assertNoLiveViews(t, workers)
}

// buildPipelineFromStore re-plans over fresh statistics but keeps the
// existing (already loaded and appended) store.
func buildPipelineFromStore(t *testing.T, q *query.Query, cols []*interval.Collection,
	st *store.Store, g, k, reducers int) *pipelineEnv {
	t.Helper()
	ms := collect(t, cols, g)
	tb, err := topbuckets.Run(q, ms, k, topbuckets.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := distribute.Assign(distribute.AlgDTB, tb.Selected, reducers)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]join.Source, len(cols))
	for v := range cols {
		srcs[v] = st.Col(v)
	}
	return &pipelineEnv{q: q, st: st, srcs: srcs,
		combos: tb.Selected, reducers: reducers, assign: assign, k: k}
}

// The full protocol over real TCP loopback: Dial against listener-backed
// workers, same results as local.
func TestClusterTCP(t *testing.T) {
	q := testQuery()
	cols := synthCols(3, 80, 5)
	env := buildPipeline(t, q, cols, 5, 6, 4)
	local := env.run(t, env.assign)

	const n = 2
	addrs := make([]string, n)
	workers := make([]*Worker, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
		w := NewWorker()
		workers[i] = w
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_ = w.Serve(conn)
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadStore(env.st); err != nil {
		t.Fatal(err)
	}
	remote := env.run(t, c)
	if !reflect.DeepEqual(remote.Results, local.Results) {
		t.Fatalf("TCP results differ from local")
	}
	assertNoLiveViews(t, workers)
}

// --- fault injection ------------------------------------------------

// fakeWorker drives the worker side of a link from the test: handle is
// called with every decoded frame and may write responses or close the
// connection. Reading continues until the conn dies.
func fakeWorker(conn io.ReadWriteCloser, handle func(Frame, *frameWriter) bool) {
	fw := &frameWriter{w: conn}
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			_ = conn.Close()
			return
		}
		if !handle(f, fw) {
			_ = conn.Close()
			return
		}
	}
}

// faultCluster builds a 2-link cluster: link 0 is a healthy real
// worker, link 1 is script-driven by the test.
func faultCluster(t *testing.T, handle func(Frame, *frameWriter) bool) (*Cluster, *Worker) {
	t.Helper()
	realEnd, coordEnd0 := net.Pipe()
	w := NewWorker()
	go func() { _ = w.Serve(realEnd) }()
	fakeEnd, coordEnd1 := net.Pipe()
	go fakeWorker(fakeEnd, handle)
	return NewCluster([]io.ReadWriteCloser{coordEnd0, coordEnd1}), w
}

// A worker crashing mid-scatter (link closes after it receives the
// query) fails the query with ErrWorkerLost and no partial results;
// the surviving worker's pins are all released.
func TestFaultWorkerCrash(t *testing.T) {
	env := buildPipeline(t, testQuery(), synthCols(3, 80, 7), 5, 6, 4)
	c, w := faultCluster(t, func(f Frame, fw *frameWriter) bool {
		_, isQuery := f.(*QueryFrame)
		return !isQuery // die on the scatter frame
	})
	defer c.Close()
	if err := c.LoadStore(env.st); err != nil {
		t.Fatal(err)
	}
	out, err := c.RunReducers(context.Background(), env.request())
	if out != nil || !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("RunReducers = (%v, %v), want (nil, ErrWorkerLost)", out, err)
	}
	assertNoLiveViews(t, []*Worker{w})
}

// A hung worker (accepts the query, never answers) is bounded by the
// caller's deadline; the error wraps the context error so the engine
// translates it to ErrCanceled.
func TestFaultWorkerHang(t *testing.T) {
	env := buildPipeline(t, testQuery(), synthCols(3, 80, 8), 5, 6, 4)
	c, w := faultCluster(t, func(Frame, *frameWriter) bool {
		return true // swallow everything, answer nothing
	})
	defer c.Close()
	if err := c.LoadStore(env.st); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	out, err := c.RunReducers(ctx, env.request())
	if out != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunReducers = (%v, %v), want deadline exceeded", out, err)
	}
	assertNoLiveViews(t, []*Worker{w})
}

// A torn frame (garbage bytes, then the link dies) is a protocol
// violation, not a lost worker.
func TestFaultTornFrame(t *testing.T) {
	env := buildPipeline(t, testQuery(), synthCols(3, 80, 9), 5, 6, 4)
	c, w := faultCluster(t, func(f Frame, fw *frameWriter) bool {
		if _, isQuery := f.(*QueryFrame); isQuery {
			// A plausible length prefix followed by a truncated payload.
			hdr := interval.AppendU64(nil, 64)
			hdr = interval.AppendU64(hdr, kindResult)
			fw.mu.Lock()
			_, _ = fw.w.Write(hdr)
			fw.mu.Unlock()
			return false // close mid-frame
		}
		return true
	})
	defer c.Close()
	if err := c.LoadStore(env.st); err != nil {
		t.Fatal(err)
	}
	out, err := c.RunReducers(context.Background(), env.request())
	if out != nil || !errors.Is(err, ErrProtocol) {
		t.Fatalf("RunReducers = (%v, %v), want (nil, ErrProtocol)", out, err)
	}
	assertNoLiveViews(t, []*Worker{w})
}

// A worker answering for a reducer it was not sent — here an index far
// past the assignment — is a protocol violation that fails the query,
// not an index the coordinator trusts.
func TestFaultForeignReducer(t *testing.T) {
	env := buildPipeline(t, testQuery(), synthCols(3, 80, 11), 5, 6, 4)
	c, w := faultCluster(t, func(f Frame, fw *frameWriter) bool {
		if qf, isQuery := f.(*QueryFrame); isQuery {
			_ = fw.send(&ResultFrame{QueryID: qf.QueryID, Epoch: qf.Epoch,
				Reducers: []join.ReducerOutput{{Reducer: 1 << 20}}})
		}
		return true
	})
	defer c.Close()
	if err := c.LoadStore(env.st); err != nil {
		t.Fatal(err)
	}
	out, err := c.RunReducers(context.Background(), env.request())
	if out != nil || !errors.Is(err, ErrProtocol) {
		t.Fatalf("RunReducers = (%v, %v), want (nil, ErrProtocol)", out, err)
	}
	assertNoLiveViews(t, []*Worker{w})
}

// A floor broadcast for a query the worker never admitted is a replay:
// the worker rejects it with a distinct error and the in-flight query
// fails with ErrFloorReplay.
func TestFaultFloorReplay(t *testing.T) {
	env := buildPipeline(t, testQuery(), synthCols(3, 80, 10), 5, 6, 4)
	c, w := faultCluster(t, func(f Frame, fw *frameWriter) bool {
		if _, isQuery := f.(*QueryFrame); isQuery {
			// Claim a floor for a query id that was never scattered.
			_ = fw.send(&ErrorFrame{QueryID: 1 << 40, Code: CodeFloorReplay,
				Msg: "floor for query 1099511627776, which was never admitted"})
		}
		return true
	})
	defer c.Close()
	if err := c.LoadStore(env.st); err != nil {
		t.Fatal(err)
	}
	out, err := c.RunReducers(context.Background(), env.request())
	if out != nil || !errors.Is(err, ErrFloorReplay) {
		t.Fatalf("RunReducers = (%v, %v), want (nil, ErrFloorReplay)", out, err)
	}
	assertNoLiveViews(t, []*Worker{w})
}

// The worker side of the replay check: a real worker receiving a floor
// for an unknown query id answers CodeFloorReplay and kills the link.
func TestWorkerRejectsFloorReplay(t *testing.T) {
	workerEnd, testEnd := net.Pipe()
	w := NewWorker()
	served := make(chan error, 1)
	go func() { served <- w.Serve(workerEnd) }()

	send := func(f Frame) {
		b, err := EncodeFrame(f)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := testEnd.Write(b); err != nil {
			t.Error(err)
		}
	}
	gran, _ := stats.NewGranulation(0, 100, 4)
	send(&LoadFrame{ShardID: 0, Shards: 1, Cols: []store.MappedCol{{Col: 0, Gran: gran}}})
	send(&FloorFrame{QueryID: 7, Floor: 0.5})

	f, err := ReadFrame(testEnd)
	if err != nil {
		t.Fatal(err)
	}
	ef, ok := f.(*ErrorFrame)
	if !ok || ef.Code != CodeFloorReplay || ef.QueryID != 7 {
		t.Fatalf("worker answered %#v, want CodeFloorReplay for query 7", f)
	}
	if err := <-served; !errors.Is(err, ErrFloorReplay) {
		t.Fatalf("Serve returned %v, want ErrFloorReplay", err)
	}
}

// A dropped link must stop the worker's in-flight reducers
// mid-combination: Serve cancels its per-link context on return, so the
// executors unwind, release the pinned view and Quiesce returns —
// without finishing a reducer list that would otherwise burn a core for
// hours holding the view. The list is a 6-way s-before star over one
// bucket of 150 identical intervals: every tuple scores 0, a tie no
// floor cuts, and the combination's edge UBs of 1 leave every partial
// tuple worth extending, so the pass visits ~10^13 candidates.
func TestWorkerAbandonsReducersWhenLinkDrops(t *testing.T) {
	const n, vertices = 150, 6
	items := make([]interval.Interval, n)
	for i := range items {
		items[i] = interval.Interval{ID: int64(i), Start: 20, End: 30}
	}
	gran, _ := stats.NewGranulation(0, 200, 1)
	q := query.QbStar(query.Env{Params: scoring.P1}, vertices)
	combo := topbuckets.Combo{UB: 1, EdgeUB: make([]float64, len(q.Edges))}
	for ei := range combo.EdgeUB {
		combo.EdgeUB[ei] = 1
	}
	for v := 0; v < vertices; v++ {
		combo.Buckets = append(combo.Buckets, stats.Bucket{Col: v, Count: n})
	}

	workerEnd, testEnd := net.Pipe()
	w := NewWorker()
	served := make(chan error, 1)
	go func() { served <- w.Serve(workerEnd) }()
	send := func(f Frame) {
		b, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := testEnd.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	send(&LoadFrame{ShardID: 0, Shards: 1, Cols: []store.MappedCol{
		{Col: 0, Gran: gran, Buckets: []store.MappedBucket{{Items: items}}},
	}})
	send(&QueryFrame{
		QueryID: 1, K: 5,
		Query: q, Mapping: make([]int, vertices),
		Combos: []topbuckets.Combo{combo},
		Tasks:  []join.ReducerTask{{Reducer: 0, Combos: []int{0}}},
	})
	// Barrier: a net.Pipe write returns once the reader consumed it, and
	// the worker reads the next frame only after handling the previous
	// one — so once this frame is accepted the query has been admitted,
	// its view pinned and its executor started. A floor of 0 raises
	// nothing, so the pass stays as long as it is.
	send(&FloorFrame{QueryID: 1, Floor: 0})
	if live := w.Store().ViewStats().Live; live != 1 {
		t.Fatalf("worker holds %d live views mid-query, want 1", live)
	}

	_ = testEnd.Close()
	quiesced := make(chan struct{})
	go func() {
		w.Quiesce()
		close(quiesced)
	}()
	select {
	case <-quiesced:
	case <-time.After(30 * time.Second):
		t.Fatal("reducers still running 30s after their link dropped")
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v on a clean close", err)
	}
	if live := w.Store().ViewStats().Live; live != 0 {
		t.Fatalf("worker holds %d live views after its link dropped", live)
	}
}

// A combination narrower than its query must die at the decoder: past
// it, the joiner indexes combo.Buckets by vertex on a reducer goroutine,
// and that panic would take down the whole tkij-worker process, which
// serves one Worker per connection. The hostile link ends with
// ErrProtocol and a sibling link in the same process still answers.
func TestWorkerSurvivesShortComboFrame(t *testing.T) {
	const n, vertices = 12, 3
	items := make([]interval.Interval, n)
	for i := range items {
		items[i] = interval.Interval{ID: int64(i), Start: int64(10 * i), End: int64(10*i) + 5}
	}
	gran, _ := stats.NewGranulation(0, 200, 1)
	combo := topbuckets.Combo{UB: 1, EdgeUB: []float64{1, 1}}
	for v := 0; v < vertices; v++ {
		combo.Buckets = append(combo.Buckets, stats.Bucket{Col: v, Count: n})
	}
	good := &QueryFrame{
		QueryID: 1, K: 5,
		Query:   query.Qbb(query.Env{Params: scoring.P1}),
		Mapping: make([]int, vertices),
		Combos:  []topbuckets.Combo{combo},
		Tasks:   []join.ReducerTask{{Reducer: 0, Combos: []int{0}}},
	}
	hostile := *good
	hostile.Combos = []topbuckets.Combo{{Buckets: combo.Buckets[:vertices-1], UB: 1, EdgeUB: combo.EdgeUB}}

	type link struct {
		conn   net.Conn
		served chan error
	}
	open := func() link {
		workerEnd, testEnd := net.Pipe()
		l := link{conn: testEnd, served: make(chan error, 1)}
		go func() { l.served <- NewWorker().Serve(workerEnd) }()
		return l
	}
	send := func(l link, f Frame) {
		t.Helper()
		b, err := EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	load := &LoadFrame{ShardID: 0, Shards: 1, Cols: []store.MappedCol{
		{Col: 0, Gran: gran, Buckets: []store.MappedBucket{{Items: items}}},
	}}
	bad, sibling := open(), open()
	send(bad, load)
	send(sibling, load)

	send(bad, &hostile)
	if err := <-bad.served; !errors.Is(err, ErrProtocol) {
		t.Fatalf("hostile link: Serve returned %v, want ErrProtocol", err)
	}

	send(sibling, good)
	// The answer is the result frame; floor uplinks may precede it.
	var f Frame
	for {
		var err error
		if f, err = ReadFrame(sibling.conn); err != nil {
			t.Fatal(err)
		}
		if _, isFloor := f.(*FloorFrame); !isFloor {
			break
		}
	}
	rf, ok := f.(*ResultFrame)
	if !ok || rf.QueryID != good.QueryID || len(rf.Reducers) != 1 || len(rf.Reducers[0].Results) != good.K {
		t.Fatalf("sibling link answered %#v, want query %d's top-%d", f, good.QueryID, good.K)
	}
	_ = sibling.conn.Close()
	if err := <-sibling.served; err != nil {
		t.Fatalf("sibling link: Serve returned %v on a clean close", err)
	}
}

// A worker whose replica lands on the wrong epoch after an append
// reports CodeEpoch and the cluster poisons itself with
// ErrEpochMismatch.
func TestWorkerAppendEpochMismatch(t *testing.T) {
	workerEnd, testEnd := net.Pipe()
	w := NewWorker()
	served := make(chan error, 1)
	go func() { served <- w.Serve(workerEnd) }()

	send := func(f Frame) {
		b, err := EncodeFrame(f)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := testEnd.Write(b); err != nil {
			t.Error(err)
		}
	}
	gran, _ := stats.NewGranulation(0, 100, 4)
	send(&LoadFrame{ShardID: 0, Shards: 1, Cols: []store.MappedCol{{Col: 0, Gran: gran}}})
	// Declare epoch 5; the replica will land on 1.
	send(&AppendFrame{Epoch: 5, Col: 0, Items: []interval.Interval{{ID: 1, Start: 3, End: 9}}})

	f, err := ReadFrame(testEnd)
	if err != nil {
		t.Fatal(err)
	}
	ef, ok := f.(*ErrorFrame)
	if !ok || ef.Code != CodeEpoch {
		t.Fatalf("worker answered %#v, want CodeEpoch", f)
	}
	if err := <-served; !errors.Is(err, ErrEpochMismatch) {
		t.Fatalf("Serve returned %v, want ErrEpochMismatch", err)
	}
}

// Every Load refusal, on a real worker. A tampered partition — an
// interval outside the bucket it arrived in, a collection out of order —
// dies at the decoder (ErrProtocol, the link drops); a well-formed frame
// no replica can be built from — an empty or a repeated bucket — is
// answered with a CodeLoad error frame and Serve returns ErrRemote.
func TestWorkerLoadRefusals(t *testing.T) {
	gran, _ := stats.NewGranulation(0, 100, 4)
	in00 := []interval.Interval{{ID: 1, Start: 3, End: 9}} // bucket (0,0)
	cases := []struct {
		name   string
		cols   []store.MappedCol
		remote bool // CodeLoad + ErrRemote; otherwise ErrProtocol
	}{
		{"interval outside its bucket", []store.MappedCol{
			{Col: 0, Gran: gran, Buckets: []store.MappedBucket{{StartG: 1, EndG: 1, Items: in00}}},
		}, false},
		{"collection out of order", []store.MappedCol{{Col: 1, Gran: gran}}, false},
		{"empty bucket", []store.MappedCol{
			{Col: 0, Gran: gran, Buckets: []store.MappedBucket{{StartG: 0, EndG: 0}}},
		}, true},
		{"duplicate bucket", []store.MappedCol{
			{Col: 0, Gran: gran, Buckets: []store.MappedBucket{{Items: in00}, {Items: in00}}},
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := EncodeFrame(&LoadFrame{ShardID: 0, Shards: 1, Cols: tc.cols})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := DecodeFrame(b); errors.Is(err, ErrProtocol) == tc.remote {
				t.Fatalf("DecodeFrame returned %v", err)
			}
			workerEnd, testEnd := net.Pipe()
			defer testEnd.Close()
			served := make(chan error, 1)
			go func() { served <- NewWorker().Serve(workerEnd) }()
			if _, err := testEnd.Write(b); err != nil {
				t.Fatal(err)
			}
			want := ErrProtocol
			if tc.remote {
				want = ErrRemote
				f, err := ReadFrame(testEnd)
				if err != nil {
					t.Fatal(err)
				}
				if ef, ok := f.(*ErrorFrame); !ok || ef.Code != CodeLoad {
					t.Fatalf("worker answered %#v, want CodeLoad", f)
				}
			}
			if err := <-served; !errors.Is(err, want) {
				t.Fatalf("Serve returned %v, want %v", err, want)
			}
		})
	}
}

// The manifest is deterministic and total: layout buckets round-robin,
// unknown buckets fall through to a stable hash, and both stay within
// range.
func TestManifestOwnership(t *testing.T) {
	layout := []stats.BucketKey{
		{Col: 0, StartG: 0, EndG: 0}, {Col: 0, StartG: 0, EndG: 1},
		{Col: 1, StartG: 1, EndG: 2}, {Col: 1, StartG: 2, EndG: 3},
		{Col: 1, StartG: 3, EndG: 3},
	}
	m := NewManifest(layout, 3)
	n2 := NewManifest(layout, 3)
	for i, k := range layout {
		if got, want := m.Owner(k), i%3; got != want {
			t.Fatalf("Owner(%v) = %d, want %d", k, got, want)
		}
		if m.Owner(k) != n2.Owner(k) {
			t.Fatalf("manifest not deterministic at %v", k)
		}
	}
	if m.Buckets(0) != 2 || m.Buckets(1) != 2 || m.Buckets(2) != 1 {
		t.Fatalf("bucket counts = %d/%d/%d", m.Buckets(0), m.Buckets(1), m.Buckets(2))
	}
	// Fallback: stable and in range.
	for col := 0; col < 5; col++ {
		for sg := 0; sg < 5; sg++ {
			k := stats.BucketKey{Col: col, StartG: sg, EndG: sg + 7}
			o := m.Owner(k)
			if o < 0 || o >= 3 {
				t.Fatalf("fallback owner %d out of range", o)
			}
			if o != n2.Owner(k) {
				t.Fatalf("fallback not deterministic at %v", k)
			}
		}
	}
}
