package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"tkij/internal/distribute"
	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/obs"
	"tkij/internal/stats"
	"tkij/internal/store"
)

// ErrClusterClosed marks operations on a deliberately closed cluster.
var ErrClusterClosed = errors.New("shard: cluster closed")

// Cluster is the coordinator side of distributed execution: it owns one
// link per shard worker, the bucket→shard manifest, and the epoch
// lockstep, and implements join.Runner by scattering reducer tasks and
// gathering their outputs.
//
// Failure semantics: any link-level fault (lost worker, protocol
// violation, replayed floor) poisons the cluster — every in-flight
// query fails with the fault's sentinel error and no partial results,
// and subsequent calls fail fast. Per-query worker errors (a reducer
// failing, an epoch mismatch on one query) fail only that query.
//
// LoadStore must complete before Append or RunReducers; Append calls
// must be externally serialized against RunReducers (the engine's
// scatter gate does this), which is what keeps every worker's pin epoch
// equal to the coordinator's replica epoch.
type Cluster struct {
	links []*link

	// Immutable after LoadStore.
	loaded   bool
	manifest *Manifest
	grans    []stats.Granulation

	nextID       atomic.Uint64
	replicaEpoch atomic.Int64
	closed       atomic.Bool

	pmu     sync.Mutex
	failed  error
	pending map[uint64]*pendingQuery
}

// link is one worker connection. wmu serializes writes; the ordering
// rule that makes floors safe is that a query's floor frame is never
// written to a link before that query's scatter frame (see sendSeq).
type link struct {
	c    *Cluster
	idx  int
	conn io.ReadWriteCloser
	wmu  sync.Mutex
}

// NewCluster wraps established worker connections. It starts each
// link's read loop immediately.
func NewCluster(conns []io.ReadWriteCloser) *Cluster {
	c := &Cluster{pending: make(map[uint64]*pendingQuery)}
	for i, conn := range conns {
		l := &link{c: c, idx: i, conn: conn}
		c.links = append(c.links, l)
	}
	for _, l := range c.links {
		go l.loop()
	}
	return c
}

// Shards returns the worker count.
func (c *Cluster) Shards() int { return len(c.links) }

// Manifest returns the bucket ownership map (nil before LoadStore).
func (c *Cluster) Manifest() *Manifest { return c.manifest }

// Close tears the cluster down: every link closes (workers' Serve loops
// exit) and in-flight queries fail with ErrClusterClosed.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	c.fail(ErrClusterClosed)
	for _, l := range c.links {
		_ = l.conn.Close()
	}
}

// fail poisons the cluster: records the first fault and fails every
// pending query with it.
func (c *Cluster) fail(err error) {
	c.pmu.Lock()
	if c.failed == nil {
		c.failed = err
	}
	pqs := make([]*pendingQuery, 0, len(c.pending))
	for _, pq := range c.pending {
		pqs = append(pqs, pq)
	}
	c.pmu.Unlock()
	for _, pq := range pqs {
		pq.fail(err)
	}
}

func (c *Cluster) health() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.failed
}

// Health reports the cluster's poisoned state: nil while healthy, the
// first fault (worker lost, protocol violation, lost append) once the
// cluster has failed. A poisoned cluster fails every execution fast
// for the rest of its life; the engine that owns it reports the fault
// (core.Engine.Health) and never replaces it.
func (c *Cluster) Health() error { return c.health() }

func (l *link) send(f Frame) error { return l.sendSeq(f, nil) }

// sendSeq encodes f, then runs pre under the link's write lock
// immediately before writing. Scatter uses pre to flip the query's
// "scattered on this link" bit: any floor rebroadcast that observes the
// bit set must acquire the same write lock and therefore lands after
// the scatter frame on the wire — a worker can never see a floor for a
// query it has not admitted.
func (l *link) sendSeq(f Frame, pre func()) error {
	b, err := EncodeFrame(f)
	if err != nil {
		return err
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if pre != nil {
		pre()
	}
	_, err = l.conn.Write(b)
	if err == nil {
		mFramesSent.Inc()
		mShippedBytes.Add(int64(len(b)))
	}
	return err
}

// loop reads worker frames until the link dies. A clean EOF between
// frames is a crashed/exited worker (ErrWorkerLost); a torn or
// malformed frame is ErrProtocol.
func (l *link) loop() {
	br := bufio.NewReaderSize(l.conn, 1<<16)
	for {
		f, err := ReadFrame(br)
		if err != nil {
			if l.c.closed.Load() {
				return
			}
			switch {
			case errors.Is(err, io.EOF):
				l.c.fail(fmt.Errorf("%w: worker %d closed its link", ErrWorkerLost, l.idx))
			case errors.Is(err, ErrProtocol):
				l.c.fail(fmt.Errorf("worker %d: %w", l.idx, err))
			default:
				l.c.fail(fmt.Errorf("%w: worker %d link: %v", ErrWorkerLost, l.idx, err))
			}
			return
		}
		mFramesReceived.Inc()
		switch f := f.(type) {
		case *ResultFrame:
			l.c.onResult(l.idx, f)
		case *FloorFrame:
			l.c.onFloor(l.idx, f)
		case *ErrorFrame:
			l.c.onError(l.idx, f)
		default:
			l.c.fail(fmt.Errorf("%w: worker %d sent coordinator-bound frame kind %d", ErrProtocol, l.idx, f.kind()))
			return
		}
	}
}

// pendingQuery tracks one scattered query until every shard delivers or
// something fails.
type pendingQuery struct {
	id     uint64
	epoch  int64
	master *join.SharedFloor

	// peers[i] is the highest floor worker i is known to hold — seeded
	// at scatter, advanced by rebroadcasts, and by uplinks from that
	// worker (its own raises never echo back to it).
	peers []peerFloor

	mu          sync.Mutex
	tasks       [][]join.ReducerTask // scattered to each worker
	scattered   []bool
	frames      []*ResultFrame
	got         int
	floorFrames int64
	completed   bool
	err         error
	done        chan struct{}
}

func (pq *pendingQuery) failLocked(err error) {
	if pq.completed {
		return
	}
	pq.completed = true
	pq.err = err
	close(pq.done)
}

func (pq *pendingQuery) fail(err error) {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	pq.failLocked(err)
}

func (c *Cluster) lookup(id uint64) *pendingQuery {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.pending[id]
}

func (c *Cluster) onResult(idx int, f *ResultFrame) {
	pq := c.lookup(f.QueryID)
	if pq == nil {
		return // abandoned query; late result is a no-op
	}
	pq.mu.Lock()
	defer pq.mu.Unlock()
	if pq.completed {
		return
	}
	if f.Epoch != pq.epoch {
		pq.failLocked(fmt.Errorf("%w: worker %d served query %d at epoch %d, scatter pinned %d",
			ErrEpochMismatch, idx, pq.id, f.Epoch, pq.epoch))
		return
	}
	if pq.frames[idx] != nil {
		pq.failLocked(fmt.Errorf("%w: worker %d delivered query %d twice", ErrProtocol, idx, pq.id))
		return
	}
	if !slices.EqualFunc(f.Reducers, pq.tasks[idx], func(o join.ReducerOutput, t join.ReducerTask) bool { return o.Reducer == t.Reducer }) {
		pq.failLocked(fmt.Errorf("%w: worker %d answered query %d for other reducers than it was sent", ErrProtocol, idx, pq.id))
		return
	}
	pq.frames[idx] = f
	pq.got++
	if pq.got == len(pq.frames) {
		pq.completed = true
		close(pq.done)
	}
}

func (c *Cluster) onFloor(idx int, f *FloorFrame) {
	pq := c.lookup(f.QueryID)
	if pq == nil {
		return // late floor for a completed query — expected, and a no-op
	}
	pq.peers[idx].advance(f.Floor)
	pq.mu.Lock()
	pq.floorFrames++
	pq.mu.Unlock()
	// Raising the master wakes the rebroadcaster, which forwards the
	// new floor to every other worker.
	pq.master.Raise(f.Floor)
}

func (c *Cluster) onError(idx int, f *ErrorFrame) {
	var err error
	switch f.Code {
	case CodeEpoch:
		err = fmt.Errorf("%w: worker %d: %s", ErrEpochMismatch, idx, f.Msg)
	case CodeFloorReplay:
		err = fmt.Errorf("%w: worker %d: %s", ErrFloorReplay, idx, f.Msg)
	case CodeLoad:
		err = fmt.Errorf("%w: worker %d: %s", ErrRemote, idx, f.Msg)
	default:
		err = fmt.Errorf("%w: worker %d: %s", ErrRemote, idx, f.Msg)
	}
	if f.Code == CodeLoad {
		// A replica that failed to load or append is unusable for every
		// future query, not just the one in flight.
		c.fail(err)
		return
	}
	if pq := c.lookup(f.QueryID); pq != nil {
		pq.fail(err)
		return
	}
	// An error for a query we never issued (e.g. a floor replay the
	// worker rejected) indicts the link, not one query.
	c.fail(err)
}

// LoadStore partitions st's resident buckets over the workers: the
// section layout becomes the manifest, and each worker receives its
// owned slice as a Load frame. The worker replica epoch starts at 0 ==
// st's current epoch; Append keeps them in lockstep from here.
func (c *Cluster) LoadStore(st *store.Store) error {
	if c.loaded {
		return fmt.Errorf("shard: cluster already loaded")
	}
	if err := c.health(); err != nil {
		return err
	}
	layout := st.SectionLayout()
	manifest := NewManifest(layout, len(c.links))
	nCols := st.NumCols()
	parts := manifest.Partition(layout, nCols)

	view := st.View()
	defer view.Release()
	grans := make([]stats.Granulation, nCols)
	for col := 0; col < nCols; col++ {
		grans[col] = st.Col(col).Granulation()
	}
	for s, part := range parts {
		cols := make([]store.MappedCol, nCols)
		for col := 0; col < nCols; col++ {
			mc := store.MappedCol{Col: col, Gran: grans[col]}
			for _, k := range part[col] {
				mc.Buckets = append(mc.Buckets, store.MappedBucket{
					StartG: k.StartG, EndG: k.EndG,
					Items: join.ItemsOf(view.Col(col), k.StartG, k.EndG),
				})
			}
			cols[col] = mc
		}
		if err := c.links[s].send(&LoadFrame{ShardID: s, Shards: len(c.links), Cols: cols}); err != nil {
			err = fmt.Errorf("%w: loading worker %d: %v", ErrWorkerLost, s, err)
			c.fail(err)
			return err
		}
	}
	c.manifest = manifest
	c.grans = grans
	c.loaded = true
	return nil
}

// Append forwards one coordinator append batch: the batch is split by
// bucket ownership and every worker — including those whose slice is
// empty — receives an Append frame, so every replica's epoch advances
// exactly once per batch. The caller must serialize Append against
// RunReducers (the engine's scatter gate).
func (c *Cluster) Append(col int, ivs []interval.Interval) error {
	if !c.loaded {
		return fmt.Errorf("shard: append before LoadStore")
	}
	if err := c.health(); err != nil {
		return err
	}
	if col < 0 || col >= len(c.grans) {
		return fmt.Errorf("shard: append names collection %d of %d", col, len(c.grans))
	}
	epoch := c.replicaEpoch.Add(1)
	parts := make([][]interval.Interval, len(c.links))
	gran := c.grans[col]
	for _, iv := range ivs {
		sg, eg := gran.BucketOf(iv)
		s := c.manifest.Owner(stats.BucketKey{Col: col, StartG: sg, EndG: eg})
		parts[s] = append(parts[s], iv)
	}
	for i, l := range c.links {
		if err := l.send(&AppendFrame{Epoch: epoch, Col: col, Items: parts[i]}); err != nil {
			err = fmt.Errorf("%w: appending to worker %d: %v", ErrWorkerLost, i, err)
			c.fail(err)
			return err
		}
	}
	return nil
}

// RunReducers implements join.Runner: drain req.Plan and split it over
// req.Reducers reducers with DTB (§3.4; one per worker when unset),
// place them on shards, ship foreign buckets, scatter, stream floors
// both ways, gather. The results are those of the same assignment's
// tasks run through join.RunTasks in one process. req.Shared is the
// execution's floor, which join.Run always passes here. The join's
// ablations (join.LocalOptions) run in process only: a request setting
// one is refused before anything is sent.
func (c *Cluster) RunReducers(ctx context.Context, req *join.ReduceRequest) (*join.RunnerOutput, error) {
	if !c.loaded {
		return nil, fmt.Errorf("shard: query before LoadStore")
	}
	if req.Opts != (join.LocalOptions{}) {
		return nil, fmt.Errorf("shard: join options %+v run in process only", req.Opts)
	}
	combos := req.Plan.Drain()
	if len(combos) == 0 {
		return &join.RunnerOutput{}, nil
	}
	reducers := req.Reducers
	if reducers <= 0 {
		reducers = len(c.links)
	}
	assign, err := distribute.Assign(distribute.AlgDTB, combos, reducers)
	if err != nil {
		return nil, err
	}

	// Vertex→collection mapping, identity when the request has none.
	mapping := req.Mapping
	if mapping == nil {
		mapping = make([]int, len(req.Srcs))
		for v := range mapping {
			mapping[v] = v
		}
	}
	// Collection-scoped source lookup for ownership sizing and bucket
	// shipping (two vertices on one collection share a source).
	colSrc := make(map[int]join.Source, len(req.Srcs))
	for v, src := range req.Srcs {
		colSrc[mapping[v]] = src
	}
	size := func(k stats.BucketKey) int {
		src := colSrc[k.Col]
		if src == nil {
			return 0
		}
		return len(join.ItemsOf(src, k.StartG, k.EndG))
	}
	pl := distribute.Place(assign, len(c.links), mapping, c.manifest.Owner, size)
	shardTasks := make([][]join.ReducerTask, len(c.links))
	for _, t := range assign.Tasks() {
		s := pl.ReducerShard[t.Reducer]
		shardTasks[s] = append(shardTasks[s], t)
	}

	id := c.nextID.Add(1)
	epoch := c.replicaEpoch.Load()
	master := req.Shared
	pq := &pendingQuery{
		id: id, epoch: epoch, master: master, tasks: shardTasks,
		scattered: make([]bool, len(c.links)),
		peers:     make([]peerFloor, len(c.links)),
		frames:    make([]*ResultFrame, len(c.links)),
		done:      make(chan struct{}),
	}
	c.pmu.Lock()
	if err := c.failed; err != nil {
		c.pmu.Unlock()
		return nil, err
	}
	c.pending[id] = pq
	c.pmu.Unlock()
	defer func() {
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
	}()

	// Rebroadcaster: watching before the scatter so no raise — even one
	// landing mid-scatter — is lost.
	defer master.Watch(func(v float64) { c.rebroadcast(pq, v) })()

	// Scatter. The per-link floor seed snapshots the master at encode
	// time; anything raised after that reaches the worker through the
	// rebroadcaster, whose ordering sendSeq guarantees.
	mScatters.Inc()
	scatterSpan := obs.SpanFrom(ctx).Child("scatter")
	if scatterSpan != nil {
		scatterSpan.SetInt("shards", int64(len(c.links)))
		scatterSpan.SetInt("shipped_buckets", int64(countShipped(pl.Shipped)))
		scatterSpan.SetInt("shipped_records", int64(pl.ShippedRecords))
	}
	for i, l := range c.links {
		i := i
		qf := &QueryFrame{
			QueryID: id,
			Epoch:   epoch,
			K:       req.K,
			Floor:   master.Load(),
			Query:   req.Query,
			Mapping: mapping,
			Combos:  combos,
			Tasks:   shardTasks[i],
			Shipped: shipBuckets(pl.Shipped[i], colSrc),
		}
		err := l.sendSeq(qf, func() {
			pq.mu.Lock()
			pq.scattered[i] = true
			pq.peers[i].advance(qf.Floor)
			pq.mu.Unlock()
		})
		if err != nil {
			c.fail(fmt.Errorf("%w: scattering query %d to worker %d: %v", ErrWorkerLost, id, i, err))
			break // pq is failed; the gather below returns its error
		}
	}

	scatterSpan.Finish()

	// Gather: all shards, a fault, or the caller's deadline — whichever
	// first. A failed or aborted query never yields partial results.
	gatherSpan := obs.SpanFrom(ctx).Child("gather")
	select {
	case <-pq.done:
	case <-ctx.Done():
		pq.fail(fmt.Errorf("shard: query %d aborted: %w", id, ctx.Err()))
		<-pq.done
	}
	pq.mu.Lock()
	err = pq.err
	frames := pq.frames
	floorFrames := pq.floorFrames
	pq.mu.Unlock()
	if gatherSpan != nil {
		gatherSpan.SetInt("floor_frames", floorFrames)
		gatherSpan.Finish()
	}
	if err != nil {
		return nil, err
	}
	mFloorFrames.Add(floorFrames)

	shippedBuckets := countShipped(pl.Shipped)
	mShippedBuckets.Add(int64(shippedBuckets))
	mShippedRecords.Add(int64(pl.ShippedRecords))
	var reducerOuts []join.ReducerOutput
	for _, f := range frames {
		for _, ro := range f.Reducers {
			// Fold each worker's final floor into the master so
			// Output.SharedFloor reports the true cluster-wide
			// threshold even if the last uplink raced completion.
			master.Raise(ro.Stats.SharedFloorFinal)
		}
		reducerOuts = append(reducerOuts, f.Reducers...)
	}
	out := assign.Gather(reducerOuts, req.Srcs)
	out.ShippedBuckets = shippedBuckets
	out.ShippedRecords = pl.ShippedRecords
	out.FloorFrames = floorFrames
	return out, nil
}

// rebroadcast pushes master floor v to every worker that has been
// scattered and is known to hold less. Send failures are left to the
// link read loop to diagnose.
func (c *Cluster) rebroadcast(pq *pendingQuery, v float64) {
	for i, l := range c.links {
		pq.mu.Lock()
		send := pq.scattered[i] && !pq.completed && pq.peers[i].advance(v)
		if send {
			pq.floorFrames++
		}
		pq.mu.Unlock()
		if send {
			_ = l.send(&FloorFrame{QueryID: pq.id, Floor: v})
		}
	}
}

// peerFloor is the highest score floor one side of a shard link knows
// its peer holds: the last value sent to it or received from it. A side
// sends a floor only when advance reports it news, which keeps a raise
// from echoing between coordinator and worker.
type peerFloor struct {
	mu sync.Mutex
	v  float64
}

// advance records that the peer holds v and reports whether that is
// higher than anything it was known to hold.
func (p *peerFloor) advance(v float64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !(v > p.v) {
		return false
	}
	p.v = v
	return true
}

// shipBuckets materializes one shard's shipping list from the
// coordinator's pinned sources.
func shipBuckets(keys []stats.BucketKey, colSrc map[int]join.Source) []ShippedBucket {
	out := make([]ShippedBucket, 0, len(keys))
	for _, k := range keys {
		src := colSrc[k.Col]
		var items []interval.Interval
		if src != nil {
			items = join.ItemsOf(src, k.StartG, k.EndG)
		}
		out = append(out, ShippedBucket{Col: k.Col, StartG: k.StartG, EndG: k.EndG, Items: items})
	}
	return out
}
