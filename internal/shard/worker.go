package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/rtree"
	"tkij/internal/store"
)

// Worker is one shard: a replica store holding its owned slice of the
// bucket partition, serving reducer tasks scattered by a coordinator.
// A worker's lifetime is its connection's: Serve runs until the link
// closes or turns hostile, and query aborts arrive as the link dying —
// Serve cancels a per-link context on return, so reducers still running
// for that link abandon mid-combination instead of finishing lists
// nobody will read.
//
// Pin discipline: a query's view is pinned synchronously in the read
// loop (frames on one link are ordered, so the pin happens before any
// later append can advance the replica) and released on every exit path
// of the executor — success, reducer failure, or a dead link. A worker
// holds zero live views whenever it has no in-flight queries.
type Worker struct {
	mu     sync.Mutex
	st     *store.Store
	active map[uint64]*workerQuery
	// maxSeen is the highest query id ever admitted. Floors for ids at
	// or below it target completed (or in-flight) queries and are
	// ignored when inactive; a floor above it names a query this worker
	// never admitted — a replayed or fabricated broadcast.
	maxSeen uint64
	// inflight counts running query executors; idle (condition on mu)
	// signals it reaching zero. A plain WaitGroup would race its Add
	// against a concurrent Quiesce when the counter passes through zero.
	inflight int
	idle     sync.Cond
}

// workerQuery is one in-flight query's floor state.
type workerQuery struct {
	// floor is the query's worker-local shared floor, seeded from the
	// scatter frame and raised by local reducers and coordinator
	// rebroadcasts.
	floor *join.SharedFloor
	// coordinator is the highest floor the coordinator is known to hold
	// (it sent it, or the uplink did) — the guard that keeps a
	// rebroadcast from echoing back.
	coordinator peerFloor
}

// NewWorker returns an empty worker awaiting its Load frame.
func NewWorker() *Worker {
	w := &Worker{active: make(map[uint64]*workerQuery)}
	w.idle.L = &w.mu
	return w
}

// Store exposes the replica store (nil before the Load frame) — used by
// tests to assert pin-release and epoch invariants.
func (w *Worker) Store() *store.Store {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.st
}

// Quiesce blocks until every in-flight query executor has exited.
func (w *Worker) Quiesce() {
	w.mu.Lock()
	for w.inflight > 0 {
		w.idle.Wait()
	}
	w.mu.Unlock()
}

// frameWriter serializes frame writes from the read loop, query
// executors, and floor uplinks onto one connection.
type frameWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (fw *frameWriter) send(f Frame) error {
	b, err := EncodeFrame(f)
	if err != nil {
		return err
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	_, err = fw.w.Write(b)
	return err
}

// Serve runs the worker's frame loop on conn until the link closes (nil
// on a clean close between frames) or a fatal frame arrives. Fatal
// failures send a best-effort error frame before the link drops.
func (w *Worker) Serve(conn io.ReadWriteCloser) error {
	defer conn.Close()
	// The link owns its queries' lifetime: once the read loop exits no
	// result can be delivered, so in-flight reducers are told to stop.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fw := &frameWriter{w: conn}
	br := bufio.NewReaderSize(conn, 1<<16)
	for {
		f, err := ReadFrame(br)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		switch f := f.(type) {
		case *LoadFrame:
			err = w.handleLoad(f, fw)
		case *AppendFrame:
			err = w.handleAppend(f, fw)
		case *QueryFrame:
			err = w.handleQuery(ctx, f, fw)
		case *FloorFrame:
			err = w.handleFloor(f, fw)
		default:
			err = errf("worker cannot handle frame kind %d", f.kind())
		}
		if err != nil {
			return err
		}
	}
}

func (w *Worker) handleLoad(f *LoadFrame, fw *frameWriter) error {
	w.mu.Lock()
	loaded := w.st != nil
	w.mu.Unlock()
	if loaded {
		err := fmt.Errorf("%w: shard %d loaded twice", ErrRemote, f.ShardID)
		_ = fw.send(&ErrorFrame{Code: CodeLoad, Msg: err.Error()})
		return err
	}
	st, err := store.BuildSealed(f.Cols, nil)
	if err != nil {
		err = fmt.Errorf("%w: shard %d load: %v", ErrRemote, f.ShardID, err)
		_ = fw.send(&ErrorFrame{Code: CodeLoad, Msg: err.Error()})
		return err
	}
	w.mu.Lock()
	w.st = st
	w.mu.Unlock()
	return nil
}

func (w *Worker) handleAppend(f *AppendFrame, fw *frameWriter) error {
	w.mu.Lock()
	st := w.st
	w.mu.Unlock()
	if st == nil {
		err := fmt.Errorf("%w: append before load", ErrRemote)
		_ = fw.send(&ErrorFrame{Code: CodeLoad, Msg: err.Error()})
		return err
	}
	if f.Col >= st.NumCols() {
		err := fmt.Errorf("%w: append names collection %d of %d", ErrRemote, f.Col, st.NumCols())
		_ = fw.send(&ErrorFrame{Code: CodeLoad, Msg: err.Error()})
		return err
	}
	epoch, err := st.AppendEpoch(f.Col, f.Items)
	if err != nil {
		err = fmt.Errorf("%w: append: %v", ErrRemote, err)
		_ = fw.send(&ErrorFrame{Code: CodeLoad, Msg: err.Error()})
		return err
	}
	if epoch != f.Epoch {
		err = fmt.Errorf("%w: replica landed on epoch %d, append expected %d", ErrEpochMismatch, epoch, f.Epoch)
		_ = fw.send(&ErrorFrame{Code: CodeEpoch, Msg: err.Error()})
		return err
	}
	return nil
}

func (w *Worker) handleQuery(ctx context.Context, f *QueryFrame, fw *frameWriter) error {
	w.mu.Lock()
	st := w.st
	w.mu.Unlock()
	if st == nil {
		err := fmt.Errorf("%w: query before load", ErrRemote)
		_ = fw.send(&ErrorFrame{QueryID: f.QueryID, Code: CodeExec, Msg: err.Error()})
		return err
	}
	q := f.Query
	if len(f.Mapping) != q.NumVertices {
		err := fmt.Errorf("%w: query %s has %d vertices but %d mappings",
			ErrRemote, q.Name, q.NumVertices, len(f.Mapping))
		_ = fw.send(&ErrorFrame{QueryID: f.QueryID, Code: CodeExec, Msg: err.Error()})
		return err
	}
	for v, col := range f.Mapping {
		if col >= st.NumCols() {
			err := fmt.Errorf("%w: vertex %d maps to collection %d of %d", ErrRemote, v, col, st.NumCols())
			_ = fw.send(&ErrorFrame{QueryID: f.QueryID, Code: CodeExec, Msg: err.Error()})
			return err
		}
	}

	// Pin here, in the read loop: frames on one link are ordered, so no
	// append processed after this point can change what the query sees.
	view := st.View()
	if view.Epoch() != f.Epoch {
		view.Release()
		// Not fatal for the link: the coordinator decides what a
		// diverged replica means for the query.
		return fw.send(&ErrorFrame{
			QueryID: f.QueryID, Code: CodeEpoch,
			Msg: fmt.Sprintf("replica at epoch %d, query expects %d", view.Epoch(), f.Epoch),
		})
	}

	wq := &workerQuery{floor: join.NewSharedFloor(f.Floor)}
	wq.coordinator.advance(f.Floor)
	w.mu.Lock()
	if w.active[f.QueryID] != nil {
		w.mu.Unlock()
		view.Release()
		err := fmt.Errorf("%w: query %d scattered twice", ErrRemote, f.QueryID)
		_ = fw.send(&ErrorFrame{QueryID: f.QueryID, Code: CodeExec, Msg: err.Error()})
		return err
	}
	w.active[f.QueryID] = wq
	if f.QueryID > w.maxSeen {
		w.maxSeen = f.QueryID
	}
	w.inflight++
	w.mu.Unlock()

	go w.execute(ctx, f, wq, view, fw)
	return nil
}

func (w *Worker) handleFloor(f *FloorFrame, fw *frameWriter) error {
	w.mu.Lock()
	wq := w.active[f.QueryID]
	maxSeen := w.maxSeen
	w.mu.Unlock()
	if wq != nil {
		// Record the coordinator's knowledge before raising, so the
		// uplink never echoes this exact value back.
		wq.coordinator.advance(f.Floor)
		wq.floor.Raise(f.Floor)
		return nil
	}
	if f.QueryID <= maxSeen {
		// A floor racing the query's completion — expected, and a no-op.
		return nil
	}
	err := fmt.Errorf("%w: floor for query %d, which was never admitted (last admitted %d)",
		ErrFloorReplay, f.QueryID, maxSeen)
	_ = fw.send(&ErrorFrame{QueryID: f.QueryID, Code: CodeFloorReplay, Msg: err.Error()})
	return err
}

// execute runs one query's reducer tasks and writes the result (or
// error) frame. It owns the view and releases it on every path.
func (w *Worker) execute(ctx context.Context, f *QueryFrame, wq *workerQuery, view *store.View, fw *frameWriter) {
	// Declared first so it runs last: by the time Quiesce unblocks, the
	// view is already released and the query deregistered.
	defer func() {
		w.mu.Lock()
		w.inflight--
		if w.inflight == 0 {
			w.idle.Broadcast()
		}
		w.mu.Unlock()
	}()
	defer view.Release()
	defer func() {
		w.mu.Lock()
		delete(w.active, f.QueryID)
		w.mu.Unlock()
	}()

	// Floor uplink: mirror local raises to the coordinator, once each.
	// Send failures are left to the read loop, which sees the link die.
	defer wq.floor.Watch(func(v float64) {
		if wq.coordinator.advance(v) {
			_ = fw.send(&FloorFrame{QueryID: f.QueryID, Floor: v})
		}
	})()

	reducers, err := runTasks(ctx, f, wq, view)
	if err != nil {
		_ = fw.send(&ErrorFrame{QueryID: f.QueryID, Code: CodeExec, Msg: err.Error()})
		return
	}
	_ = fw.send(&ResultFrame{QueryID: f.QueryID, Epoch: f.Epoch, Reducers: reducers})
}

func runTasks(ctx context.Context, f *QueryFrame, wq *workerQuery, view *store.View) ([]join.ReducerOutput, error) {
	q := f.Query

	// Foreign buckets shipped with the query, collection-scoped. They
	// are disjoint from the shard's resident buckets by construction,
	// but shadow them regardless — the shipped payload is what the
	// coordinator certified for this epoch.
	shipped := make(map[int]map[[2]int]*shippedBucket)
	for i := range f.Shipped {
		sb := &f.Shipped[i]
		m := shipped[sb.Col]
		if m == nil {
			m = make(map[[2]int]*shippedBucket)
			shipped[sb.Col] = m
		}
		m[[2]int{sb.StartG, sb.EndG}] = &shippedBucket{items: sb.Items}
	}
	srcs := make([]join.Source, q.NumVertices)
	for v := range srcs {
		col := f.Mapping[v]
		cv := view.Col(col)
		if m := shipped[col]; m != nil {
			srcs[v] = &overlaySource{res: cv, extra: m}
		} else {
			srcs[v] = cv
		}
	}

	// Every non-empty combo bucket must resolve — resident or shipped.
	// A silent miss here would compute a confidently wrong top-k, so it
	// is checked up front.
	for _, t := range f.Tasks {
		for _, ci := range t.Combos {
			for _, b := range f.Combos[ci].Buckets {
				if b.Col < 0 || b.Col >= len(srcs) {
					return nil, fmt.Errorf("combo bucket %v names vertex %d of %d", b, b.Col, len(srcs))
				}
				if b.Count > 0 && len(join.ItemsOf(srcs[b.Col], b.StartG, b.EndG)) == 0 {
					return nil, fmt.Errorf("combo bucket %v neither resident nor shipped", b)
				}
			}
		}
	}

	return join.RunTasks(ctx, &join.ReduceRequest{Query: q, Srcs: srcs, K: f.K, Shared: wq.floor}, f.Combos, f.Tasks)
}

// shippedBucket is one foreign bucket's payload with a lazily memoized
// R-tree (shared safely across the worker's parallel reducer tasks). It
// is the join's bucket handle for a shipped bucket.
type shippedBucket struct {
	items []interval.Interval
	once  sync.Once
	tree  *rtree.Tree
}

func (b *shippedBucket) Items() []interval.Interval { return b.items }

func (b *shippedBucket) Search(box rtree.Rect, fn func(ref int32) bool) {
	b.once.Do(func() { b.tree = store.TreeOf(b.items) })
	b.tree.Search(box, func(p rtree.Point) bool { return fn(p.Ref) })
}

// overlaySource layers shipped foreign buckets over the shard's
// resident (pinned) partition for one collection.
type overlaySource struct {
	res   *store.ColView
	extra map[[2]int]*shippedBucket
}

func (o *overlaySource) Bucket(startG, endG int) join.Bucket {
	if b := o.extra[[2]int{startG, endG}]; b != nil {
		return b
	}
	return o.res.Bucket(startG, endG)
}
