package core

// Engine-level distributed-execution tests: fault injection against
// scripted TCP workers (the engine must surface the shard error
// taxonomy and leak no pinned views), and a -race exercise of the
// concurrent floor-broadcast / append / scatter machinery.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"tkij/internal/distribute"
	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/shard"
)

func shardTestCols(seed int64) []*interval.Collection {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*interval.Collection, 3)
	for i := range cols {
		c := &interval.Collection{Name: fmt.Sprintf("C%d", i)}
		for j := 0; j < 60; j++ {
			s := rng.Int63n(1500)
			c.Add(interval.Interval{ID: int64(i)*1_000_000 + int64(j), Start: s, End: s + 1 + rng.Int63n(90)})
		}
		cols[i] = c
	}
	return cols
}

func shardTestQuery(cols []*interval.Collection) *query.Query {
	env := query.Env{Params: scoring.P1, Avg: interval.AvgLength(cols...)}
	return query.Qbb(env)
}

// scriptedWorker listens on loopback and serves every accepted
// connection with handle (a nil return from handle keeps reading; an
// error closes the connection). It speaks real frames, so the engine's
// coordinator cannot tell it from a genuine worker until it misbehaves.
func scriptedWorker(t *testing.T, handle func(shard.Frame, net.Conn) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					f, err := shard.ReadFrame(conn)
					if err != nil {
						return
					}
					if err := handle(f, conn); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// A worker that dies on the scatter frame: the execution fails with the
// distinct worker-lost error, no partial results leak out, the
// coordinator's pinned view is released, and the cluster stays poisoned
// (fail-fast, reported by Health) for the engine's lifetime.
func TestShardedEngineWorkerCrash(t *testing.T) {
	addr := scriptedWorker(t, func(f shard.Frame, conn net.Conn) error {
		if _, isQuery := f.(*shard.QueryFrame); isQuery {
			return errors.New("scripted crash")
		}
		return nil
	})
	cols := shardTestCols(21)
	e, err := NewEngine(cols, Options{Granules: 5, K: 6, Reducers: 3, ShardAddrs: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := shardTestQuery(cols)

	report, err := e.Execute(context.Background(), q)
	if report != nil || !errors.Is(err, shard.ErrWorkerLost) {
		t.Fatalf("Execute = (%v, %v), want (nil, ErrWorkerLost)", report, err)
	}
	// Poisoned: every later execution fails fast with the original cause.
	for i := 0; i < 3; i++ {
		if _, err := e.Execute(context.Background(), q); !errors.Is(err, shard.ErrWorkerLost) {
			t.Fatalf("execution %d on the poisoned cluster returned %v, want ErrWorkerLost", i, err)
		}
	}
	if err := e.Health(); !errors.Is(err, shard.ErrWorkerLost) {
		t.Fatalf("Health() = %v, want it to wrap ErrWorkerLost", err)
	}
	if vs := e.StoreViewStats(); vs.Live != 0 {
		t.Fatalf("%d live views after failed executions", vs.Live)
	}
}

// A hung worker (accepts everything, answers nothing) is bounded by the
// query deadline and surfaces as the engine's cancellation taxonomy:
// errors.Is for both core.ErrCanceled and context.DeadlineExceeded.
func TestShardedEngineWorkerHang(t *testing.T) {
	addr := scriptedWorker(t, func(shard.Frame, net.Conn) error { return nil })
	cols := shardTestCols(22)
	e, err := NewEngine(cols, Options{Granules: 5, K: 6, Reducers: 3, ShardAddrs: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	report, err := e.Execute(ctx, shardTestQuery(cols))
	if report != nil {
		t.Fatalf("hung worker yielded a report: %+v", report)
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Execute err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if vs := e.Store().ViewStats(); vs.Live != 0 {
		t.Fatalf("%d live views after deadline abort", vs.Live)
	}
}

// A worker answering with garbage bytes is a protocol violation,
// distinct from a lost worker.
func TestShardedEngineTornFrame(t *testing.T) {
	addr := scriptedWorker(t, func(f shard.Frame, conn net.Conn) error {
		if _, isQuery := f.(*shard.QueryFrame); isQuery {
			_, _ = conn.Write([]byte("not a frame, definitely"))
			return errors.New("done")
		}
		return nil
	})
	cols := shardTestCols(23)
	e, err := NewEngine(cols, Options{Granules: 5, K: 6, Reducers: 3, ShardAddrs: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	report, err := e.Execute(context.Background(), shardTestQuery(cols))
	if report != nil || !errors.Is(err, shard.ErrProtocol) {
		t.Fatalf("Execute = (%v, %v), want (nil, ErrProtocol)", report, err)
	}
	if vs := e.Store().ViewStats(); vs.Live != 0 {
		t.Fatalf("%d live views after protocol abort", vs.Live)
	}
}

// The paper's cost metrics are runner-independent: a cluster's
// routed-reference accounting and per-reducer Locals equal those of the
// same DTB assignment run through join.RunTasks in one process, routed
// references weigh exactly the assignment's replication metric, and
// per-reducer wall time travels on the wire (LocalStats.Duration), so a
// sharded run reports a populated imbalance and critical path (Fig.
// 8b/10b) — and, for a reducer DTB assigned nothing, the index-only
// Locals entry.
func TestShardedReportMetrics(t *testing.T) {
	cols := shardTestCols(25)
	q := shardTestQuery(cols)
	mapping := []int{0, 1, 2}
	// More reducers than TopBuckets selects combinations, so some
	// reducer is certainly assigned none.
	const k, reducers = 6, 200
	for _, shards := range []int{2, 3, 5} {
		e, err := NewEngine(cols, Options{Granules: 5, K: k, Reducers: reducers, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ShardCount != shards {
			t.Fatalf("report says %d shards, want %d", rep.ShardCount, shards)
		}
		if rep.Imbalance() <= 0 || rep.Join.JoinMetrics.MaxReduceDuration() <= 0 {
			t.Fatalf("%d shards: imbalance %g, max reduce duration %v; want both > 0",
				shards, rep.Imbalance(), rep.Join.JoinMetrics.MaxReduceDuration())
		}

		ref, assign := runAssigned(t, e, rep, mapping, k, reducers)
		if !reflect.DeepEqual(rep.Results, ref.Results) {
			t.Fatalf("%d shards: results differ from the same assignment run in one process", shards)
		}
		if rep.Join.RoutedBucketEntries != ref.RoutedBucketEntries ||
			rep.Join.RoutedIntervalRecords != ref.RoutedIntervalRecords ||
			rep.Join.RoutedIntervalRecords != assign.ReplicatedRecords {
			t.Fatalf("%d shards routed %d refs / %g records, in-process %d / %g, assignment replicates %g", shards,
				rep.Join.RoutedBucketEntries, rep.Join.RoutedIntervalRecords,
				ref.RoutedBucketEntries, ref.RoutedIntervalRecords, assign.ReplicatedRecords)
		}
		if len(rep.Join.Locals) != reducers || len(ref.Locals) != reducers {
			t.Fatalf("%d shards: %d Locals entries (in-process %d) for %d reducers", shards, len(rep.Join.Locals), len(ref.Locals), reducers)
		}
		idle := 0
		for rj, want := range ref.Locals {
			got := rep.Join.Locals[rj]
			if got.BucketRefsRouted != want.BucketRefsRouted || got.RoutedIntervals != want.RoutedIntervals ||
				got.CombosAssigned != want.CombosAssigned {
				t.Fatalf("%d shards: reducer %d reports %+v, in-process %+v", shards, rj, got, want)
			}
			if want.CombosAssigned > 0 {
				continue
			}
			idle++
			if got != want {
				t.Fatalf("%d shards: idle reducer %d reports %+v, in-process %+v", shards, rj, got, want)
			}
		}
		if idle == 0 {
			t.Fatal("every reducer was assigned combinations — the idle-reducer case went unexercised")
		}
		e.Close()
	}
}

// runAssigned joins, in this process on a fresh pin of e, the DTB
// assignment over the given reducers that a sharded engine's
// coordinator makes of rep's selection, seeded like the engine seeds
// its floor. e must be at rep's epoch.
func runAssigned(t *testing.T, e *Engine, rep *Report, mapping []int, k, reducers int) (*join.Output, *distribute.Assignment) {
	t.Helper()
	assign, err := distribute.Assign(distribute.AlgDTB, rep.TopBuckets.Drain(), reducers)
	if err != nil {
		t.Fatal(err)
	}
	pin, err := e.Pin()
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	_, req := e.pinnedInputs(rep.Query, mapping, pin, k)
	req.Plan, req.Shared = rep.TopBuckets, join.NewSharedFloor(rep.TopBuckets.KthResLB)
	out, err := join.Run(context.Background(), req, assign)
	if err != nil {
		t.Fatal(err)
	}
	return out, assign
}

// The -race exercise: concurrent sharded executions (floor broadcasts
// rising and fanning out to remote reducers, which early-terminate and
// uplink their own raises) interleaved with coordinator-side appends.
// Every execution must observe one consistent epoch across all shards
// (the coordinator cross-checks each shard's served epoch against the
// scatter epoch, so a violation fails the query), and the run must
// leave zero live views anywhere.
func TestShardedEngineConcurrentRace(t *testing.T) {
	cols := shardTestCols(24)
	e, err := NewEngine(cols, Options{Granules: 6, K: 8, Reducers: 4, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := shardTestQuery(cols)

	const executors = 4
	const queriesEach = 6
	var wg sync.WaitGroup
	errCh := make(chan error, executors*queriesEach+16)
	for g := 0; g < executors; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				report, err := e.Execute(context.Background(), q)
				if err != nil {
					errCh <- err
					return
				}
				if report.ShardCount != 3 {
					errCh <- fmt.Errorf("report says %d shards, want 3", report.ShardCount)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(77))
		for b := 0; b < 5; b++ {
			batch := make([]interval.Interval, 8)
			for i := range batch {
				s := rng.Int63n(1500)
				batch[i] = interval.Interval{ID: int64(5_000_000 + b*100 + i), Start: s, End: s + 1 + rng.Int63n(90)}
			}
			if _, err := e.Append(b%len(cols), batch); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if vs := e.Store().ViewStats(); vs.Live != 0 {
		t.Fatalf("%d live coordinator views after the run", vs.Live)
	}
	finalEpoch := e.Epoch()
	for i, w := range e.ShardWorkers() {
		w.Quiesce()
		if vs := w.Store().ViewStats(); vs.Live != 0 {
			t.Fatalf("worker %d holds %d live views after the run", i, vs.Live)
		}
		if got := w.Store().Epoch(); got != finalEpoch {
			t.Fatalf("worker %d replica at epoch %d, coordinator at %d", i, got, finalEpoch)
		}
	}
}
