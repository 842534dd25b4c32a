package core

import (
	"fmt"
	"slices"
	"time"

	"tkij/internal/interval"
	"tkij/internal/stats"
)

// SetIngestHook registers fn to be called after every successful Append
// that publishes a new store epoch, outside the engine lock, so fn may
// pin and execute. fn must return quickly and never block; it is a
// change notification, not a callback to do work in (the standing
// manager's hook nudges its dispatcher and returns). One hook is
// supported; nil clears it.
func (e *Engine) SetIngestHook(fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ingestHook = fn
}

// Append routes a batch of new intervals for collection col through the
// streaming-ingest path and returns the store epoch at which the batch
// became visible: the collection grows, the collection's bucket matrix
// is maintained incrementally (stats.ApplyUpdate — endpoints
// outside the original granulation clamp to the boundary granules, the
// granulation itself is kept fixed), and the bucket store publishes a
// new epoch whose untouched buckets keep their memoized R-trees. No
// statistics job runs and no store rebuild happens.
//
// It is safe to call concurrently with Execute: in-flight queries pin
// their epoch at admission and never observe a partial batch. Appends
// themselves serialize. On an engine whose offline phase has not run
// yet, the batch simply extends the collection (epoch 0) and is picked
// up by the first preparation.
func (e *Engine) Append(col int, ivs []interval.Interval) (int64, error) {
	if col < 0 || col >= len(e.cols) {
		return 0, fmt.Errorf("core: append to collection %d of %d", col, len(e.cols))
	}
	for _, iv := range ivs {
		if !iv.Valid() {
			return 0, fmt.Errorf("core: appending invalid interval %v", iv)
		}
	}
	span := e.opts.Tracer.Root("append")
	start := time.Now()
	epoch, hook, err := e.appendLocked(col, ivs)
	if err != nil {
		if span != nil {
			span.SetStr("error", err.Error())
			span.Finish()
		}
		return 0, err
	}
	// The hook fires after the epoch is published and the engine lock
	// is released, so it may pin the fresh epoch immediately. The
	// standing manager's push cycles run from this nudge, so the append
	// span (and latency histogram) deliberately includes it.
	if hook != nil {
		hook()
	}
	mAppends.Inc()
	mAppendIntervals.Add(int64(len(ivs)))
	mAppendSeconds.ObserveDuration(time.Since(start))
	if span != nil {
		span.SetInt("col", int64(col))
		span.SetInt("intervals", int64(len(ivs)))
		span.SetInt("epoch", epoch)
		span.Finish()
	}
	return epoch, nil
}

// appendLocked is Append's critical section; it returns the ingest hook
// to fire (nil when no new epoch was published) alongside the epoch.
func (e *Engine) appendLocked(col int, ivs []interval.Interval) (int64, func(), error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(ivs) == 0 {
		if e.store != nil {
			return e.store.Epoch(), nil, nil
		}
		return 0, nil, nil
	}
	e.cols[col].Items = append(e.cols[col].Items, ivs...)
	if e.matrices != nil {
		// Copy-on-write: queries in flight captured the old matrices
		// slice and must keep reading the pre-append counts their pinned
		// store epoch corresponds to.
		m := e.matrices[col].Clone()
		if err := stats.ApplyUpdate(m, ivs); err != nil {
			return 0, nil, err
		}
		ms := slices.Clone(e.matrices)
		ms[col] = m
		e.matrices = ms
	}
	if e.store == nil {
		return 0, nil, nil
	}
	if e.cluster == nil {
		epoch, err := e.store.Append(col, ivs)
		if err != nil {
			return 0, nil, err
		}
		return epoch, e.ingestHook, nil
	}
	// Grow the coordinator store and the worker replicas in lockstep,
	// with no pinned query in flight: pins hold the gate's read side, so
	// the epoch a query scattered at is always the epoch the replicas
	// serve. (Lock order is e.mu then shardGate everywhere; pin Release
	// needs neither, so waiting here cannot deadlock.)
	e.shardGate.Lock()
	defer e.shardGate.Unlock()
	epoch, err := e.store.Append(col, ivs)
	if err != nil {
		return 0, nil, err
	}
	if err := e.cluster.Append(col, ivs); err != nil {
		// The replicas are now behind the coordinator; the cluster has
		// poisoned itself, so distributed executions fail fast rather
		// than serve a stale epoch, for the engine's lifetime (Health
		// reports it; recovery is a new engine).
		return 0, nil, fmt.Errorf("core: shard replicas lost append epoch %d: %w", epoch, err)
	}
	return epoch, e.ingestHook, nil
}

// Epoch returns the store's current ingest epoch: 0 until the first
// Append after preparation, +1 per applied batch. It never goes back.
func (e *Engine) Epoch() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store == nil {
		return 0
	}
	return e.store.Epoch()
}
