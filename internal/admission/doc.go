// Package admission is the serving layer's admission control: it sits
// between the public API (tkij.Server) and core.Engine and decides when
// a query may execute.
//
// A Server is a bounded FIFO queue in front of core.Engine.ExecuteMapped:
//
//   - At most Options.MaxInflight queries execute at once (by default
//     runtime.GOMAXPROCS(0): a local execution is one serial join pass,
//     so queries side by side are the engine's parallelism). Later
//     Submits wait in arrival order for a slot.
//   - At most Options.MaxQueue Submits wait; one more fails fast with
//     ErrQueueFull — backpressure instead of unbounded buffering.
//   - Every Submit carries its own context: cancellation or a deadline
//     fails that query alone, whether it is still queued or between
//     execution phases. Every accepted Submit is counted once as
//     completed, whatever its outcome.
//   - Each execution pins its own epoch view and releases it when it
//     returns, so the live views under continuous ingest are bounded by
//     MaxInflight (store.ViewStats is the regression metric).
//
// The work concurrent queries share needs no batching here. Planning is
// single-flighted inside the plan cache (internal/plancache): N
// concurrent first queries of one shape at one epoch pay for one
// TopBuckets solve, and the other N-1 read its result, per-edge bounds
// included (topbuckets.Combo.EdgeUB). Each execution owns its score
// floor (join.SharedFloor).
//
// A Submit executes exactly what Engine.ExecuteMapped executes, so its
// answer is the sequential one at its pinned epoch. The equivalence
// harness in this package asserts it against both the sequential engine
// and the naive oracle, including under interleaved appends.
//
// The Server also owns the engine's standing-query manager
// (Subscribe), since an engine carries at most one ingest hook.
package admission
