// Package admission is the serving layer's admission and batching
// subsystem: it sits between the public API (tkij.Server) and
// core.Engine, turning a stream of concurrent queries into a stream of
// batches that share work.
//
// TKIJ pays its query-time cost in the TopBuckets bound solve and the
// per-combination join probes. Without batching, N concurrent queries
// over one dataset each pin their own epoch view and redo overlapping
// bucket work; the plan cache only helps a shape that repeats *after*
// an earlier miss completed. The Batcher closes both gaps:
//
//   - Windowed admission. A query entering an empty queue opens a short
//     batching window (Options.Window); arrivals during it join the
//     same batch, which cuts early at Options.MaxBatch. A queue at
//     Options.MaxQueue rejects further Submits with ErrQueueFull —
//     backpressure instead of unbounded buffering — and every member
//     carries its own context, so a per-query deadline cancels that
//     query alone, between phases.
//
//   - One pinned epoch per batch. Each batch executes against a single
//     core.Pin (one store.View shared by every member), so the number
//     of live epoch views under continuous ingest is bounded by
//     Options.MaxInflight — the in-flight batch cap — rather than by
//     the number of in-flight queries (store.ViewStats is the
//     regression metric).
//
//   - Single-flighted planning. Members are grouped by canonical plan
//     key (Pin.PlanKey); one leader per distinct key warms the plan
//     cache at the pinned epoch, so N concurrent misses on one shape
//     pay for one TopBuckets solve and the other N-1 members execute as
//     pure cache hits.
//
//   - Shared floors. The batch keeps one join.SharedFloor per plan-key
//     group and hands it to each member's core.Engine.ExecutePinned:
//     members with the same plan key on the batch's one pin share one
//     cross-reducer score floor (identical result-score multisets make
//     one member's certified k-th-score bound a sound floor for its
//     siblings), and no other executions do. Their per-edge
//     combination bounds are memoized with the cached plan they all hit
//     (solver.PairMemo), so siblings — and later batches — solve none.
//
// Batched execution is result-identical to sequential execution at the
// same epoch: everything shared is either a pure function of its key
// (plans, bounds) or a certified-sound pruning floor. The equivalence
// harness in this package asserts it against both the sequential engine
// and the naive oracle, including under interleaved appends.
package admission
