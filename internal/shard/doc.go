// Package shard executes the distributed join across N shard workers —
// the paper's cluster made real inside one binary (or across several):
// the resident bucket store is split per bucket over the workers using
// the snapshot section layout as the shard manifest, DTB reducers are
// placed round-robin on the workers, and each query is scattered over a
// length-prefixed binary wire protocol and gathered back into the
// ordinary merge phase. The query frame carries every combination's
// edge UBs as its plan solved them, so a worker bounds nothing: it runs
// its reducer tasks through join.RunTasks — the same executor the
// in-process runner uses — under a per-link context, so a dropped link
// stops its reducers.
//
// The pruning story survives the network: the coordinator owns the
// query's cross-reducer score floor (join.SharedFloor) and streams its
// raises to every worker, while each worker streams its own raises back
// up — so a reducer on shard 2 early-terminates on a threshold
// certified by a reducer on shard 0, exactly as two in-process reducers
// do through shared memory. Floor delivery timing is immaterial to the
// result: the floor is a certified lower bound on the global k-th
// score, so any result it prunes could never reach the top-k; a
// duplicate or late broadcast is a no-op by Raise's monotonicity.
//
// Transports: InProcess wires coordinator and workers over net.Pipe
// (the engine's Options.Shards path and the test harness); Dial
// connects to cmd/tkij-worker processes over TCP. Both speak the same
// frames, so every in-process test exercises the real protocol.
package shard
