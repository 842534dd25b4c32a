package standing

import "tkij/internal/obs"

var (
	mCycles = obs.NewCounter("tkij_standing_cycles_total",
		"Ingest-notification push cycles served (one pin each).")
	mCycleSeconds = obs.NewHistogram("tkij_standing_cycle_seconds",
		"Push-cycle latency in seconds (all subscriptions, one pin).", nil)
	mRoutePromote = obs.NewCounterL("tkij_standing_routing_total",
		"Push-cycle routing decisions per subscription.", obs.Labels{"route": "promote"})
	mRoutePush = obs.NewCounterL("tkij_standing_routing_total",
		"Push-cycle routing decisions per subscription.", obs.Labels{"route": "push"})
	mProbedCombos = obs.NewCounter("tkij_standing_probed_combos_total",
		"Combinations the pushes' executions read from their plans.")
	mDroppedDeltas = obs.NewCounter("tkij_standing_dropped_deltas_total",
		"Incremental deltas coalesced away by the slow-subscriber policy.")
)
