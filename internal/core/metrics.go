package core

import "tkij/internal/obs"

// Package instruments, registered once in the obs.Default registry.
// Recording is atomic and allocation-free, so the hot execute path pays
// a handful of uncontended atomic adds whether or not a scraper is
// attached.
var (
	mQueries = obs.NewCounter("tkij_core_queries_total",
		"Completed query executions (Execute/ExecutePinned).")
	mQueryErrors = obs.NewCounter("tkij_core_query_errors_total",
		"Query executions that returned an error (including cancellation).")
	mQuerySeconds = obs.NewHistogram("tkij_core_query_seconds",
		"End-to-end query execution latency in seconds.", nil)

	mPhaseTopBuckets = obs.NewHistogramL("tkij_core_phase_seconds",
		"Per-phase query latency in seconds.", obs.Labels{"phase": "topbuckets"}, nil)
	mPhaseJoin = obs.NewHistogramL("tkij_core_phase_seconds",
		"Per-phase query latency in seconds.", obs.Labels{"phase": "join"}, nil)
	mPhaseMerge = obs.NewHistogramL("tkij_core_phase_seconds",
		"Per-phase query latency in seconds.", obs.Labels{"phase": "merge"}, nil)

	mPlanHit = obs.NewCounterL("tkij_plancache_outcome_total",
		"Plan-cache outcomes per execution.", obs.Labels{"outcome": "hit"})
	mPlanRevalidated = obs.NewCounterL("tkij_plancache_outcome_total",
		"Plan-cache outcomes per execution.", obs.Labels{"outcome": "revalidated"})
	mPlanMiss = obs.NewCounterL("tkij_plancache_outcome_total",
		"Plan-cache outcomes per execution.", obs.Labels{"outcome": "miss"})

	mAppends = obs.NewCounter("tkij_core_appends_total",
		"Successful streaming-ingest batches (Engine.Append).")
	mAppendIntervals = obs.NewCounter("tkij_core_append_intervals_total",
		"Intervals ingested across all append batches.")
	mAppendSeconds = obs.NewHistogram("tkij_core_append_seconds",
		"Append batch latency in seconds (including the ingest hook).", nil)
)
