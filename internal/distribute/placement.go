package distribute

import (
	"slices"

	"tkij/internal/stats"
)

// Placement maps one workload assignment onto N shard workers for
// scatter-gather execution. Reducers are placed round-robin (reducer rj
// runs on shard rj mod N), which spreads DTB's balanced reducer loads
// evenly across workers without re-solving the assignment. A reducer's
// combinations reference buckets the shard manifest may have placed on
// other workers; those buckets must be shipped with the query, and the
// Placement is the shipping plan: which collection-scoped buckets each
// shard needs but does not own, plus the interval weight of that
// shipping — the network-traffic sibling of the replication cost DTB
// minimizes (Assignment.ReplicatedRecords).
type Placement struct {
	// Shards is the worker count N.
	Shards int
	// ReducerShard[rj] is the shard executing reducer rj.
	ReducerShard []int
	// Shipped[s] lists the collection-scoped bucket keys shard s's
	// reducers touch but the shard does not own, in canonical
	// (col, startG, endG) order. Resident buckets are read in place on
	// the worker and never appear here.
	Shipped [][]stats.BucketKey
	// ShippedRecords is the total interval weight of Shipped — each
	// shipped bucket's resident size summed over shards (a bucket two
	// shards need is counted twice; it travels twice).
	ShippedRecords float64
}

// Place computes the shard placement of assign over N shards. The
// assignment's bucket keys are vertex-scoped; mapping resolves vertex v
// to its collection (nil = identity). owner returns the owning shard of
// a collection-scoped bucket key (the shard manifest), and size its
// resident interval count at the query's pinned epoch.
func Place(assign *Assignment, shards int, mapping []int,
	owner func(stats.BucketKey) int, size func(stats.BucketKey) int) *Placement {

	p := &Placement{
		Shards:       shards,
		ReducerShard: make([]int, assign.Reducers),
		Shipped:      make([][]stats.BucketKey, shards),
	}
	for rj := 0; rj < assign.Reducers; rj++ {
		p.ReducerShard[rj] = rj % shards
	}

	ship := make([]map[stats.BucketKey]bool, shards)
	for s := range ship {
		ship[s] = make(map[stats.BucketKey]bool)
	}
	for key, reducers := range assign.BucketReducers {
		ckey := key
		if mapping != nil {
			ckey.Col = mapping[key.Col]
		}
		own := owner(ckey)
		for _, rj := range reducers {
			if s := p.ReducerShard[rj]; s != own {
				ship[s][ckey] = true
			}
		}
	}
	for s := range ship {
		keys := make([]stats.BucketKey, 0, len(ship[s]))
		for k := range ship[s] {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b stats.BucketKey) int {
			if a.Col != b.Col {
				return a.Col - b.Col
			}
			if a.StartG != b.StartG {
				return a.StartG - b.StartG
			}
			return a.EndG - b.EndG
		})
		p.Shipped[s] = keys
		for _, k := range keys {
			p.ShippedRecords += float64(size(k))
		}
	}
	return p
}
