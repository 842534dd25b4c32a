package plancache

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"tkij/internal/query"
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// DefaultMaxCost is the default retention bound: the total cost (pair
// table cells plus built combinations with their edge UBs, see
// planCost) the cache may hold. At the paper's g = 40 one two-edge plan holds ~1.3M pair cells,
// so the default retains a healthy handful of heavyweight plans (or
// thousands of small ones) before LRU eviction starts.
const DefaultMaxCost = 16 << 20

// Options configures a Cache. The zero value is an enabled cache with
// the default bounds.
type Options struct {
	// Disabled turns the cache off: every Plan call computes a cold
	// plan and stores nothing. The pipeline behaves exactly as if the
	// cache did not exist (the equivalence baseline).
	Disabled bool
	// MaxCost bounds the total cost of retained entries
	// (<= 0 means DefaultMaxCost). Eviction is LRU; the most recently
	// inserted entry is never evicted, so a single plan larger than
	// MaxCost still caches (alone).
	MaxCost float64
}

func (o Options) withDefaults() Options {
	if o.MaxCost <= 0 {
		o.MaxCost = DefaultMaxCost
	}
	return o
}

// Outcome classifies how a Plan call was served.
type Outcome int

const (
	// Miss: a full plan was computed (no entry, unusable entry, or the
	// cache is disabled).
	Miss Outcome = iota
	// Hit: the cached plan was served as-is (entry epoch == query epoch).
	Hit
	// Revalidated: the entry was promoted unchanged across one or more
	// epoch bumps that changed no bucket's shape (no bucket appeared, no
	// boundary granule widened). A shape change is planned again, a Miss.
	Revalidated
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Revalidated:
		return "revalidated"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Request carries one execution's planning inputs. Matrices are the
// per-vertex bucket matrices pinned by the engine for this query (so
// they are consistent with Epoch even under concurrent appends);
// VertexCols maps each vertex to its collection index.
type Request struct {
	Query      *query.Query
	Matrices   []*stats.Matrix
	VertexCols []int
	K          int
	Epoch      int64
}

// Planned is the outcome of Cache.Plan: a plan ready for the join
// phase. On a Hit it is shared with every other query of the same shape
// and labeling: reading it builds combinations every later reader finds
// built.
type Planned struct {
	Plan    *topbuckets.Plan
	Outcome Outcome
	// TopBucketsTime is the wall time this call actually spent
	// planning: building the plan on a Miss, the lookup / promotion cost
	// on a Hit / Revalidated.
	TopBucketsTime time.Duration
	// SavedPlanTime is, on a Hit or Revalidated outcome, the wall time
	// the original full plan cost when it was first computed — the
	// planning work this call did not repeat. Zero on a Miss.
	SavedPlanTime time.Duration
	// Waited reports that the call found a concurrent miss or
	// promotion of its key and epoch in flight and waited for it
	// instead of planning again; the wait is inside TopBucketsTime.
	Waited bool
}

// Stats is a snapshot of cache activity.
type Stats struct {
	Hits int64
	// Revalidations counts promotions (Outcome Revalidated).
	Revalidations int64
	Misses        int64
	Evictions     int64
	// Waits counts calls that waited on a concurrent miss or
	// promotion of their key and epoch (Planned.Waited).
	Waits   int64
	Entries int
	// Cost is the total retained cost (bounded by Options.MaxCost).
	Cost float64
}

// entry is one cached plan. Its fields are immutable after insertion
// but cost, which the cache recharges under its lock as the plan's
// built prefix grows — promotion and re-planning replace the entry
// rather than mutating it, so readers holding a plan across an epoch
// bump are unaffected.
type entry struct {
	key   string
	epoch int64
	// labeling and edgeLabeling are the canonical labelings of the
	// query the plan is expressed in (Canonicalize); an isomorphic query
	// with different ones gets the plan's bucket tuples and edge UBs
	// translated through the composed permutations (see sigmaFor).
	labeling, edgeLabeling []int
	plan                   *topbuckets.Plan
	edges                  int
	planTime               time.Duration // original full-plan wall time
	cost                   float64
	// state is the matrix fingerprint the plan was computed against
	// (EpochState); promotion diffs it against the current matrices to
	// tell whether any bucket changed shape since.
	state *EpochState
	el    *list.Element
}

// Cache is a bounded, epoch-aware plan cache. Safe for concurrent use;
// planning is single-flighted per (canonical key, epoch): one call runs
// the miss or promotion, and concurrent calls for that pair wait for
// it and then look the key up again.
type Cache struct {
	opts Options

	mu      sync.Mutex
	entries map[string]*entry
	flights map[flight]*solve
	lru     *list.List // front = most recently used
	cost    float64
	stats   Stats

	// onLead, when set, runs in the leading call of every flight after
	// the flight is registered and before it plans; an error it returns
	// fails the flight (a test seam for holding a flight open while
	// others join it, and for a failing leader).
	onLead func() error
}

// flight names one single-flighted planning: a canonical key at an
// epoch.
type flight struct {
	key   string
	epoch int64
}

// solve is one flight in progress. done closes when the leading call
// returns; err is its error, handed to every waiter (and never cached).
type solve struct {
	done chan struct{}
	err  error
}

// New returns a cache with the given options.
func New(opts Options) *Cache {
	return &Cache{
		opts:    opts.withDefaults(),
		entries: make(map[string]*entry),
		flights: make(map[flight]*solve),
		lru:     list.New(),
	}
}

// Plan serves a planning request: from the cache when an entry matches
// Request's canonical key at (or promotably below) its epoch,
// otherwise by building a topbuckets.Plan and caching it. A call that
// finds the same key and epoch already being planned waits for that
// flight and then looks the key up again, so an isomorphic labeling
// still gets the plan translated into its own; the flight's error, if
// any, is returned to it instead.
func (c *Cache) Plan(req Request) (*Planned, error) {
	if c == nil || c.opts.Disabled {
		p, _, err := fullPlan(req)
		return p, err
	}
	lookupStart := time.Now()
	key, labeling, edgeLabeling := Canonicalize(req.Query, req.VertexCols, req.K, granulations(req.Matrices))
	f := flight{key, req.Epoch}
	waited := false
	for {
		c.mu.Lock()
		e := c.entries[key]
		switch {
		case e != nil && e.epoch == req.Epoch:
			c.lru.MoveToFront(e.el)
			c.stats.Hits++
			c.charge(e)
			c.mu.Unlock()
			return &Planned{
				Plan:           e.plan.Relabel(sigmaFor(e.labeling, labeling), sigmaFor(e.edgeLabeling, edgeLabeling)),
				Outcome:        Hit,
				TopBucketsTime: time.Since(lookupStart),
				SavedPlanTime:  e.planTime,
				Waited:         waited,
			}, nil
		case e != nil && e.epoch > req.Epoch:
			// The entry outran this query's pinned epoch (an append
			// landed between pinning and lookup, and a sibling query
			// already promoted or re-planned it). Its floor may be
			// certified by intervals this query cannot see — plan cold
			// and leave the newer entry alone.
			c.stats.Misses++
			c.mu.Unlock()
			p, _, err := fullPlan(req)
			if p != nil {
				p.Waited = waited
			}
			return p, err
		}
		if s := c.flights[f]; s != nil {
			c.stats.Waits++
			c.mu.Unlock()
			<-s.done
			if s.err != nil {
				return nil, s.err
			}
			waited = true
			continue
		}
		s := &solve{done: make(chan struct{})}
		c.flights[f] = s
		if e == nil {
			c.stats.Misses++
		}
		c.mu.Unlock()
		p, err := c.lead(e, req, key, labeling, edgeLabeling, f, s)
		if p != nil {
			p.Waited = waited
		}
		return p, err
	}
}

// lead runs flight f as its leading call: it promotes e (an entry
// behind req.Epoch) when the epochs between changed no bucket's shape,
// plans in full otherwise, caches the result, and then releases the
// flight's waiters with its error (a waiter released without one looks
// the key up again, so even a panicking leader strands nobody).
func (c *Cache) lead(e *entry, req Request, key string, labeling, edgeLabeling []int, f flight, s *solve) (planned *Planned, err error) {
	defer func() {
		c.mu.Lock()
		delete(c.flights, f)
		c.mu.Unlock()
		s.err = err
		close(s.done)
	}()
	if c.onLead != nil {
		if err := c.onLead(); err != nil {
			return nil, err
		}
	}
	if e != nil {
		// Promote outside the lock (the entry is immutable; we only
		// read it).
		if ne, planned := promote(e, req, labeling, edgeLabeling); ne != nil {
			c.insert(ne, true)
			return planned, nil
		}
		// A bucket appeared or a boundary granule widened: the stale
		// entry's bounds no longer certify its prune. Plan in full —
		// the new entry replaces it — and count the call as a miss.
		c.mu.Lock()
		c.stats.Misses++
		c.mu.Unlock()
	}
	planned, ne, err := fullPlan(req)
	if err != nil {
		return nil, err
	}
	ne.key, ne.labeling, ne.edgeLabeling = key, labeling, edgeLabeling
	c.insert(ne, false)
	return planned, nil
}

// promote carries entry e (planned at an earlier epoch) to req.Epoch
// unchanged, returning the promoted entry and the caller-facing plan —
// or (nil, nil) when the epochs between changed the shape of some
// bucket, so e must be planned again.
//
// Under the append-only epoch model bucket counts only grow. When no
// bucket appeared and no boundary granule widened (EpochDiff.AnyShape),
// every granule box is the one e's bounds were solved over, so every
// cached LB/UB and edge UB still bounds its combination's (grown)
// contents, and grown counts only add results at or above the certified
// floor: plan, bounds and floor all carry over verbatim. The entry keeps
// its own labelings; the caller gets the plan translated into its.
func promote(e *entry, req Request, reqLabeling, reqEdgeLabeling []int) (*entry, *Planned) {
	start := time.Now()
	// The entry may be expressed in an isomorphic query's labeling;
	// sigma maps request vertices onto entry vertices (nil = identity).
	sigma := sigmaFor(e.labeling, reqLabeling)
	if e.state.Diff(req.Matrices, sigma).AnyShape() {
		return nil, nil
	}
	ne := &entry{
		key: e.key, epoch: req.Epoch, labeling: e.labeling, edgeLabeling: e.edgeLabeling,
		plan: e.plan, edges: e.edges, planTime: e.planTime, state: e.state,
	}
	return ne, &Planned{
		Plan:           e.plan.Relabel(sigma, sigmaFor(e.edgeLabeling, reqEdgeLabeling)),
		Outcome:        Revalidated,
		TopBucketsTime: time.Since(start),
		SavedPlanTime:  e.planTime,
	}
}

// insert stores a fresh entry, replacing any same-key predecessor, and
// evicts LRU entries past the cost bound. promoted selects the stats
// counter.
func (c *Cache) insert(ne *entry, promoted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if promoted {
		c.stats.Revalidations++
	}
	if old := c.entries[ne.key]; old != nil {
		if old.epoch > ne.epoch {
			// A sibling pinned at a later epoch already planned or
			// promoted further; keep the newer plan.
			return
		}
		c.cost -= old.cost
		c.lru.Remove(old.el)
	}
	ne.el = c.lru.PushFront(ne)
	c.entries[ne.key] = ne
	c.charge(ne)
}

// charge brings e's cost up to date with its plan's built prefix and
// evicts least-recently-used entries past the cost bound; e, the most
// recently used, is never evicted. c.mu must be held.
func (c *Cache) charge(e *entry) {
	cost := planCost(e.plan, e.edges)
	c.cost += cost - e.cost
	e.cost = cost
	for c.cost > c.opts.MaxCost && c.lru.Len() > 1 {
		victim := c.lru.Back().Value.(*entry)
		c.lru.Remove(victim.el)
		delete(c.entries, victim.key)
		c.cost -= victim.cost
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of cache activity.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Cost = c.cost
	return s
}

// fullPlan builds a plan cold and packages both the caller-facing
// result and a cache entry (epoch, fingerprints). The entry's cost is
// charged when it is inserted.
func fullPlan(req Request) (*Planned, *entry, error) {
	p, err := topbuckets.NewPlan(req.Query, req.Matrices, req.K)
	if err != nil {
		return nil, nil, err
	}
	e := &entry{
		epoch:    req.Epoch,
		plan:     p,
		edges:    len(req.Query.Edges),
		planTime: p.Built,
		state:    CaptureEpochState(req.Matrices),
	}
	return &Planned{
		Plan:           p,
		Outcome:        Miss,
		TopBucketsTime: p.Built,
	}, e, nil
}

// planCost is the retention currency of the cache: a plan's pair table
// cells, plus for each combination built so far the combination and its
// one UB per edge. Even a plan with nothing built yet has nonzero
// weight.
func planCost(p *topbuckets.Plan, edges int) float64 {
	return max(1, float64(p.Cells+(1+edges)*p.Len()))
}

// granulations projects the per-vertex granulation signatures.
func granulations(matrices []*stats.Matrix) []stats.Granulation {
	gs := make([]stats.Granulation, len(matrices))
	for i, m := range matrices {
		gs[i] = m.Gran
	}
	return gs
}
