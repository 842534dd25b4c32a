package shard

import (
	"errors"
	"fmt"
	"io"
	"math"

	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
	"tkij/internal/store"
	"tkij/internal/topbuckets"
)

// The wire protocol: every message is one frame — a u64 payload length,
// then the payload: a u64 frame kind followed by the kind's fixed-width
// little-endian body (the same word codec snapshots use, see
// internal/interval's binary reader). Each frame type describes its body
// once, in its walk method; encoding and decoding are the two directions
// of that one walk (see wire). Decoding is strict: every count is bounded
// by the bytes actually present, booleans must be 0 or 1, enum tags must
// be known, and a payload must be consumed exactly — so a successful
// decode re-encodes byte-identically (the FuzzShardWire contract) and a
// torn or tampered frame fails loudly instead of executing a half-read
// query. A format change takes new kind numbers for the frames it
// changes, so a peer on the old format is refused at the kind word.

// Sentinel errors — the coordinator's fault taxonomy. Every failed
// scatter-gather wraps exactly one of these (plus context.Canceled /
// DeadlineExceeded for caller-initiated aborts), and a failed query
// never returns partial results.
var (
	// ErrWorkerLost marks a worker connection that closed or reset
	// between frames — a crashed or exited worker.
	ErrWorkerLost = errors.New("shard: worker lost")
	// ErrProtocol marks a malformed, torn, or truncated frame on either
	// side of a link.
	ErrProtocol = errors.New("shard: wire protocol violation")
	// ErrEpochMismatch marks a worker whose replica store was not at the
	// epoch a query or append expected — the shards diverged.
	ErrEpochMismatch = errors.New("shard: replica epoch mismatch")
	// ErrFloorReplay marks a floor broadcast for a query id the worker
	// never admitted — a replayed or fabricated frame.
	ErrFloorReplay = errors.New("shard: floor broadcast replay")
	// ErrRemote marks a worker-side execution failure (reported via an
	// error frame, not a dead link).
	ErrRemote = errors.New("shard: worker execution failed")
)

// MaxFrameSize bounds one frame's payload; a length prefix beyond it is
// a protocol violation, so a torn frame cannot demand an absurd
// allocation.
const MaxFrameSize = 1 << 30

// Frame kinds. A kind number is never reused: 3 and 5 are the first
// format's query and result frames, refused as unknown.
const (
	kindLoad   uint64 = 1
	kindAppend uint64 = 2
	kindFloor  uint64 = 4
	kindError  uint64 = 6
	kindQuery  uint64 = 7
	kindResult uint64 = 8
)

// Worker error-frame codes.
const (
	// CodeExec: a reducer failed on the worker.
	CodeExec uint64 = iota
	// CodeEpoch: the worker's replica epoch disagreed with the frame.
	CodeEpoch
	// CodeFloorReplay: a floor broadcast named a never-admitted query.
	CodeFloorReplay
	// CodeLoad: a load or append could not be applied.
	CodeLoad
)

// Frame is one wire message.
type Frame interface {
	kind() uint64
	// walk is the frame body's one layout description.
	walk(w *wire)
}

// newFrame returns an empty frame of the given kind for a decode walk to
// fill, or nil for an unknown kind.
func newFrame(kind uint64) Frame {
	switch kind {
	case kindLoad:
		return &LoadFrame{}
	case kindAppend:
		return &AppendFrame{}
	case kindQuery:
		return &QueryFrame{}
	case kindFloor:
		return &FloorFrame{}
	case kindResult:
		return &ResultFrame{}
	case kindError:
		return &ErrorFrame{}
	}
	return nil
}

// errf wraps a decode failure in ErrProtocol.
func errf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// EncodeFrame serializes f with its length prefix.
func EncodeFrame(f Frame) ([]byte, error) {
	w := &wire{buf: interval.AppendU64(nil, 0)} // length, backfilled below
	kind := f.kind()
	w.u64(&kind)
	f.walk(w)
	if w.err != nil {
		return nil, w.err
	}
	n := len(w.buf) - 8
	if n > MaxFrameSize {
		return nil, errf("frame payload of %d bytes exceeds limit", n)
	}
	interval.PutU64(w.buf[:8], uint64(n))
	return w.buf, nil
}

// DecodeFrame decodes the first frame in b, returning it and the number
// of bytes consumed. A successful decode re-encodes to exactly b[:n].
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < 8 {
		return nil, 0, errf("frame header short: %d bytes", len(b))
	}
	n, err := payloadLen(b[:8])
	if err != nil {
		return nil, 0, err
	}
	if len(b)-8 < n {
		return nil, 0, errf("frame payload short: want %d bytes, have %d", n, len(b)-8)
	}
	f, err := decodePayload(b[8 : 8+n])
	if err != nil {
		return nil, 0, err
	}
	return f, 8 + n, nil
}

// ReadFrame reads and decodes one frame from r. A clean EOF at a frame
// boundary returns io.EOF; an EOF inside a frame returns
// io.ErrUnexpectedEOF (a torn frame).
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, errf("frame header torn: %v", err)
		}
		return nil, err
	}
	n, err := payloadLen(hdr[:])
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, errf("frame payload torn after header: %v", err)
		}
		return nil, err
	}
	return decodePayload(buf)
}

// payloadLen reads a frame's length prefix: at least the kind word, at
// most MaxFrameSize.
func payloadLen(hdr []byte) (int, error) {
	n := interval.NewBinaryReader(hdr).U64()
	if n < 8 || n > MaxFrameSize {
		return 0, errf("frame payload length %d out of range", n)
	}
	return int(n), nil
}

func decodePayload(p []byte) (Frame, error) {
	w := &wire{r: interval.NewBinaryReader(p)}
	var kind uint64
	w.u64(&kind)
	f := newFrame(kind)
	if f == nil {
		return nil, errf("unknown frame kind %d", kind)
	}
	f.walk(w)
	if w.err != nil {
		return nil, w.err
	}
	if w.r.Len() != 0 {
		return nil, errf("frame kind %d has %d trailing bytes", kind, w.r.Len())
	}
	return f, nil
}

// --- the walker -----------------------------------------------------

// wire walks one frame body in either direction. Encoding (r == nil)
// appends every field to buf and only reads the frame: a QueryFrame's
// Combos, Mapping and Query are plan-cache state that concurrent scatters
// encode at once. Decoding reads every field into the frame; the first
// failure latches as an ErrProtocol and turns every later step into a
// no-op, so a walk reads straight through and is checked once at the end.
type wire struct {
	buf []byte
	r   *interval.BinaryReader
	err error
}

// decoding reports whether the walk is reading a frame and has not
// failed — the guard of every decode-time check and of building decoded
// values.
func (w *wire) decoding() bool { return w.r != nil && w.err == nil }

// fail latches the walk's first failure: a protocol violation when
// decoding, a frame that cannot cross the wire when encoding.
func (w *wire) fail(format string, args ...any) {
	switch {
	case w.err != nil:
	case w.r != nil:
		w.err = errf(format, args...)
	default:
		w.err = fmt.Errorf("shard: "+format, args...)
	}
}

func (w *wire) u64(v *uint64) {
	switch {
	case w.err != nil:
	case w.r == nil:
		w.buf = interval.AppendU64(w.buf, *v)
	default:
		*v = w.r.U64()
		if err := w.r.Err(); err != nil {
			w.fail("%v", err)
		}
	}
}

func (w *wire) i64(v *int64) {
	u := uint64(*v)
	w.u64(&u)
	if w.decoding() {
		*v = int64(u)
	}
}

func (w *wire) int(v *int) {
	x := int64(*v)
	w.i64(&x)
	if w.decoding() {
		*v = int(x)
	}
}

func (w *wire) f64(v *float64) {
	u := math.Float64bits(*v)
	w.u64(&u)
	if w.decoding() {
		*v = math.Float64frombits(u)
	}
}

// count walks a length prefix. Decoding, it is the one rule that bounds a
// declared length: n entries of at least minEntryBytes each must fit in
// the bytes left, so a hostile prefix cannot demand memory the frame did
// not pay for.
func (w *wire) count(n *int, minEntryBytes int, what string) {
	u := uint64(*n)
	w.u64(&u)
	if !w.decoding() {
		return
	}
	if most := w.r.Len() / minEntryBytes; u > uint64(most) {
		w.fail("%s declares %d entries, payload holds at most %d", what, u, most)
		return
	}
	*n = int(u)
}

func (w *wire) str(s *string, what string) {
	n := len(*s)
	w.count(&n, 1, what)
	switch {
	case w.err != nil:
	case w.r == nil:
		w.buf = append(w.buf, *s...)
	default:
		*s = string(w.r.Bytes(n))
	}
}

// intervals walks a length-prefixed interval slice in the 24-byte record
// layout; every decoded interval must satisfy start <= end.
func (w *wire) intervals(ivs *[]interval.Interval, what string) {
	n := len(*ivs)
	w.count(&n, interval.BinaryIntervalSize, what)
	switch {
	case w.err != nil:
	case w.r == nil:
		w.buf = interval.AppendIntervals(w.buf, *ivs)
	default:
		v, err := interval.DecodeIntervals(w.r.Bytes(n * interval.BinaryIntervalSize))
		if err != nil {
			w.fail("%s: %v", what, err)
			return
		}
		*ivs = v
	}
}

func (w *wire) gran(g *stats.Granulation) {
	switch {
	case w.err != nil:
	case w.r == nil:
		w.buf = stats.AppendGranulation(w.buf, *g)
	default:
		v, err := stats.ReadGranulation(w.r)
		if err != nil {
			w.fail("granulation: %v", err)
			return
		}
		*g = v
	}
}

// list walks a length-prefixed slice: its count (each entry takes at
// least minEntryBytes), then every entry through elem. Decoding
// allocates the slice; encoding hands elem the frame's own entries, which
// it must only read.
func list[T any](w *wire, s *[]T, minEntryBytes int, what string, elem func(i int, e *T)) {
	n := len(*s)
	w.count(&n, minEntryBytes, what)
	if w.err != nil {
		return
	}
	if w.r != nil {
		*s = make([]T, n)
	}
	for i := range *s {
		if w.err != nil {
			return
		}
		elem(i, &(*s)[i])
	}
}

// query walks a query — name, vertex count, edges, aggregator — through
// a shallow copy, so encoding never touches the shared original.
// Decoding rebuilds it through query.New, so a decoded query is exactly
// as valid as one built locally.
func (w *wire) query(qp **query.Query) {
	var q query.Query
	if w.r == nil {
		if *qp == nil {
			w.fail("query frame has no query")
			return
		}
		q = **qp
	}
	w.str(&q.Name, "query name")
	w.int(&q.NumVertices)
	list(w, &q.Edges, 32, "edge list", func(_ int, e *query.Edge) {
		w.int(&e.From)
		w.int(&e.To)
		var p scoring.Predicate
		if e.Pred != nil {
			p = *e.Pred
		}
		w.str(&p.Name, "predicate name")
		list(w, &p.Terms, 104, "term list", func(_ int, t *scoring.Term) { w.term(t) })
		if w.decoding() {
			e.Pred = &p
		}
	})
	w.agg(&q.Agg)
	if !w.decoding() {
		return
	}
	built, err := query.New(q.Name, q.NumVertices, q.Edges, q.Agg)
	if err != nil {
		w.fail("decoded query invalid: %v", err)
		return
	}
	*qp = built
}

// term walks one comparator term through copies of its fields; decoding
// rebuilds it with scoring.NewTerm, which derives the cached difference.
func (w *wire) term(t *scoring.Term) {
	kind, left, right, p := t.Kind, t.Left, t.Right, t.P
	w.int((*int)(&kind))
	if w.decoding() && (kind < 0 || kind > scoring.CompGreater) {
		w.fail("term kind %d unknown", kind)
	}
	for _, e := range []*scoring.LinearExpr{&left, &right} {
		for i := range e.Coef {
			w.f64(&e.Coef[i])
		}
		w.f64(&e.Const)
	}
	w.f64(&p.Lambda)
	w.f64(&p.Rho)
	if w.decoding() {
		*t = scoring.NewTerm(kind, left, right, p)
	}
}

// Aggregator tags.
const (
	aggAvg uint64 = iota
	aggSum
	aggMin
	aggWeightedSum
)

func (w *wire) agg(a *scoring.Aggregator) {
	var (
		tag     uint64
		weights []float64
	)
	if w.r == nil {
		switch v := (*a).(type) {
		case scoring.Avg:
			tag = aggAvg
		case scoring.Sum:
			tag = aggSum
		case scoring.Min:
			tag = aggMin
		case *scoring.WeightedSum:
			tag, weights = aggWeightedSum, v.Weights
		default:
			w.fail("aggregator %T does not cross the wire", v)
			return
		}
	}
	w.u64(&tag)
	if tag == aggWeightedSum {
		list(w, &weights, 8, "weight list", func(_ int, x *float64) { w.f64(x) })
	}
	if !w.decoding() {
		return
	}
	switch tag {
	case aggAvg:
		*a = scoring.Avg{}
	case aggSum:
		*a = scoring.Sum{}
	case aggMin:
		*a = scoring.Min{}
	case aggWeightedSum:
		ws, err := scoring.NewWeightedSum(weights)
		if err != nil {
			w.fail("decoded aggregator invalid: %v", err)
			return
		}
		*a = ws
	default:
		w.fail("unknown aggregator tag %d", tag)
	}
}

// --- LoadFrame ------------------------------------------------------

// LoadFrame bootstraps a worker: its shard identity and its owned slice
// of the coordinator's bucket partition, one MappedCol per collection
// (with no buckets for collections the shard owns nothing of), so the
// replica has one ColStore per collection, aligned with the
// coordinator's indexes. Decoding checks every interval against the
// bucket it arrived in — the same tamper check a snapshot restore runs —
// so a mis-partitioned load never builds a replica that serves wrong
// buckets.
type LoadFrame struct {
	ShardID int
	Shards  int
	Cols    []store.MappedCol
}

func (*LoadFrame) kind() uint64 { return kindLoad }

func (f *LoadFrame) walk(w *wire) {
	w.int(&f.ShardID)
	w.int(&f.Shards)
	if w.decoding() && (f.Shards < 1 || f.ShardID < 0 || f.ShardID >= f.Shards) {
		w.fail("load names shard %d of %d", f.ShardID, f.Shards)
	}
	list(w, &f.Cols, 8, "load collection list", func(i int, c *store.MappedCol) {
		w.int(&c.Col)
		w.gran(&c.Gran)
		if w.decoding() && c.Col != i {
			w.fail("load collection %d declared as %d", i, c.Col)
		}
		list(w, &c.Buckets, 24, "load bucket list", func(_ int, b *store.MappedBucket) {
			w.int(&b.StartG)
			w.int(&b.EndG)
			w.intervals(&b.Items, "load bucket")
			if !w.decoding() {
				return
			}
			for _, iv := range b.Items {
				if l, lp := c.Gran.BucketOf(iv); l != b.StartG || lp != b.EndG {
					w.fail("load collection %d interval %v buckets to (%d,%d), arrived in (%d,%d)",
						i, iv, l, lp, b.StartG, b.EndG)
					return
				}
			}
		})
	})
}

// --- AppendFrame ----------------------------------------------------

// AppendFrame extends a worker's replica: the shard-owned slice of one
// coordinator Append batch (possibly empty — every append bumps every
// replica's epoch so the fleet stays in lockstep), plus the epoch the
// replica must land on after applying it.
type AppendFrame struct {
	Epoch int64
	Col   int
	Items []interval.Interval
}

func (*AppendFrame) kind() uint64 { return kindAppend }

func (f *AppendFrame) walk(w *wire) {
	w.i64(&f.Epoch)
	w.int(&f.Col)
	if w.decoding() && f.Col < 0 {
		w.fail("append names collection %d", f.Col)
	}
	w.intervals(&f.Items, "append batch")
}

// --- QueryFrame -----------------------------------------------------

// ShippedBucket carries one collection-scoped bucket a shard's reducers
// need but the shard does not own, resident items included.
type ShippedBucket struct {
	Col, StartG, EndG int
	Items             []interval.Interval
}

// QueryFrame scatters one query to one shard: the query itself, the
// pinned epoch the worker must serve it at, the vertex→collection
// mapping, the selected combinations — each its buckets, UB and the
// edge UBs its plan solved, so the worker bounds nothing — this shard's
// reducer tasks, and the foreign buckets shipped for them. Floor seeds
// the worker's score floor.
type QueryFrame struct {
	QueryID uint64
	Epoch   int64
	K       int
	Floor   float64
	Query   *query.Query
	Mapping []int
	Combos  []topbuckets.Combo
	Tasks   []join.ReducerTask // Combos index QueryFrame.Combos
	Shipped []ShippedBucket
}

func (*QueryFrame) kind() uint64 { return kindQuery }

func (f *QueryFrame) walk(w *wire) {
	w.u64(&f.QueryID)
	w.i64(&f.Epoch)
	w.int(&f.K)
	w.f64(&f.Floor)
	if w.decoding() && f.K < 1 {
		w.fail("query k = %d, want >= 1", f.K)
	}
	w.query(&f.Query)
	list(w, &f.Mapping, 8, "vertex mapping", func(v int, col *int) {
		w.int(col)
		if w.decoding() && *col < 0 {
			w.fail("vertex %d maps to collection %d", v, *col)
		}
	})
	if w.err != nil {
		return
	}
	// The decoded query fixes every combination's size: a bucket count
	// word and NumVertices buckets of four words, UB, one edge UB per
	// edge.
	q := f.Query
	n := len(q.Edges)
	var edgeUBs []float64 // decoding: every combination's edge UBs, one backing array
	list(w, &f.Combos, 8*(2+4*q.NumVertices+n), "combo list", func(i int, c *topbuckets.Combo) {
		list(w, &c.Buckets, 32, "combo bucket list", func(_ int, b *stats.Bucket) {
			w.int(&b.Col)
			w.int(&b.StartG)
			w.int(&b.EndG)
			w.int(&b.Count)
		})
		// Past here the joiner indexes Buckets by vertex.
		if w.decoding() && len(c.Buckets) != q.NumVertices {
			w.fail("combo %d has %d buckets, query %s has %d vertices", i, len(c.Buckets), q.Name, q.NumVertices)
		}
		w.f64(&c.UB)
		// No count word: the query's edge count is the length.
		switch {
		case w.decoding():
			if edgeUBs == nil {
				edgeUBs = make([]float64, len(f.Combos)*n)
			}
			c.EdgeUB = edgeUBs[i*n : (i+1)*n : (i+1)*n]
		case w.r == nil && len(c.EdgeUB) != n:
			w.fail("combo %d carries %d edge UBs, query %s has %d edges", i, len(c.EdgeUB), q.Name, n)
		}
		for ei := range c.EdgeUB {
			w.f64(&c.EdgeUB[ei])
		}
	})
	list(w, &f.Tasks, 16, "task list", func(i int, t *join.ReducerTask) {
		w.int(&t.Reducer)
		if w.decoding() && t.Reducer < 0 {
			w.fail("task %d names reducer %d", i, t.Reducer)
		}
		list(w, &t.Combos, 8, "task combos", func(_ int, ci *int) {
			w.int(ci)
			if w.decoding() && (*ci < 0 || *ci >= len(f.Combos)) {
				w.fail("task %d references combo %d of %d", i, *ci, len(f.Combos))
			}
		})
		// A reducer stops at the first combination its threshold
		// dominates; on an unsorted list that would skip live ones.
		if w.decoding() && !join.DescendingUB(f.Combos, t.Combos) {
			w.fail("task %d lists its combos out of descending-UB order", i)
		}
	})
	list(w, &f.Shipped, 32, "shipped bucket list", func(i int, sb *ShippedBucket) {
		w.int(&sb.Col)
		w.int(&sb.StartG)
		w.int(&sb.EndG)
		w.intervals(&sb.Items, "shipped bucket")
		if w.decoding() && sb.Col < 0 {
			w.fail("shipped bucket %d names collection %d", i, sb.Col)
		}
	})
}

// --- FloorFrame -----------------------------------------------------

// FloorFrame carries one score-floor raise, in either direction:
// coordinator→worker rebroadcasts the cluster-wide floor, and
// worker→coordinator uplinks a floor certified by a local reducer.
// Raises are monotone and idempotent, so duplicates and reorderings are
// harmless by construction.
type FloorFrame struct {
	QueryID uint64
	Floor   float64
}

func (*FloorFrame) kind() uint64 { return kindFloor }

func (f *FloorFrame) walk(w *wire) {
	w.u64(&f.QueryID)
	w.f64(&f.Floor)
}

// --- ResultFrame ----------------------------------------------------

// ResultFrame gathers one shard's completed query: every reducer task's
// output, plus the epoch the worker actually served — the coordinator
// cross-checks it against the scatter epoch.
type ResultFrame struct {
	QueryID  uint64
	Epoch    int64
	Reducers []join.ReducerOutput
}

func (*ResultFrame) kind() uint64 { return kindResult }

func (f *ResultFrame) walk(w *wire) {
	w.u64(&f.QueryID)
	w.i64(&f.Epoch)
	list(w, &f.Reducers, 128, "reducer list", func(i int, rr *join.ReducerOutput) {
		w.int(&rr.Reducer)
		if w.decoding() && rr.Reducer < 0 {
			w.fail("reducer result %d names reducer %d", i, rr.Reducer)
		}
		s := &rr.Stats
		w.int(&s.Reducer)
		w.int(&s.CombosAssigned)
		w.int(&s.CombosProcessed)
		w.int(&s.CombosSkipped)
		w.i64(&s.TuplesExamined)
		w.i64(&s.PartialsPruned)
		w.int(&s.ResultsReturned)
		w.int(&s.ProbeRounds)
		w.f64(&s.FloorUsed)
		w.f64(&s.MinScore)
		w.int(&s.BucketRefsRouted)
		w.f64(&s.RoutedIntervals)
		w.f64(&s.SharedFloorFinal)
		w.i64((*int64)(&s.Duration))
		list(w, &rr.Results, 32, "result list", func(_ int, res *join.Result) {
			w.intervals(&res.Tuple, "result tuple")
			w.f64(&res.Score)
		})
	})
}

// --- ErrorFrame -----------------------------------------------------

// ErrorFrame reports a worker-side failure for one query (or, with
// QueryID 0, a load/append the worker could not apply). The coordinator
// maps Code onto the sentinel error taxonomy.
type ErrorFrame struct {
	QueryID uint64
	Code    uint64
	Msg     string
}

func (*ErrorFrame) kind() uint64 { return kindError }

func (f *ErrorFrame) walk(w *wire) {
	w.u64(&f.QueryID)
	w.u64(&f.Code)
	if w.decoding() && f.Code > CodeLoad {
		w.fail("unknown worker error code %d", f.Code)
	}
	w.str(&f.Msg, "error message")
}
