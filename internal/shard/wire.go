package shard

import (
	"errors"
	"fmt"
	"io"
	"math"

	"time"
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
// internal/interval's binary reader). Decoding is strict: every count
// is bounded by the bytes actually present, booleans must be 0 or 1,
// enum tags must be known, and a payload must be consumed exactly — so
// a successful decode re-encodes byte-identically (the FuzzShardWire
// contract) and a torn or tampered frame fails loudly instead of
// executing a half-read query.

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

// Frame kinds.
const (
	kindLoad uint64 = iota + 1
	kindAppend
	kindQuery
	kindFloor
	kindResult
	kindError
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
	appendBody(dst []byte) ([]byte, error)
}

// errf wraps a decode failure in ErrProtocol.
func errf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// EncodeFrame serializes f with its length prefix.
func EncodeFrame(f Frame) ([]byte, error) {
	dst := interval.AppendU64(nil, 0) // length, backfilled below
	dst = interval.AppendU64(dst, f.kind())
	dst, err := f.appendBody(dst)
	if err != nil {
		return nil, err
	}
	if len(dst)-8 > MaxFrameSize {
		return nil, errf("frame payload of %d bytes exceeds limit", len(dst)-8)
	}
	interval.PutU64(dst[:8], uint64(len(dst)-8))
	return dst, nil
}

// DecodeFrame decodes the first frame in b, returning it and the number
// of bytes consumed. A successful decode re-encodes to exactly b[:n].
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < 8 {
		return nil, 0, errf("frame header short: %d bytes", len(b))
	}
	r := interval.NewBinaryReader(b[:8])
	n := r.U64()
	if n < 8 || n > MaxFrameSize {
		return nil, 0, errf("frame payload length %d out of range", n)
	}
	if uint64(len(b)-8) < n {
		return nil, 0, errf("frame payload short: want %d bytes, have %d", n, len(b)-8)
	}
	f, err := decodePayload(b[8 : 8+n])
	if err != nil {
		return nil, 0, err
	}
	return f, int(8 + n), nil
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
	br := interval.NewBinaryReader(hdr[:])
	n := br.U64()
	if n < 8 || n > MaxFrameSize {
		return nil, errf("frame payload length %d out of range", n)
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

func decodePayload(p []byte) (Frame, error) {
	r := interval.NewBinaryReader(p)
	kind := r.U64()
	if err := r.Err(); err != nil {
		return nil, errf("reading frame kind: %v", err)
	}
	var (
		f   Frame
		err error
	)
	switch kind {
	case kindLoad:
		f, err = decodeLoad(r)
	case kindAppend:
		f, err = decodeAppend(r)
	case kindQuery:
		f, err = decodeQuery(r)
	case kindFloor:
		f, err = decodeFloor(r)
	case kindResult:
		f, err = decodeResult(r)
	case kindError:
		f, err = decodeError(r)
	default:
		return nil, errf("unknown frame kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, errf("frame kind %d has %d trailing bytes", kind, r.Len())
	}
	return f, nil
}

// --- scalar helpers -------------------------------------------------

func appendF64(dst []byte, v float64) []byte {
	return interval.AppendU64(dst, math.Float64bits(v))
}

func readF64(r *interval.BinaryReader) float64 {
	return math.Float64frombits(r.U64())
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return interval.AppendU64(dst, 1)
	}
	return interval.AppendU64(dst, 0)
}

func readBool(r *interval.BinaryReader, what string) (bool, error) {
	v := r.U64()
	if err := r.Err(); err != nil {
		return false, errf("reading %s: %v", what, err)
	}
	if v > 1 {
		return false, errf("%s flag is %d, want 0 or 1", what, v)
	}
	return v == 1, nil
}

func appendString(dst []byte, s string) []byte {
	dst = interval.AppendU64(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(r *interval.BinaryReader, what string) (string, error) {
	n := r.U64()
	if err := r.Err(); err != nil {
		return "", errf("reading %s length: %v", what, err)
	}
	if n > uint64(r.Len()) {
		return "", errf("%s declares %d bytes, payload holds %d", what, n, r.Len())
	}
	b := r.Bytes(int(n))
	if err := r.Err(); err != nil {
		return "", errf("reading %s: %v", what, err)
	}
	return string(b), nil
}

func appendIntSlice(dst []byte, v []int) []byte {
	dst = interval.AppendU64(dst, uint64(len(v)))
	for _, x := range v {
		dst = interval.AppendI64(dst, int64(x))
	}
	return dst
}

func readIntSlice(r *interval.BinaryReader, what string) ([]int, error) {
	n := r.U64()
	if err := r.Err(); err != nil {
		return nil, errf("reading %s count: %v", what, err)
	}
	if n > uint64(r.Len()/8) {
		return nil, errf("%s declares %d entries, payload holds at most %d", what, n, r.Len()/8)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.I64())
	}
	if err := r.Err(); err != nil {
		return nil, errf("reading %s: %v", what, err)
	}
	return out, nil
}

func appendIntervalsLP(dst []byte, ivs []interval.Interval) []byte {
	dst = interval.AppendU64(dst, uint64(len(ivs)))
	return interval.AppendIntervals(dst, ivs)
}

func readIntervalsLP(r *interval.BinaryReader, what string) ([]interval.Interval, error) {
	n := r.U64()
	if err := r.Err(); err != nil {
		return nil, errf("reading %s count: %v", what, err)
	}
	if n > uint64(r.Len()/interval.BinaryIntervalSize) {
		return nil, errf("%s declares %d intervals, payload holds at most %d",
			what, n, r.Len()/interval.BinaryIntervalSize)
	}
	b := r.Bytes(int(n) * interval.BinaryIntervalSize)
	if err := r.Err(); err != nil {
		return nil, errf("reading %s: %v", what, err)
	}
	ivs, err := interval.DecodeIntervals(b)
	if err != nil {
		return nil, errf("%s: %v", what, err)
	}
	return ivs, nil
}

func appendGrid(dst []byte, g stats.Grid) []byte {
	dst = stats.AppendGranulation(dst, g.Gran)
	dst = interval.AppendI64(dst, int64(g.Lo))
	dst = interval.AppendI64(dst, int64(g.Hi))
	return dst
}

func readGrid(r *interval.BinaryReader) (stats.Grid, error) {
	gran, err := stats.ReadGranulation(r)
	if err != nil {
		return stats.Grid{}, errf("reading grid granulation: %v", err)
	}
	lo, hi := r.I64(), r.I64()
	if err := r.Err(); err != nil {
		return stats.Grid{}, errf("reading grid bounds: %v", err)
	}
	return stats.Grid{Gran: gran, Lo: interval.Timestamp(lo), Hi: interval.Timestamp(hi)}, nil
}

// --- LoadFrame ------------------------------------------------------

// LoadFrame bootstraps a worker: its shard identity and its owned slice
// of the coordinator's bucket partition, one PartitionCol per
// collection (empty for collections the shard owns nothing of).
type LoadFrame struct {
	ShardID int
	Shards  int
	Cols    []store.PartitionCol
}

func (*LoadFrame) kind() uint64 { return kindLoad }

func (f *LoadFrame) appendBody(dst []byte) ([]byte, error) {
	dst = interval.AppendI64(dst, int64(f.ShardID))
	dst = interval.AppendI64(dst, int64(f.Shards))
	dst = interval.AppendU64(dst, uint64(len(f.Cols)))
	for _, pc := range f.Cols {
		dst = interval.AppendI64(dst, int64(pc.Col))
		dst = stats.AppendGranulation(dst, pc.Gran)
		dst = interval.AppendU64(dst, uint64(len(pc.Buckets)))
		for _, bs := range pc.Buckets {
			dst = interval.AppendI64(dst, int64(bs.StartG))
			dst = interval.AppendI64(dst, int64(bs.EndG))
			dst = appendIntervalsLP(dst, bs.Items)
		}
	}
	return dst, nil
}

func decodeLoad(r *interval.BinaryReader) (*LoadFrame, error) {
	shardID, shards := r.I64(), r.I64()
	nCols := r.U64()
	if err := r.Err(); err != nil {
		return nil, errf("reading load header: %v", err)
	}
	if shards < 1 || shardID < 0 || shardID >= shards {
		return nil, errf("load names shard %d of %d", shardID, shards)
	}
	if nCols > uint64(r.Len()/8) {
		return nil, errf("load declares %d collections, payload holds at most %d", nCols, r.Len()/8)
	}
	f := &LoadFrame{ShardID: int(shardID), Shards: int(shards), Cols: make([]store.PartitionCol, nCols)}
	for i := range f.Cols {
		col := r.I64()
		gran, err := stats.ReadGranulation(r)
		if err != nil {
			return nil, errf("reading load collection %d granulation: %v", i, err)
		}
		nBuckets := r.U64()
		if err := r.Err(); err != nil {
			return nil, errf("reading load collection %d: %v", i, err)
		}
		if col != int64(i) {
			return nil, errf("load collection %d declared as %d", i, col)
		}
		if nBuckets > uint64(r.Len()/24) {
			return nil, errf("load collection %d declares %d buckets, payload holds at most %d",
				i, nBuckets, r.Len()/24)
		}
		pc := store.PartitionCol{Col: i, Gran: gran, Buckets: make([]store.BucketSlice, nBuckets)}
		for j := range pc.Buckets {
			sg, eg := r.I64(), r.I64()
			items, err := readIntervalsLP(r, fmt.Sprintf("load bucket (%d,%d,%d)", i, sg, eg))
			if err != nil {
				return nil, err
			}
			pc.Buckets[j] = store.BucketSlice{StartG: int(sg), EndG: int(eg), Items: items}
		}
		f.Cols[i] = pc
	}
	if err := r.Err(); err != nil {
		return nil, errf("reading load frame: %v", err)
	}
	return f, nil
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

func (f *AppendFrame) appendBody(dst []byte) ([]byte, error) {
	dst = interval.AppendI64(dst, f.Epoch)
	dst = interval.AppendI64(dst, int64(f.Col))
	dst = appendIntervalsLP(dst, f.Items)
	return dst, nil
}

func decodeAppend(r *interval.BinaryReader) (*AppendFrame, error) {
	epoch, col := r.I64(), r.I64()
	if err := r.Err(); err != nil {
		return nil, errf("reading append header: %v", err)
	}
	if col < 0 {
		return nil, errf("append names collection %d", col)
	}
	items, err := readIntervalsLP(r, "append batch")
	if err != nil {
		return nil, err
	}
	return &AppendFrame{Epoch: epoch, Col: int(col), Items: items}, nil
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
// mapping and per-vertex grids, the selected combinations, this shard's
// reducer tasks, and the foreign buckets shipped for them. Floor seeds
// the worker's score floor; DisablePruning turns the floor machinery
// off entirely and NoFloorUplink keeps the floor local to the worker
// (the broadcast ablation).
type QueryFrame struct {
	QueryID        uint64
	Epoch          int64
	K              int
	Floor          float64
	DisableIndex   bool
	DisablePruning bool
	NoFloorUplink  bool
	Query          *query.Query
	Mapping        []int
	Grids          []stats.Grid
	Combos         []topbuckets.Combo
	Tasks          []join.ReducerTask // Combos index QueryFrame.Combos
	Shipped        []ShippedBucket
}

func (*QueryFrame) kind() uint64 { return kindQuery }

func (f *QueryFrame) appendBody(dst []byte) ([]byte, error) {
	dst = interval.AppendU64(dst, f.QueryID)
	dst = interval.AppendI64(dst, f.Epoch)
	dst = interval.AppendI64(dst, int64(f.K))
	dst = appendF64(dst, f.Floor)
	dst = appendBool(dst, f.DisableIndex)
	dst = appendBool(dst, f.DisablePruning)
	dst = appendBool(dst, f.NoFloorUplink)
	dst, err := appendQuery(dst, f.Query)
	if err != nil {
		return nil, err
	}
	dst = appendIntSlice(dst, f.Mapping)
	dst = interval.AppendU64(dst, uint64(len(f.Grids)))
	for _, g := range f.Grids {
		dst = appendGrid(dst, g)
	}
	dst = interval.AppendU64(dst, uint64(len(f.Combos)))
	for _, c := range f.Combos {
		dst = interval.AppendU64(dst, uint64(len(c.Buckets)))
		for _, b := range c.Buckets {
			dst = interval.AppendI64(dst, int64(b.Col))
			dst = interval.AppendI64(dst, int64(b.StartG))
			dst = interval.AppendI64(dst, int64(b.EndG))
			dst = interval.AppendI64(dst, int64(b.Count))
		}
		dst = appendF64(dst, c.LB)
		dst = appendF64(dst, c.UB)
		dst = appendF64(dst, c.NbRes)
	}
	dst = interval.AppendU64(dst, uint64(len(f.Tasks)))
	for _, t := range f.Tasks {
		dst = interval.AppendI64(dst, int64(t.Reducer))
		dst = appendIntSlice(dst, t.Combos)
	}
	dst = interval.AppendU64(dst, uint64(len(f.Shipped)))
	for _, sb := range f.Shipped {
		dst = interval.AppendI64(dst, int64(sb.Col))
		dst = interval.AppendI64(dst, int64(sb.StartG))
		dst = interval.AppendI64(dst, int64(sb.EndG))
		dst = appendIntervalsLP(dst, sb.Items)
	}
	return dst, nil
}

func decodeQuery(r *interval.BinaryReader) (*QueryFrame, error) {
	f := &QueryFrame{}
	f.QueryID = r.U64()
	f.Epoch = r.I64()
	k := r.I64()
	f.Floor = readF64(r)
	if err := r.Err(); err != nil {
		return nil, errf("reading query header: %v", err)
	}
	if k < 1 {
		return nil, errf("query k = %d, want >= 1", k)
	}
	f.K = int(k)
	var err error
	if f.DisableIndex, err = readBool(r, "disable-index"); err != nil {
		return nil, err
	}
	if f.DisablePruning, err = readBool(r, "disable-pruning"); err != nil {
		return nil, err
	}
	if f.NoFloorUplink, err = readBool(r, "no-floor-uplink"); err != nil {
		return nil, err
	}
	if f.Query, err = readQuery(r); err != nil {
		return nil, err
	}
	if f.Mapping, err = readIntSlice(r, "vertex mapping"); err != nil {
		return nil, err
	}
	for i, c := range f.Mapping {
		if c < 0 {
			return nil, errf("vertex %d maps to collection %d", i, c)
		}
	}
	nGrids := r.U64()
	if err := r.Err(); err != nil {
		return nil, errf("reading grid count: %v", err)
	}
	if nGrids > uint64(r.Len()/40) {
		return nil, errf("query declares %d grids, payload holds at most %d", nGrids, r.Len()/40)
	}
	f.Grids = make([]stats.Grid, nGrids)
	for i := range f.Grids {
		if f.Grids[i], err = readGrid(r); err != nil {
			return nil, err
		}
	}
	nCombos := r.U64()
	if err := r.Err(); err != nil {
		return nil, errf("reading combo count: %v", err)
	}
	if nCombos > uint64(r.Len()/32) {
		return nil, errf("query declares %d combos, payload holds at most %d", nCombos, r.Len()/32)
	}
	f.Combos = make([]topbuckets.Combo, nCombos)
	for i := range f.Combos {
		nb := r.U64()
		if err := r.Err(); err != nil {
			return nil, errf("reading combo %d: %v", i, err)
		}
		if nb > uint64(r.Len()/32) {
			return nil, errf("combo %d declares %d buckets, payload holds at most %d", i, nb, r.Len()/32)
		}
		if nb != uint64(f.Query.NumVertices) {
			return nil, errf("combo %d has %d buckets, query %s has %d vertices", i, nb, f.Query.Name, f.Query.NumVertices)
		}
		c := topbuckets.Combo{Buckets: make([]stats.Bucket, nb)}
		for j := range c.Buckets {
			c.Buckets[j] = stats.Bucket{
				Col:    int(r.I64()),
				StartG: int(r.I64()),
				EndG:   int(r.I64()),
				Count:  int(r.I64()),
			}
		}
		c.LB = readF64(r)
		c.UB = readF64(r)
		c.NbRes = readF64(r)
		if err := r.Err(); err != nil {
			return nil, errf("reading combo %d: %v", i, err)
		}
		f.Combos[i] = c
	}
	nTasks := r.U64()
	if err := r.Err(); err != nil {
		return nil, errf("reading task count: %v", err)
	}
	if nTasks > uint64(r.Len()/16) {
		return nil, errf("query declares %d tasks, payload holds at most %d", nTasks, r.Len()/16)
	}
	f.Tasks = make([]join.ReducerTask, nTasks)
	for i := range f.Tasks {
		rj := r.I64()
		if err := r.Err(); err != nil {
			return nil, errf("reading task %d: %v", i, err)
		}
		if rj < 0 {
			return nil, errf("task %d names reducer %d", i, rj)
		}
		combos, err := readIntSlice(r, fmt.Sprintf("task %d combos", i))
		if err != nil {
			return nil, err
		}
		for _, ci := range combos {
			if ci < 0 || ci >= len(f.Combos) {
				return nil, errf("task %d references combo %d of %d", i, ci, len(f.Combos))
			}
		}
		// A reducer stops at the first combination its threshold
		// dominates; on an unsorted list that would skip live ones.
		if !join.DescendingUB(f.Combos, combos) {
			return nil, errf("task %d lists its combos out of descending-UB order", i)
		}
		f.Tasks[i] = join.ReducerTask{Reducer: int(rj), Combos: combos}
	}
	nShipped := r.U64()
	if err := r.Err(); err != nil {
		return nil, errf("reading shipped count: %v", err)
	}
	if nShipped > uint64(r.Len()/32) {
		return nil, errf("query declares %d shipped buckets, payload holds at most %d", nShipped, r.Len()/32)
	}
	f.Shipped = make([]ShippedBucket, nShipped)
	for i := range f.Shipped {
		col, sg, eg := r.I64(), r.I64(), r.I64()
		items, err := readIntervalsLP(r, fmt.Sprintf("shipped bucket (%d,%d,%d)", col, sg, eg))
		if err != nil {
			return nil, err
		}
		if col < 0 {
			return nil, errf("shipped bucket %d names collection %d", i, col)
		}
		f.Shipped[i] = ShippedBucket{Col: int(col), StartG: int(sg), EndG: int(eg), Items: items}
	}
	return f, nil
}

func appendQuery(dst []byte, q *query.Query) ([]byte, error) {
	if q == nil {
		return nil, fmt.Errorf("shard: query frame has no query")
	}
	dst = appendString(dst, q.Name)
	dst = interval.AppendI64(dst, int64(q.NumVertices))
	dst = interval.AppendU64(dst, uint64(len(q.Edges)))
	for _, e := range q.Edges {
		dst = interval.AppendI64(dst, int64(e.From))
		dst = interval.AppendI64(dst, int64(e.To))
		dst = appendString(dst, e.Pred.Name)
		dst = interval.AppendU64(dst, uint64(len(e.Pred.Terms)))
		for _, t := range e.Pred.Terms {
			dst = interval.AppendU64(dst, uint64(t.Kind))
			dst = appendExpr(dst, t.Left)
			dst = appendExpr(dst, t.Right)
			dst = appendF64(dst, t.P.Lambda)
			dst = appendF64(dst, t.P.Rho)
		}
	}
	return appendAgg(dst, q.Agg)
}

func readQuery(r *interval.BinaryReader) (*query.Query, error) {
	name, err := readString(r, "query name")
	if err != nil {
		return nil, err
	}
	nv := r.I64()
	nEdges := r.U64()
	if err := r.Err(); err != nil {
		return nil, errf("reading query graph header: %v", err)
	}
	if nEdges > uint64(r.Len()/32) {
		return nil, errf("query declares %d edges, payload holds at most %d", nEdges, r.Len()/32)
	}
	edges := make([]query.Edge, nEdges)
	for i := range edges {
		from, to := r.I64(), r.I64()
		predName, err := readString(r, fmt.Sprintf("edge %d predicate name", i))
		if err != nil {
			return nil, err
		}
		nTerms := r.U64()
		if err := r.Err(); err != nil {
			return nil, errf("reading edge %d: %v", i, err)
		}
		if nTerms > uint64(r.Len()/104) {
			return nil, errf("edge %d declares %d terms, payload holds at most %d", i, nTerms, r.Len()/104)
		}
		terms := make([]scoring.Term, nTerms)
		for j := range terms {
			kind := r.U64()
			if err := r.Err(); err != nil {
				return nil, errf("reading edge %d term %d: %v", i, j, err)
			}
			if kind > uint64(scoring.CompGreater) {
				return nil, errf("edge %d term %d kind %d unknown", i, j, kind)
			}
			left := readExpr(r)
			right := readExpr(r)
			p := scoring.Params{Lambda: readF64(r), Rho: readF64(r)}
			if err := r.Err(); err != nil {
				return nil, errf("reading edge %d term %d: %v", i, j, err)
			}
			terms[j] = scoring.NewTerm(scoring.CompKind(kind), left, right, p)
		}
		edges[i] = query.Edge{
			From: int(from), To: int(to),
			Pred: &scoring.Predicate{Name: predName, Terms: terms},
		}
	}
	agg, err := readAgg(r)
	if err != nil {
		return nil, err
	}
	q, err := query.New(name, int(nv), edges, agg)
	if err != nil {
		return nil, errf("decoded query invalid: %v", err)
	}
	return q, nil
}

func appendExpr(dst []byte, e scoring.LinearExpr) []byte {
	for _, c := range e.Coef {
		dst = appendF64(dst, c)
	}
	return appendF64(dst, e.Const)
}

func readExpr(r *interval.BinaryReader) scoring.LinearExpr {
	var e scoring.LinearExpr
	for i := range e.Coef {
		e.Coef[i] = readF64(r)
	}
	e.Const = readF64(r)
	return e
}

// Aggregator tags.
const (
	aggAvg uint64 = iota
	aggSum
	aggMin
	aggWeightedSum
)

func appendAgg(dst []byte, agg scoring.Aggregator) ([]byte, error) {
	switch a := agg.(type) {
	case scoring.Avg:
		return interval.AppendU64(dst, aggAvg), nil
	case scoring.Sum:
		return interval.AppendU64(dst, aggSum), nil
	case scoring.Min:
		return interval.AppendU64(dst, aggMin), nil
	case *scoring.WeightedSum:
		dst = interval.AppendU64(dst, aggWeightedSum)
		dst = interval.AppendU64(dst, uint64(len(a.Weights)))
		for _, w := range a.Weights {
			dst = appendF64(dst, w)
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("shard: aggregator %T does not cross the wire", agg)
	}
}

func readAgg(r *interval.BinaryReader) (scoring.Aggregator, error) {
	tag := r.U64()
	if err := r.Err(); err != nil {
		return nil, errf("reading aggregator tag: %v", err)
	}
	switch tag {
	case aggAvg:
		return scoring.Avg{}, nil
	case aggSum:
		return scoring.Sum{}, nil
	case aggMin:
		return scoring.Min{}, nil
	case aggWeightedSum:
		n := r.U64()
		if err := r.Err(); err != nil {
			return nil, errf("reading weight count: %v", err)
		}
		if n > uint64(r.Len()/8) {
			return nil, errf("aggregator declares %d weights, payload holds at most %d", n, r.Len()/8)
		}
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = readF64(r)
		}
		if err := r.Err(); err != nil {
			return nil, errf("reading weights: %v", err)
		}
		ws, err := scoring.NewWeightedSum(weights)
		if err != nil {
			return nil, errf("decoded aggregator invalid: %v", err)
		}
		return ws, nil
	default:
		return nil, errf("unknown aggregator tag %d", tag)
	}
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

func (f *FloorFrame) appendBody(dst []byte) ([]byte, error) {
	dst = interval.AppendU64(dst, f.QueryID)
	dst = appendF64(dst, f.Floor)
	return dst, nil
}

func decodeFloor(r *interval.BinaryReader) (*FloorFrame, error) {
	f := &FloorFrame{QueryID: r.U64(), Floor: readF64(r)}
	if err := r.Err(); err != nil {
		return nil, errf("reading floor frame: %v", err)
	}
	return f, nil
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

func (f *ResultFrame) appendBody(dst []byte) ([]byte, error) {
	dst = interval.AppendU64(dst, f.QueryID)
	dst = interval.AppendI64(dst, f.Epoch)
	dst = interval.AppendU64(dst, uint64(len(f.Reducers)))
	for _, rr := range f.Reducers {
		dst = interval.AppendI64(dst, int64(rr.Reducer))
		dst = appendLocalStats(dst, rr.Stats)
		dst = interval.AppendU64(dst, uint64(len(rr.Results)))
		for _, res := range rr.Results {
			dst = interval.AppendU64(dst, uint64(len(res.Tuple)))
			dst = interval.AppendIntervals(dst, res.Tuple)
			dst = appendF64(dst, res.Score)
		}
	}
	return dst, nil
}

func decodeResult(r *interval.BinaryReader) (*ResultFrame, error) {
	f := &ResultFrame{QueryID: r.U64(), Epoch: r.I64()}
	n := r.U64()
	if err := r.Err(); err != nil {
		return nil, errf("reading result header: %v", err)
	}
	if n > uint64(r.Len()/144) {
		return nil, errf("result declares %d reducers, payload holds at most %d", n, r.Len()/144)
	}
	f.Reducers = make([]join.ReducerOutput, n)
	for i := range f.Reducers {
		rj := r.I64()
		if err := r.Err(); err != nil {
			return nil, errf("reading reducer result %d: %v", i, err)
		}
		if rj < 0 {
			return nil, errf("reducer result %d names reducer %d", i, rj)
		}
		st, err := readLocalStats(r)
		if err != nil {
			return nil, err
		}
		nRes := r.U64()
		if err := r.Err(); err != nil {
			return nil, errf("reading reducer %d result count: %v", rj, err)
		}
		if nRes > uint64(r.Len()/32) {
			return nil, errf("reducer %d declares %d results, payload holds at most %d", rj, nRes, r.Len()/32)
		}
		results := make([]join.Result, nRes)
		for j := range results {
			tupleLen := r.U64()
			if err := r.Err(); err != nil {
				return nil, errf("reading reducer %d result %d: %v", rj, j, err)
			}
			if tupleLen > uint64(r.Len()/interval.BinaryIntervalSize) {
				return nil, errf("result tuple declares %d intervals, payload holds at most %d",
					tupleLen, r.Len()/interval.BinaryIntervalSize)
			}
			b := r.Bytes(int(tupleLen) * interval.BinaryIntervalSize)
			if err := r.Err(); err != nil {
				return nil, errf("reading reducer %d result %d tuple: %v", rj, j, err)
			}
			tuple, err := interval.DecodeIntervals(b)
			if err != nil {
				return nil, errf("reducer %d result %d tuple: %v", rj, j, err)
			}
			results[j] = join.Result{Tuple: tuple, Score: readF64(r)}
		}
		if err := r.Err(); err != nil {
			return nil, errf("reading reducer %d results: %v", rj, err)
		}
		f.Reducers[i] = join.ReducerOutput{Reducer: int(rj), Stats: st, Results: results}
	}
	return f, nil
}

func appendLocalStats(dst []byte, s join.LocalStats) []byte {
	dst = interval.AppendI64(dst, int64(s.Reducer))
	dst = interval.AppendI64(dst, int64(s.CombosAssigned))
	dst = interval.AppendI64(dst, int64(s.CombosProcessed))
	dst = interval.AppendI64(dst, int64(s.CombosSkipped))
	dst = interval.AppendI64(dst, s.TuplesExamined)
	dst = interval.AppendI64(dst, s.PartialsPruned)
	dst = interval.AppendI64(dst, int64(s.ResultsReturned))
	dst = interval.AppendI64(dst, int64(s.ProbeRounds))
	dst = appendF64(dst, s.FloorUsed)
	dst = appendF64(dst, s.MinScore)
	dst = interval.AppendI64(dst, int64(s.BucketRefsRouted))
	dst = appendF64(dst, s.RoutedIntervals)
	dst = appendF64(dst, s.SharedFloorFinal)
	dst = interval.AppendI64(dst, s.BoundSolves)
	dst = interval.AppendI64(dst, s.BoundReuses)
	dst = interval.AppendI64(dst, int64(s.Duration))
	return dst
}

func readLocalStats(r *interval.BinaryReader) (join.LocalStats, error) {
	s := join.LocalStats{
		Reducer:         int(r.I64()),
		CombosAssigned:  int(r.I64()),
		CombosProcessed: int(r.I64()),
		CombosSkipped:   int(r.I64()),
		TuplesExamined:  r.I64(),
		PartialsPruned:  r.I64(),
		ResultsReturned: int(r.I64()),
		ProbeRounds:     int(r.I64()),
		FloorUsed:       readF64(r),
		MinScore:        readF64(r),
	}
	s.BucketRefsRouted = int(r.I64())
	s.RoutedIntervals = readF64(r)
	s.SharedFloorFinal = readF64(r)
	s.BoundSolves = r.I64()
	s.BoundReuses = r.I64()
	s.Duration = time.Duration(r.I64())
	if err := r.Err(); err != nil {
		return join.LocalStats{}, errf("reading reducer stats: %v", err)
	}
	return s, nil
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

func (f *ErrorFrame) appendBody(dst []byte) ([]byte, error) {
	dst = interval.AppendU64(dst, f.QueryID)
	dst = interval.AppendU64(dst, f.Code)
	dst = appendString(dst, f.Msg)
	return dst, nil
}

func decodeError(r *interval.BinaryReader) (*ErrorFrame, error) {
	f := &ErrorFrame{QueryID: r.U64(), Code: r.U64()}
	if err := r.Err(); err != nil {
		return nil, errf("reading error frame: %v", err)
	}
	if f.Code > CodeLoad {
		return nil, errf("unknown worker error code %d", f.Code)
	}
	msg, err := readString(r, "error message")
	if err != nil {
		return nil, err
	}
	f.Msg = msg
	return f, nil
}
