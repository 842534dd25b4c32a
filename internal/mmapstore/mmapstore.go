// Package mmapstore is the zero-copy consumer of the snapshot format:
// it maps a snapshot file read-only, has snapshot.Parse walk the
// mapping, and serves the sealed bucket partition directly from it — no
// interval is decoded into a heap object, a bucket's records are the
// mapped bytes viewed in place as an []interval.Interval (the
// snapshot's 24-byte fixed-width, 8-byte aligned record layout is
// exactly the struct's memory layout on little-endian hosts; see
// docs/SNAPSHOT_FORMAT.md). What this package adds to the shared walker
// is the mapping's lifetime, the in-place cast (the repo's only unsafe,
// fenced here by the mmapescape analyzer), and when validation runs:
// Open runs the structural stage (snapshot.Parse, O(buckets)), after
// which every byte range a probe will touch is known to lie inside the
// mapping — probes cannot fault; Verify runs the content stage
// ((*snapshot.Image).VerifyContent, O(dataset)), which core.OpenEngine
// leaves to the background, failing the next query admission if the
// file turns out damaged. They are the two functions snapshot.Decode
// runs back to back, so Open + Verify accept exactly the files Decode
// accepts.
//
// The Reader's mapping is refcounted: Open hands the caller one
// reference (drop it with Close), and the bucket store retains one per
// pinned epoch view, so the mapping is only unmapped after the last
// in-flight probe's view is released — never under a running query.
package mmapstore

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"tkij/internal/interval"
	"tkij/internal/snapshot"
	"tkij/internal/stats"
	"tkij/internal/store"
)

// hostLittleEndian reports whether the in-place record cast is
// byte-exact on this host; big-endian hosts fall back to a decoded
// copy per bucket (correct, not zero-copy).
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func init() {
	// The zero-copy cast relies on interval.Interval having exactly
	// the snapshot record layout: three contiguous 8-byte words at
	// offsets 0/8/16. Fail loudly at process start if the struct ever
	// drifts.
	var iv interval.Interval
	if unsafe.Sizeof(iv) != interval.BinaryIntervalSize ||
		unsafe.Offsetof(iv.ID) != 0 || unsafe.Offsetof(iv.Start) != 8 || unsafe.Offsetof(iv.End) != 16 {
		panic("mmapstore: interval.Interval layout diverged from the snapshot record layout")
	}
}

// Reader is an open, structurally validated snapshot mapping.
type Reader struct {
	data  []byte // the whole file image
	unmap func([]byte) error

	refs   atomic.Int64
	closed atomic.Bool

	// img is the parsed image; its buckets' and deltas' Items view the
	// mapping in place. Read-only: writing through them would fault.
	img *snapshot.Image

	verifyOnce sync.Once
	verifyErr  error
	// asyncErr publishes a background Verify failure to Err.
	asyncErr atomic.Pointer[error]
}

// OpenBytes structurally validates a snapshot image held in memory and
// returns a Reader over it (no file, no unmap — the fuzz and test
// entry point; Open is the mmap-backed sibling). The returned Reader
// starts with one reference.
func OpenBytes(img []byte) (*Reader, error) {
	return newReader(img, nil)
}

func newReader(data []byte, unmap func([]byte) error) (*Reader, error) {
	img, err := snapshot.Parse(data)
	if err != nil {
		return nil, err
	}
	img.View(viewRecords)
	r := &Reader{data: data, unmap: unmap, img: img}
	r.refs.Store(1)
	return r, nil
}

// Cols returns the mapped sealed partitions, one per collection, as
// Store serves them. Production code goes through Store; this is the
// window the tests check the views' aliasing through.
func (r *Reader) Cols() []store.MappedCol { return r.img.Cols }

// Store assembles the restored engine state over the mapping: the
// sealed partition served in place, each bucket indexed by a lazily
// built R-tree (store.BuildSealed, which retains the Reader for the
// store and for every view it pins), the delta sections replayed on top
// through the ordinary append path — copying just the deltas to the
// heap, exactly as live ingest would have. The matrices are ordinary
// heap objects and stay valid after the Reader is released. Call it
// once per Reader: replay mutates the parsed matrices.
func (r *Reader) Store() (*store.Store, []*stats.Matrix, error) {
	st, err := store.BuildSealed(r.img.Cols, r)
	if err != nil {
		return nil, nil, err
	}
	if err := snapshot.Replay(st, r.img.Matrices, r.img.Deltas); err != nil {
		st.Close()
		return nil, nil, err
	}
	return st, r.img.Matrices, nil
}

// Retain adds one reference to the mapping. It must pair with a later
// Release and must not be called once the count has reached zero —
// that is a use-after-unmap programming error and panics rather than
// letting a probe read unmapped memory.
func (r *Reader) Retain() {
	for {
		n := r.refs.Load()
		if n <= 0 {
			panic("mmapstore: Retain after the mapping was released")
		}
		if r.refs.CompareAndSwap(n, n+1) {
			return
		}
	}
}

// Release drops one reference; the last one unmaps the file. After
// that, every Items slice handed out by this Reader is invalid.
func (r *Reader) Release() {
	n := r.refs.Add(-1)
	switch {
	case n < 0:
		panic("mmapstore: Release without a matching reference")
	case n == 0:
		if r.unmap != nil {
			_ = r.unmap(r.data)
			r.unmap = nil
		}
	}
}

// Live reports whether the mapping still holds at least one reference
// (diagnostics and lifecycle tests).
func (r *Reader) Live() bool { return r.refs.Load() > 0 }

// Close drops the reference Open handed the caller. Idempotent; the
// mapping survives until every retained reference (pinned store views,
// a background Verify) is released too.
func (r *Reader) Close() {
	if !r.closed.Swap(true) {
		r.Release()
	}
}

// Err returns the result of a completed background VerifyAsync: nil
// while verification is still running or passed, the verification
// error once it failed. The engine checks it at every query admission,
// so a damaged file stops serving at the next query after discovery.
func (r *Reader) Err() error {
	if e := r.asyncErr.Load(); e != nil {
		return *e
	}
	return nil
}

// VerifyAsync runs Verify on a background goroutine, holding a
// reference on the mapping for its duration. Its outcome is published
// through Err.
func (r *Reader) VerifyAsync() {
	r.Retain()
	go func() {
		defer r.Release()
		if err := r.Verify(); err != nil {
			r.asyncErr.Store(&err)
		}
	}()
}

// Verify runs the deferred O(dataset) content validation,
// (*snapshot.Image).VerifyContent, straight off the mapping. Memoized;
// safe for concurrent use.
func (r *Reader) Verify() error {
	r.verifyOnce.Do(func() { r.verifyErr = r.img.VerifyContent() })
	return r.verifyErr
}

// viewRecords views a record byte range as an interval slice: the
// zero-copy cast where the host layout permits, a decoded copy where
// it does not (big-endian, or an image whose payload landed
// misaligned — possible for in-memory images, never for a mapping,
// which is page-aligned with all sections 8-aligned by format).
func viewRecords(raw []byte) []interval.Interval {
	if len(raw) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&raw[0]))%8 == 0 {
		return unsafe.Slice((*interval.Interval)(unsafe.Pointer(&raw[0])), len(raw)/interval.BinaryIntervalSize)
	}
	return snapshot.CopyRecords(raw)
}
