package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"

	"tkij/internal/interval"
	"tkij/internal/stats"
	"tkij/internal/store"
)

const recordSize = interval.BinaryIntervalSize

// Image is a structurally validated snapshot image, as Parse leaves
// it: the matrices decoded, the store and delta sections reduced to
// byte ranges inside the parsed buffer. Every range lies inside that
// buffer, so a consumer can copy or view any of them without a further
// bounds check; what the records say is VerifyContent's business.
type Image struct {
	// Matrices are ordinary heap objects (the statistics half is small).
	Matrices []*stats.Matrix
	// Cols is the store section's bucket directory, one entry per
	// collection; each bucket's Records alias the parsed buffer.
	Cols []store.MappedCol
	// Deltas are the appended ingest batches, epochs 1, 2, ... in order.
	Deltas []Delta

	payload []byte // the bytes the header's checksum covers
	crc     uint64 // the header's checksum word
}

// Delta is one delta section: an ingest batch recorded by AppendDelta.
type Delta struct {
	Epoch uint64
	Col   int
	// Records is the batch's record byte range in the parsed buffer.
	Records []byte
	// Items is the batch as intervals, once View has run.
	Items []interval.Interval
}

// Parse is the one structural walk of the snapshot format
// (docs/SNAPSHOT_FORMAT.md): header, payload bounds, section framing
// and order, the matrices section decoded in full, the store section's
// directories, delta framing and sequencing, and coherence between the
// directories and the matrices. It is O(buckets): no interval record is
// read, decoded or copied, and neither is the checksum computed — both
// belong to VerifyContent.
func Parse(img []byte) (*Image, error) {
	if len(img) < headerSize {
		return nil, fmt.Errorf("snapshot: %d bytes is shorter than the %d-byte header", len(img), headerSize)
	}
	hdr := interval.NewBinaryReader(img[:headerSize])
	if got := string(hdr.Bytes(8)); got != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (not a snapshot file)", got)
	}
	if v := hdr.U64(); v != Version {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads version %d", v, Version)
	}
	nSections, payloadLen := hdr.U64(), hdr.U64()
	p := &Image{crc: hdr.U64()}
	if payloadLen > uint64(len(img)-headerSize) {
		return nil, fmt.Errorf("snapshot: header declares %d payload bytes, file has %d (truncated?)", payloadLen, len(img)-headerSize)
	}
	// Bytes beyond the declared payload are tolerated (not an error):
	// AppendDelta writes the new section before committing the header,
	// so a crash between the two leaves exactly this shape — a fully
	// valid snapshot followed by uncommitted bytes the header (and the
	// checksum) does not cover.
	p.payload = img[headerSize : headerSize+int(payloadLen)]

	r := interval.NewBinaryReader(p.payload)
	for s := uint64(0); s < nSections; s++ {
		kind := r.U64()
		bodyLen := int(r.U64())
		body := interval.NewBinaryReader(r.Bytes(bodyLen))
		if pad := (8 - bodyLen%8) % 8; pad > 0 {
			r.Bytes(pad)
		}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("snapshot: section %d: %w", s, err)
		}
		var err error
		switch {
		case kind == sectionMatrices && p.Matrices == nil:
			p.Matrices, err = matricesSection(body)
		case kind == sectionMatrices:
			err = errors.New("a second matrices section")
		case kind == sectionStore && p.Matrices == nil:
			err = errors.New("the store section precedes the matrices section")
		case kind == sectionStore && p.Cols != nil:
			err = errors.New("a second store section")
		case kind == sectionStore:
			if p.Cols, err = store.ReadDirectory(body); err == nil && body.Len() != 0 {
				err = fmt.Errorf("store section has %d trailing bytes", body.Len())
			}
		case kind == sectionDelta && (p.Matrices == nil || p.Cols == nil):
			err = errors.New("a delta section precedes the base matrices/store sections")
		case kind == sectionDelta:
			var d Delta
			d, err = deltaSection(body, len(p.Deltas)+1, len(p.Matrices))
			p.Deltas = append(p.Deltas, d)
		default:
			// Unknown sections are an error, not skippable: within one
			// version the section set is fixed, so this is corruption.
			err = fmt.Errorf("unknown section kind %d", kind)
		}
		if err != nil {
			return nil, fmt.Errorf("snapshot: section %d: %w", s, err)
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("snapshot: payload has %d bytes beyond the declared sections", r.Len())
	}
	if p.Matrices == nil || p.Cols == nil {
		return nil, fmt.Errorf("snapshot: incomplete file (matrices present: %t, store present: %t)", p.Matrices != nil, p.Cols != nil)
	}
	if err := checkCoherence(directoryShape(p.Cols), p.Matrices); err != nil {
		return nil, err
	}
	return p, nil
}

// matricesSection decodes the matrices section body.
func matricesSection(r *interval.BinaryReader) ([]*stats.Matrix, error) {
	body := r.Len()
	n := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Each encoded matrix is at least 40 bytes (col + granulation +
	// total); bounding the count by that floor keeps a crafted section
	// from amplifying its size 8x into pointer slabs.
	if n == 0 || n > uint64(body)/40 {
		return nil, fmt.Errorf("matrices section of %d bytes declares %d matrices", body, n)
	}
	ms := make([]*stats.Matrix, n)
	for i := range ms {
		m, err := stats.ReadMatrix(r)
		if err != nil {
			return nil, fmt.Errorf("matrix %d: %w", i, err)
		}
		ms[i] = m
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("matrices section has %d trailing bytes", r.Len())
	}
	return ms, nil
}

// deltaSection frames one delta section body — epoch, collection index,
// interval count, contiguous record payload — and holds it to its place
// in the sequence: epoch wantEpoch, targeting one of nCols collections.
func deltaSection(r *interval.BinaryReader, wantEpoch, nCols int) (Delta, error) {
	epoch, col, count := r.U64(), r.I64(), r.U64()
	if err := r.Err(); err != nil {
		return Delta{}, err
	}
	if count == 0 || count > uint64(r.Len())/recordSize {
		return Delta{}, fmt.Errorf("body of %d bytes declares %d intervals", r.Len(), count)
	}
	records := r.Bytes(int(count) * recordSize)
	if r.Len() != 0 {
		return Delta{}, fmt.Errorf("%d trailing bytes", r.Len())
	}
	if epoch != uint64(wantEpoch) {
		return Delta{}, fmt.Errorf("delta epoch %d out of order (expected %d)", epoch, wantEpoch)
	}
	if col < 0 || col >= int64(nCols) {
		return Delta{}, fmt.Errorf("delta epoch %d targets collection %d of %d", epoch, col, nCols)
	}
	return Delta{Epoch: epoch, Col: int(col), Records: records}, nil
}

// View sets Items on every bucket and every delta to view(Records) —
// a heap copy (CopyRecords) or an in-place cast (internal/mmapstore).
func (p *Image) View(view func(records []byte) []interval.Interval) {
	for _, c := range p.Cols {
		for i := range c.Buckets {
			c.Buckets[i].Items = view(c.Buckets[i].Records)
		}
	}
	for i := range p.Deltas {
		p.Deltas[i].Items = view(p.Deltas[i].Records)
	}
}

// checksum verifies the payload against the header's CRC64 word.
func (p *Image) checksum() error {
	if got := crc64.Checksum(p.payload, crcTable); got != p.crc {
		return fmt.Errorf("snapshot: checksum mismatch (want %016x, got %016x): file is corrupted", p.crc, got)
	}
	return nil
}

// VerifyContent is the O(dataset) half of validation, the part Parse
// leaves out: the payload checksum, start <= end on every record, and
// every sealed record re-bucketed under its collection's granulation
// against the bucket that declared it — so a corrupted payload cannot
// produce a store that silently serves wrong buckets. Parse followed by
// VerifyContent is the format's whole acceptance rule. It reads the
// records in place and allocates nothing.
func (p *Image) VerifyContent() error {
	if err := p.checksum(); err != nil {
		return err
	}
	for _, c := range p.Cols {
		for _, b := range c.Buckets {
			if err := checkRecords(b.Records, c.Gran, b.StartG, b.EndG, true); err != nil {
				return fmt.Errorf("snapshot: collection %d bucket (%d,%d): %w", c.Col, b.StartG, b.EndG, err)
			}
		}
	}
	for _, d := range p.Deltas {
		if err := checkRecords(d.Records, stats.Granulation{}, 0, 0, false); err != nil {
			return fmt.Errorf("snapshot: delta epoch %d: %w", d.Epoch, err)
		}
	}
	return nil
}

// checkRecords validates a contiguous record range in place. With
// rebucket set, each record must also land in bucket (startG, endG)
// under gran.
func checkRecords(raw []byte, gran stats.Granulation, startG, endG int, rebucket bool) error {
	for i := 0; i < len(raw)/recordSize; i++ {
		iv := record(raw[i*recordSize:])
		if !iv.Valid() {
			return fmt.Errorf("record %d: start %d > end %d", i, iv.Start, iv.End)
		}
		if rebucket {
			if l, lp := gran.BucketOf(iv); l != startG || lp != endG {
				return fmt.Errorf("record %d %v belongs in bucket (%d,%d)", i, iv, l, lp)
			}
		}
	}
	return nil
}

// record decodes the interval record at raw[0:recordSize].
func record(raw []byte) interval.Interval {
	return interval.Interval{
		ID:    int64(binary.LittleEndian.Uint64(raw)),
		Start: int64(binary.LittleEndian.Uint64(raw[8:])),
		End:   int64(binary.LittleEndian.Uint64(raw[16:])),
	}
}

// CopyRecords decodes a record range into a fresh heap slice. It does
// not validate: that is VerifyContent's pass over the same bytes.
func CopyRecords(raw []byte) []interval.Interval {
	out := make([]interval.Interval, len(raw)/recordSize)
	for i := range out {
		out[i] = record(raw[i*recordSize:])
	}
	return out
}

// shape is what checkCoherence needs to know of a partition, whether it
// is a live store or a parsed directory.
type shape struct {
	cols, intervals int
	gran            func(col int) stats.Granulation
	bucketLen       func(col, startG, endG int) int
}

func storeShape(st *store.Store) shape {
	return shape{
		cols: st.NumCols(), intervals: st.Intervals(),
		gran:      func(i int) stats.Granulation { return st.Col(i).Granulation() },
		bucketLen: func(i, l, lp int) int { return len(st.Col(i).BucketItems(l, lp)) },
	}
}

func directoryShape(cols []store.MappedCol) shape {
	sh := shape{cols: len(cols), gran: func(i int) stats.Granulation { return cols[i].Gran }}
	counts := make([]map[[2]int]int, len(cols))
	for i, c := range cols {
		counts[i] = make(map[[2]int]int, len(c.Buckets))
		for _, b := range c.Buckets {
			n := len(b.Records) / recordSize
			counts[i][[2]int{b.StartG, b.EndG}] = n
			sh.intervals += n
		}
	}
	sh.bucketLen = func(i, l, lp int) int { return counts[i][[2]int{l, lp}] }
	return sh
}

// checkCoherence verifies that the matrices describe exactly the
// partition p: aligned collections, identical granulations, per-bucket
// counts matching the resident items, and no resident item the matrices
// do not count. It gates both ends of the codec — Encode, so a save
// from a store that disagrees with its matrices (e.g. a matrix grown by
// stats.ApplyUpdate while the store was not appended to) fails fast
// instead of writing a file only restore can reject; Parse, so a
// damaged file never yields a partial store; and Replay, on the merged
// state.
func checkCoherence(p shape, matrices []*stats.Matrix) error {
	if p.cols != len(matrices) {
		return fmt.Errorf("snapshot: %d matrices for %d store collections", len(matrices), p.cols)
	}
	total := 0
	for i, m := range matrices {
		if m.Col != i {
			return fmt.Errorf("snapshot: matrix %d encodes collection %d", i, m.Col)
		}
		if m.Gran != p.gran(i) {
			return fmt.Errorf("snapshot: collection %d: matrix granulation %+v != store granulation %+v", i, m.Gran, p.gran(i))
		}
		colTotal := 0
		for _, b := range m.Buckets() {
			n := p.bucketLen(i, b.StartG, b.EndG)
			if n != b.Count {
				return fmt.Errorf("snapshot: collection %d bucket (%d,%d): matrix counts %d intervals, store holds %d",
					i, b.StartG, b.EndG, b.Count, n)
			}
			colTotal += n
		}
		if colTotal != m.Total() {
			return fmt.Errorf("snapshot: collection %d: store holds %d intervals, matrix total is %d", i, colTotal, m.Total())
		}
		total += colTotal
	}
	if total != p.intervals {
		return fmt.Errorf("snapshot: store interval count %d != matrices total %d", p.intervals, total)
	}
	return nil
}
