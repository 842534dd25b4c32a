// Package snapshot persists the offline phase of the TKIJ pipeline:
// the bucket matrices (§3.2 statistics) and the dataset-resident bucket
// partition serialize to one versioned, checksummed file, and restoring
// it gives an engine whose first query runs zero statistics work.
//
// The package owns the container format (docs/SNAPSHOT_FORMAT.md is the
// byte-level contract): its constants are declared here and nowhere
// else, Encode and AppendDelta are its writers, and Parse is the only
// code that walks an image. Validation has two stages — Parse, the
// O(buckets) structural walk that reduces the store and delta sections
// to byte ranges, and (*Image).VerifyContent, the O(dataset) pass over
// the checksum and the records — shared by three consumers: Decode (the
// heap restore) runs both and copies every range to the heap,
// AppendDelta runs Parse and the checksum, internal/mmapstore runs Parse
// over a mapping, views the ranges in place and defers VerifyContent.
// Loading is all-or-nothing: any damage — bad magic, version mismatch,
// truncation, checksum failure, a repeated or misplaced section, or a
// section that fails its package's validation (internal/interval,
// internal/stats, internal/store own the section bodies) — returns an
// error and never a partial store.
//
// Streaming ingest extends a snapshot without a format break: each
// appended batch becomes one delta section (AppendDelta) after the base
// matrices/store sections, in epoch order, using the same framing; only
// the fixed-offset header (section count, payload length, CRC) is
// rewritten. Replay applies delta sections to both the store (one
// Append per section, re-establishing the epoch sequence) and the
// matrices (incremental count maintenance), then re-verifies coherence
// on the merged state — so a restored engine is indistinguishable from
// the live engine that appended the same batches.
package snapshot

import (
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"

	"tkij/internal/interval"
	"tkij/internal/stats"
	"tkij/internal/store"
)

// Version is the current snapshot format version. Readers reject any
// other version rather than guessing at a layout.
const Version = 1

// The header is 48 bytes: magic, version, section count, payload
// length, CRC64-ECMA of the payload, one reserved zero word.
const (
	headerSize = 48
	magic      = "TKIJSNAP"

	sectionMatrices = 1
	sectionStore    = 2
	// sectionDelta is one appended ingest batch: epoch, collection,
	// interval count, then the contiguous fixed-width interval payload.
	// Delta sections follow the base sections in epoch order (1, 2, ...).
	sectionDelta = 3
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// appendSection appends one kind-tagged, length-prefixed, 8-padded
// section.
func appendSection(dst []byte, kind uint64, body []byte) []byte {
	dst = interval.AppendU64(dst, kind)
	dst = interval.AppendU64(dst, uint64(len(body)))
	dst = append(dst, body...)
	for len(dst)%8 != 0 {
		dst = append(dst, 0)
	}
	return dst
}

// Encode serializes the offline phase to a snapshot image. The store
// and matrices must be aligned per collection (same count, same
// granulations, matching per-bucket counts) — Encode verifies this so
// a snapshot is coherent by construction; a store gone stale against
// its matrices is refused here, not discovered at restore time.
func Encode(st *store.Store, matrices []*stats.Matrix) ([]byte, error) {
	if st == nil || len(matrices) == 0 {
		return nil, fmt.Errorf("snapshot: nothing to encode (store and matrices required)")
	}
	for i, m := range matrices {
		if m == nil {
			return nil, fmt.Errorf("snapshot: matrix %d is nil", i)
		}
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("snapshot: refusing to encode: %w", err)
		}
	}
	if err := checkCoherence(storeShape(st), matrices); err != nil {
		return nil, err
	}
	var mbody []byte
	mbody = interval.AppendU64(mbody, uint64(len(matrices)))
	for _, m := range matrices {
		mbody = m.AppendMatrix(mbody)
	}

	// Build the image in place — header slot first, sections appended
	// directly, header fields backfilled once the payload is complete.
	// The store section (the bulk of the file) is written straight into
	// img with a backfilled length prefix, so the dataset payload is
	// never staged through a temporary buffer; the capacity hint covers
	// it too (intervals + bucket directories + per-collection headers),
	// so appending it doesn't grow-reallocate either.
	storeHint := st.Intervals()*interval.BinaryIntervalSize +
		st.Snapshot().Buckets*24 + st.NumCols()*56 + 8
	img := make([]byte, headerSize, headerSize+len(mbody)+storeHint+48)
	img = appendSection(img, sectionMatrices, mbody)
	img = interval.AppendU64(img, sectionStore)
	lenAt := len(img)
	img = interval.AppendU64(img, 0) // store body length, backfilled
	bodyStart := len(img)
	img = st.AppendStore(img)
	interval.PutU64(img[lenAt:], uint64(len(img)-bodyStart))
	for len(img)%8 != 0 { // store bodies are 8-multiples; keep the invariant anyway
		img = append(img, 0)
	}

	copy(img[:8], magic)
	interval.PutU64(img[8:], Version)
	interval.PutU64(img[16:], 2) // section count
	interval.PutU64(img[24:], uint64(len(img)-headerSize))
	interval.PutU64(img[32:], crc64.Checksum(img[headerSize:], crcTable))
	interval.PutU64(img[40:], 0) // reserved
	return img, nil
}

// Decode is the heap restore: Parse and VerifyContent accept the image
// in full before anything is built, every record range is copied to the
// heap, and the delta sections are replayed on top.
func Decode(img []byte) (*store.Store, []*stats.Matrix, error) {
	p, err := Parse(img)
	if err == nil {
		err = p.VerifyContent()
	}
	if err != nil {
		return nil, nil, err
	}
	p.View(CopyRecords)
	st, err := store.BuildSealed(p.Cols, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	if err := Replay(st, p.Matrices, p.Deltas); err != nil {
		return nil, nil, err
	}
	return st, p.Matrices, nil
}

// Replay applies a parsed image's delta sections, in epoch order, to
// the store and matrices built from its base sections — the one replay
// both restore paths run. Each section goes through the live append
// path (one Store.Append, re-establishing the epoch sequence exactly as
// the live engine published it, then Matrix.Add per interval); the
// merged matrices are validated and their coherence with the merged
// store re-checked. Append copies the values out, so Items may alias a
// mapping.
func Replay(st *store.Store, matrices []*stats.Matrix, deltas []Delta) error {
	for _, d := range deltas {
		if _, err := st.Append(d.Col, d.Items); err != nil {
			return fmt.Errorf("snapshot: replaying delta epoch %d: %w", d.Epoch, err)
		}
		for _, iv := range d.Items {
			matrices[d.Col].Add(iv)
		}
	}
	if len(deltas) == 0 {
		return nil
	}
	for i, m := range matrices {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("snapshot: matrix %d after delta replay: %w", i, err)
		}
	}
	return checkCoherence(storeShape(st), matrices)
}

// Save atomically writes a snapshot file: the image is written to a
// temporary sibling and renamed into place, so a crash mid-write never
// leaves a truncated snapshot at path.
func Save(path string, st *store.Store, matrices []*stats.Matrix) error {
	img, err := Encode(st, matrices)
	if err != nil {
		return err
	}
	return WriteImage(path, img)
}

// AppendDelta extends an existing snapshot file with one ingest batch
// as a delta section, in O(batch) work beyond one sequential read of
// the file: the file is verified (Parse and the checksum, so a file
// Load would refuse structurally is never extended; the per-record
// content pass stays where it always runs, at Load) but no record is
// decoded, re-encoded or rewritten; the new section's bytes are appended
// in place; and the checksum is extended incrementally (crc64.Update
// over just the new bytes). The recorded epoch continues the file's
// existing delta sequence.
//
// Commit order: the section is written and synced beyond the committed
// payload first, and only then is the fixed-offset header (section
// count, payload length, checksum) rewritten. A crash before the
// header commit leaves trailing bytes the header does not cover —
// Decode ignores them and serves the previous state; the next
// AppendDelta overwrites them. The header commit itself is one 48-byte
// write at offset 0, assumed atomic at the storage layer (it fits one
// disk sector — the same assumption write-ahead logs make); a torn
// header fails the checksum at load rather than serving silent
// corruption, and is repaired by re-saving the engine's snapshot.
// Callers who cannot accept that window should Save to a fresh file
// instead, which commits via rename.
//
// It returns the epoch the batch was recorded as.
func AppendDelta(path string, col int, ivs []interval.Interval) (int64, error) {
	if len(ivs) == 0 {
		return 0, fmt.Errorf("snapshot: empty delta for %s", path)
	}
	for _, iv := range ivs {
		if !iv.Valid() {
			return 0, fmt.Errorf("snapshot: delta holds invalid interval %v", iv)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	img, err := io.ReadAll(f)
	if err != nil {
		return 0, fmt.Errorf("snapshot: reading %s: %w", path, err)
	}
	p, err := Parse(img)
	if err == nil {
		err = p.checksum()
	}
	if err != nil {
		return 0, fmt.Errorf("%w (refusing to extend %s)", err, path)
	}
	if col < 0 || col >= len(p.Matrices) {
		return 0, fmt.Errorf("snapshot: delta targets collection %d, %s holds %d", col, path, len(p.Matrices))
	}
	epoch := uint64(len(p.Deltas)) + 1

	var body []byte
	body = interval.AppendU64(body, epoch)
	body = interval.AppendI64(body, int64(col))
	body = interval.AppendU64(body, uint64(len(ivs)))
	body = interval.AppendIntervals(body, ivs)
	sec := appendSection(nil, sectionDelta, body)

	// Write the section past the committed payload, drop any trailing
	// bytes from an earlier interrupted append, and sync before the
	// header commit can make the new section visible.
	end := int64(headerSize + len(p.payload))
	if _, err := f.WriteAt(sec, end); err != nil {
		return 0, fmt.Errorf("snapshot: extending %s: %w", path, err)
	}
	if err := f.Truncate(end + int64(len(sec))); err != nil {
		return 0, fmt.Errorf("snapshot: extending %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("snapshot: extending %s: %w", path, err)
	}

	hdr := make([]byte, headerSize)
	copy(hdr, img[:headerSize])
	r := interval.NewBinaryReader(img[16:24])
	interval.PutU64(hdr[16:], r.U64()+1) // section count
	interval.PutU64(hdr[24:], uint64(len(p.payload)+len(sec)))
	interval.PutU64(hdr[32:], crc64.Update(p.crc, crcTable, sec))
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return 0, fmt.Errorf("snapshot: committing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("snapshot: committing %s: %w", path, err)
	}
	return int64(epoch), nil
}

// WriteImage atomically writes an encoded snapshot image to path via a
// temporary sibling and rename, so a crash mid-write never leaves a
// truncated snapshot at path.
func WriteImage(path string, img []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tkij-snapshot-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(img); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: writing %s: %w", path, err)
	}
	// CreateTemp's 0600 would survive the rename and lock out other
	// accounts; snapshots are shared dataset artifacts, not secrets.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: writing %s: %w", path, err)
	}
	// Flush data blocks before the rename so a power loss cannot
	// persist the directory entry ahead of the contents.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Load reads and decodes a snapshot file.
func Load(path string) (*store.Store, []*stats.Matrix, error) {
	img, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	st, ms, err := Decode(img)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return st, ms, nil
}
