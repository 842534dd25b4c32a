//go:build unix

package mmapstore

import (
	"fmt"
	"os"
	"syscall"
)

// Open maps the snapshot at path read-only and structurally validates
// it (see OpenBytes for the validation split). The file contents are
// never read into the heap: bucket probes fault pages in on demand and
// the page cache is shared across processes serving the same dataset.
// The returned Reader owns one reference; drop it with Close.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mmapstore: %w", err)
	}
	defer f.Close() // the mapping outlives the descriptor
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("mmapstore: %w", err)
	}
	size := fi.Size()
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmapstore: %s: %d bytes exceeds the address space", path, size)
	}
	var data []byte
	if size > 0 { // an empty file cannot be mapped; the walker refuses it as a short header
		data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
		if err != nil {
			return nil, fmt.Errorf("mmapstore: mapping %s: %w", path, err)
		}
	}
	r, err := newReader(data, syscall.Munmap)
	if err != nil {
		_ = syscall.Munmap(data) // a no-op error for the empty file
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return r, nil
}
