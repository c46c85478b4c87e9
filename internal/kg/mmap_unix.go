//go:build (linux || darwin) && !cosmo_nommap

package kg

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile memory-maps the whole of f read-only and returns the region
// plus its releaser. The mapping is private (MAP_PRIVATE): concurrent
// rewrites of the artifact on disk cannot tear pages under a live
// reader on the filesystems we target, and the refresh loop always
// replaces the file atomically (write temp + rename) anyway.
func mapFile(f *os.File) ([]byte, func([]byte) error, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("kg: map snapshot: %w", err)
	}
	size := fi.Size()
	if size == 0 {
		// mmap of length 0 is an error on Linux; an empty file can never
		// hold a valid header, so hand back an empty non-mapped buffer
		// and let header validation reject it.
		return nil, nil, nil
	}
	if size != int64(int(size)) {
		return nil, nil, fmt.Errorf("kg: map snapshot: file size %d overflows int", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("kg: map snapshot: mmap: %w", err)
	}
	return data, syscall.Munmap, nil
}
