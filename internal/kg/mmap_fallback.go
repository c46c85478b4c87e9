//go:build (!linux && !darwin) || cosmo_nommap

package kg

import (
	"fmt"
	"os"
)

// mapFile on this build substitutes a plain read of the whole file into
// an 8-aligned heap buffer. MapSnapshot still works — same API, same
// validation, same section aliasing (into the heap buffer instead of a
// mapped region) — it just pays a copy at load, so the cold-start and
// residency wins are native-build-only. The cosmo_nommap tag lets CI
// exercise this flavor on Linux. The nil releaser tells the mapping the
// collector owns the memory.
func mapFile(f *os.File) ([]byte, func([]byte) error, error) {
	data, err := readAligned(f)
	if err != nil {
		return nil, nil, fmt.Errorf("kg: map snapshot: %w", err)
	}
	return data, nil, nil
}
