// Package modimport imports a module package, so loading it on a fresh
// Loader has to load cosmo/internal/fnv1a on demand.
package modimport

import "cosmo/internal/fnv1a"

func Hash(s string) uint64 { return fnv1a.String64(fnv1a.Offset64, s) }
