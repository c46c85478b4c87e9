// Package modimport imports a module package, so loading it alone has
// to read cosmo/internal/fnv1a from the go tool's export data.
package modimport

import "cosmo/internal/fnv1a"

func Hash(s string) uint64 { return fnv1a.String64(fnv1a.Offset64, s) }
