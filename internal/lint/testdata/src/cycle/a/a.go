// Package a imports b, which imports a: the loader must report the
// cycle instead of recursing.
package a

import "cosmo/internal/lint/testdata/src/cycle/b"

var A = b.B
