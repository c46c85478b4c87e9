package b

import "cosmo/internal/lint/testdata/src/cycle/a"

var B = 1

var C = a.A
