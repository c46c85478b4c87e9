package llm

import (
	"math/rand"
	"sync"
)

// lazySource is math/rand's seeded source — the additive lagged
// Fibonacci generator behind rand.NewSource — with its 607-word state
// filled on demand. A behavior draws about ten numbers from its stream,
// so seeding every word up front (1,841 Schrage steps and a 4.9 KB
// allocation per behavior) was most of what generation cost. The stream
// is bit for bit the one rand.NewSource(seed) yields; DESIGN.md
// "Determinism under parallelism" gives the argument and
// TestLazySourceMatchesMathRand checks it.
//
// Seeding in math/rand runs the chain x[n+1] = 48271·x[n] mod (2³¹−1)
// from the normalized seed x[0], discards 20 steps, and packs three
// consecutive values into each state word, XORed with a cooked constant.
// So x[n] = x[0]·48271ⁿ mod (2³¹−1), and word i is three modular
// multiplications against seedPow plus one XOR with rngCooked.
//
// A draw reads the words at feed and tap, which both step down by one
// (mod 607) per draw from 334 and 607. The first 334 draws therefore
// touch words 333…0 through feed and the first 273 touch 606…334 through
// tap, each word once and before anything else reads it; after draw 334
// every word has been filled and the source runs exactly like the
// stdlib's. drawn is the one watermark both regions are measured by.
type lazySource struct {
	vec   [rngLen]uint64
	x0    uint64 // normalized seed: the head of the seeding chain
	tap   int
	feed  int
	drawn int // draws since Seed, saturating at rngLen-rngTap
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedSkip is how many chain steps math/rand discards before the
	// first state word.
	seedSkip = 20
	// seedZero replaces a seed that is 0 mod 2³¹−1 (the chain would
	// stay at zero), as math/rand does.
	seedZero = 89482311
)

var (
	// seedPow[3i+j] = 48271^(seedSkip+3i+j+1) mod (2³¹−1): the chain
	// offsets of state word i's three parts.
	seedPow [3 * rngLen]uint64
	// rngCooked is math/rand's cooked constant table, recovered from the
	// stdlib source at init rather than copied into the repo.
	rngCooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for n := 0; n < seedSkip; n++ {
		p = p * 48271 % int32max
	}
	for i := range seedPow {
		p = p * 48271 % int32max
		seedPow[i] = p
	}
	rngCooked = recoverCooked(rand.NewSource(1).(rand.Source64))
}

// recoverCooked runs src's first 607 draws forward, which leaves each
// state word holding the last value written to it, then undoes them in
// reverse (each draw only added the tap word to the feed word, and the
// tap word is the same when the draw is undone), which leaves the seeded
// state. src must be freshly seeded with 1; XORing out the seed-1 words
// leaves the cooked table.
func recoverCooked(src rand.Source64) [rngLen]uint64 {
	var vec [rngLen]uint64
	tap, feed := 0, rngLen-rngTap
	for range rngLen {
		tap = (tap + rngLen - 1) % rngLen
		feed = (feed + rngLen - 1) % rngLen
		vec[feed] = src.Uint64()
	}
	for range rngLen {
		vec[feed] -= vec[tap]
		tap = (tap + 1) % rngLen
		feed = (feed + 1) % rngLen
	}
	one := lazySource{x0: 1}
	for i := range vec {
		vec[i] ^= one.word(i)
	}
	return vec
}

// word returns state word i as math/rand's Seed computes it.
func (s *lazySource) word(i int) uint64 {
	p := seedPow[3*i : 3*i+3 : 3*i+3]
	return (s.x0*p[0]%int32max)<<40 ^ (s.x0*p[1]%int32max)<<20 ^ s.x0*p[2]%int32max ^ rngCooked[i]
}

// Seed normalizes seed as math/rand does and marks every word unfilled.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedZero
	}
	s.x0 = uint64(seed)
	s.tap, s.feed, s.drawn = 0, rngLen-rngTap, 0
}

// Int63 returns a non-negative 63-bit integer, as rngSource.Int63 does.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns the next value of the stream, filling the words the
// draw reads for the first time.
//
//cosmo:alloc-free
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.drawn < rngLen-rngTap {
		s.drawn++
		s.vec[s.feed] = s.word(s.feed)
		if s.drawn <= rngTap {
			s.vec[s.tap] = s.word(s.tap)
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// streams pools the per-behavior generators; a generator's whole state
// is re-derived by Seed, so any pooled one serves any behavior.
var streams = sync.Pool{New: func() any { return rand.New(new(lazySource)) }}

// rngAt returns a pooled generator seeded for the behavior at index; the
// caller hands it back with streams.Put. (*rand.Rand).Seed reseeds the
// source and resets the Rand's own read position.
func (t *Teacher) rngAt(index uint64) *rand.Rand {
	rng := streams.Get().(*rand.Rand)
	rng.Seed(DeriveSeed(t.cfg.Seed, index))
	return rng
}
