// Package cluster is the distributed serving tier: a Router fronts N
// cosmo-serve nodes, routing each query key to a replica set derived
// from a consistent-hash ring (the same FNV idiom as the cache shard
// striping, one level up), reading from the primary with a hedged
// request to the next replica after a latency-percentile-derived delay,
// and failing over deterministically when nodes die, hang, drain or go
// breaker-open. The 1-node case wraps a local serving.Deployment
// directly (LocalBackend), so the whole tier runs hermetically in
// tests; production nodes are HTTP clients (HTTPBackend).
package cluster

import (
	"math"
	"sort"
	"strconv"

	"cosmo/internal/fnv1a"
)

// DefaultVirtualNodes is the per-node virtual point count. At 128
// points per node the primary-ownership spread across a handful of
// nodes stays within a few percent of even.
const DefaultVirtualNodes = 128

// ringHash hashes a key to a ring position: 64-bit FNV-1a over plain
// functions, so routing allocates nothing — the same hash as the cache
// shard striping in internal/serving — then finished with a 64-bit
// avalanche mixer: raw FNV-1a clusters badly on the short, similar
// strings ring points are made of ("node0#17"), and clustering is
// exactly what virtual nodes exist to prevent.
func ringHash(s string) uint64 {
	return mix64(fnv1a.String64(fnv1a.Offset64, s))
}

// mix64 is MurmurHash3's 64-bit finalizer (fmix64): full avalanche, so
// every input bit disturbs every output bit.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// point is one virtual node position on the ring.
type point struct {
	hash uint64
	node int32 // index into the router's node table
}

// Ring is an immutable consistent-hash ring over a fixed node set with
// virtual nodes for balance. A key's preference order is the sequence
// of distinct nodes met walking clockwise from the key's hash point;
// the replica set is the first replication-factor eligible nodes of
// that walk, so excluding a node (death, drain, breaker) shifts only
// the keys it owned, each deterministically onto its next replica.
type Ring struct {
	points []point
	nodes  int
}

// NewRing builds a ring over node indices 0..n-1 identified by names
// (names seed the virtual point hashes, so membership — not slice
// order — determines the layout). vnodes <= 0 selects
// DefaultVirtualNodes.
func NewRing(names []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	if len(names) > math.MaxInt32 {
		panic("cluster: node count exceeds ring capacity")
	}
	points := make([]point, 0, len(names)*vnodes)
	for i, name := range names {
		for v := 0; v < vnodes; v++ {
			h := ringHash(name + "#" + strconv.Itoa(v))
			points = append(points, point{hash: h, node: int32(i)})
		}
	}
	// Ties (hash collisions across nodes) break by node index so the
	// layout is deterministic regardless of sort internals.
	sort.Slice(points, func(a, b int) bool {
		if points[a].hash != points[b].hash {
			return points[a].hash < points[b].hash
		}
		return points[a].node < points[b].node
	})
	return &Ring{points: points, nodes: len(names)}
}

// NumNodes returns the ring's node count.
func (r *Ring) NumNodes() int { return r.nodes }

// Walk appends to dst the distinct node indices met walking clockwise
// from key's hash point, keeping only nodes for which eligible returns
// true (nil means all nodes are eligible), stopping after max nodes
// (max <= 0 means all). The walk visits each node's first point once,
// so the result is the key's deterministic preference order: element 0
// is the primary, element 1 the first replica, and so on.
func (r *Ring) Walk(dst []int, key string, max int, eligible func(int) bool) []int {
	if len(r.points) == 0 {
		return dst
	}
	if max <= 0 || max > r.nodes {
		max = r.nodes
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var seen uint64 // node-index bitmap; rings are small (node count <= 64)
	if r.nodes > 64 {
		return r.walkWide(dst, start, max, eligible)
	}
	for i, found := 0, 0; i < len(r.points) && found < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		bit := uint64(1) << uint(p.node)
		if seen&bit != 0 {
			continue
		}
		seen |= bit
		if eligible != nil && !eligible(int(p.node)) {
			continue
		}
		dst = append(dst, int(p.node))
		found++
	}
	return dst
}

// walkWide is Walk's fallback for rings past 64 nodes, trading the
// bitmap for a slice.
func (r *Ring) walkWide(dst []int, start, max int, eligible func(int) bool) []int {
	seen := make([]bool, r.nodes)
	for i, found := 0, 0; i < len(r.points) && found < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		if eligible != nil && !eligible(int(p.node)) {
			continue
		}
		dst = append(dst, int(p.node))
		found++
	}
	return dst
}
