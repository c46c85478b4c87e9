package kg

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"cosmo/internal/catalog"
	"cosmo/internal/know"
	"cosmo/internal/relations"
	"cosmo/internal/textproc"
)

// Snapshot is an immutable, read-optimized view of a Graph, built once
// by Freeze (or mapped from a .cosmo artifact) and then shared freely
// across goroutines with no locking at all. It is the only read path:
// the KG is written once per refresh by the offline pipeline and read
// millions of times by the online applications, so the builder Graph is
// frozen into dense arrays the moment it stops changing.
//
// Layout: node IDs and labels are interned into a symbol table mapping
// each node to a dense int32 (symbols are assigned in ascending node-ID
// order, so comparing symbols as ints is comparing IDs as strings);
// edges live in flat struct-of-arrays in Graph.Edges() key order; the
// two indexes the queries read, by head and by tail, are CSR
// offset+index arrays. Per-head adjacency is pre-sorted in the
// IntentionsFor order (descending typicality, then tail ID, then
// relation), so IntentionsFor is a zero-alloc slice view. Per-tail
// adjacency is pre-sorted product heads first, then by (head ID,
// relation): RelatedProducts stops each back row at its first
// non-product head, and the fixed order makes its float scores
// reproducible bit for bit. Both row orders are validated on load.
type Snapshot struct {
	// Symbol table: sym -> ID / label / type, ascending-ID order. Node
	// types are interned: ntypes[i] indexes ntypeTable, a tiny sorted
	// closed set — the same u8-over-table layout the binary format uses,
	// so the decoder aliases the index array straight off the file image.
	// There is no ID -> sym map: ids is strictly ascending, so symOf
	// binary-searches it.
	ids        []string
	labels     []string
	ntypes     []uint8
	ntypeTable []NodeType

	// Edge struct-of-arrays, in Graph.Edges() (key-sorted) order.
	// Behaviors are interned like node types: eBeh[i] indexes behTable.
	eHead    []int32
	eTail    []int32
	eRel     []int32 // index into rels
	eDom     []int32 // index into doms
	eBeh     []uint8 // index into behTable
	ePla     []float64
	eTyp     []float64
	eSup     []int32
	behTable []know.BehaviorType

	// prodIx and searchBuyIx cache the interned indexes of NodeProduct
	// and know.SearchBuy (-1 when absent) so the hot walks compare one
	// byte instead of a string per edge.
	prodIx      int32
	searchBuyIx int32

	// Interned relation and domain tables, ascending order.
	rels []relations.Relation
	doms []catalog.Category

	byHead csr // rows: node syms, pre-sorted by intentionsOrder
	byTail csr // rows: node syms, pre-sorted by backOrder (products first)

	// scratch pools RelatedProducts accumulators so the two-hop walk
	// allocates only its result. Bounded by the pool's GC semantics.
	scratch sync.Pool

	// Decoded-snapshot state (nil for Freeze snapshots): image is the
	// verified file image and its sealed section table, kept for Verify
	// and error attribution; mapping (set by MapSnapshot only) pins the
	// mmap'd region for as long as this snapshot is reachable (see
	// mapping.go for the RCU-retirement story).
	image   *sealedImage
	mapping *mapping
}

// csr is a compressed sparse row index: row r's entries are
// idx[off[r]:off[r+1]], each an index into the edge arrays.
type csr struct {
	off []int32
	idx []int32
}

func (c csr) row(r int32) []int32 { return c.idx[c.off[r]:c.off[r+1]] }

// sym32 converts a table index to an int32 symbol. Sizes are bounded
// up front (checkFreezeCapacity on freeze, decodeSnapshot on load); the
// local range check keeps every conversion site provably lossless
// instead of relying on a guard three calls away.
func sym32(i int) int32 {
	if i < 0 || i > math.MaxInt32 {
		panic(fmt.Sprintf("kg: symbol index %d outside the snapshot's int32 range", i))
	}
	return int32(i)
}

// newCSR builds a CSR with the given row count from (row, edge) pairs
// delivered by iterate in ascending edge order.
func newCSR(rows int, edges int, rowOf func(e int32) int32) csr {
	ne := sym32(edges)
	off := make([]int32, rows+1)
	for e := int32(0); e < ne; e++ {
		off[rowOf(e)+1]++
	}
	for r := 0; r < rows; r++ {
		off[r+1] += off[r]
	}
	idx := make([]int32, edges)
	fill := make([]int32, rows)
	for e := int32(0); e < ne; e++ {
		r := rowOf(e)
		idx[off[r]+fill[r]] = e
		fill[r]++
	}
	return csr{off: off, idx: idx}
}

// checkFreezeCapacity rejects graphs whose interned table sizes exceed
// the int32 symbol space of the frozen CSR layout. Exceeding it used to
// truncate silently via the int32 conversions in Freeze; now it is a
// descriptive error.
func checkFreezeCapacity(nodes, edges, rels, doms int) error {
	for _, c := range []struct {
		what string
		n    int
	}{{"nodes", nodes}, {"edges", edges}, {"relations", rels}, {"domains", doms}} {
		if c.n > math.MaxInt32 {
			return fmt.Errorf("kg: freeze: %d %s exceed the snapshot's int32 symbol space (max %d)",
				c.n, c.what, math.MaxInt32)
		}
	}
	return nil
}

// Freeze builds an immutable Snapshot of the graph's current contents.
// It takes the read lock once; the returned snapshot never locks. The
// mutable Graph remains fully usable (the offline pipeline keeps
// building it); serving code swaps fresh snapshots in via
// atomic.Pointer (see serving.Deployment).
//
// Freeze panics with a descriptive reason if the graph exceeds the
// snapshot's int32 capacity; callers that want the error instead use
// FreezeChecked.
func (g *Graph) Freeze() *Snapshot {
	s, err := g.FreezeChecked()
	if err != nil {
		panic("kg: Freeze: " + err.Error())
	}
	return s
}

// FreezeChecked is Freeze with the capacity guards surfaced as an
// error: node/edge/relation/domain counts and per-edge support must fit
// the snapshot's int32 symbol and counter space.
func (g *Graph) FreezeChecked() (*Snapshot, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()

	// The node IDs are sorted once: a node's rank in that order is its
	// symbol, and the edge order is read off the same ranks.
	nodes := g.sortedNodes()
	order := g.keyOrder(nodes)
	ne := len(order)
	rawBeh := make([]know.BehaviorType, ne)
	domSym := map[catalog.Category]int32{}
	for i, e := range order {
		rawBeh[i] = g.edges[e].Behavior
		domSym[g.edges[e].Domain] = 0
	}
	if err := checkFreezeCapacity(len(nodes.ids), ne, len(g.rels), len(domSym)); err != nil {
		return nil, err
	}

	s := &Snapshot{ids: nodes.ids}

	// Symbol table in ascending node-ID order.
	s.labels = make([]string, len(s.ids))
	rawTypes := make([]NodeType, len(s.ids))
	for i, n := range nodes.num {
		s.labels[i] = g.nodes[n].Label
		rawTypes[i] = g.nodes[n].Type
	}
	var err error
	if s.ntypeTable, s.ntypes, err = internSyms(rawTypes); err != nil {
		return nil, err
	}

	// Relation and domain intern tables, ascending order, so relation and
	// domain symbols compare like the strings they stand for; every
	// relation the graph numbered is carried by some edge. Behaviors are
	// interned too: with them every table bindDerived reads is in place.
	s.rels = slices.Clone(g.rels)
	slices.Sort(s.rels)
	relSym := make([]int32, len(g.rels)) // graph relation number -> symbol
	for i, r := range s.rels {
		relSym[g.relIndex[r]] = sym32(i)
	}
	s.doms = sortedSyms(domSym)
	if s.behTable, s.eBeh, err = internSyms(rawBeh); err != nil {
		return nil, err
	}
	s.bindDerived()
	s.eHead = make([]int32, ne)
	s.eTail = make([]int32, ne)
	s.eRel = make([]int32, ne)
	s.eDom = make([]int32, ne)
	s.ePla = make([]float64, ne)
	s.eTyp = make([]float64, ne)
	s.eSup = make([]int32, ne)
	for i, pos := range order {
		e, k := &g.edges[pos], g.triples[pos]
		if e.Support < 0 || e.Support > math.MaxInt32 {
			return nil, fmt.Errorf("kg: freeze: edge %q support %d outside the snapshot's int32 range",
				e.Head+"|"+string(e.Relation)+"|"+e.Tail, e.Support)
		}
		h, t := nodes.rank[k.head], nodes.rank[k.tail]
		if h < 0 || t < 0 {
			end, id := "head", e.Head
			if h >= 0 {
				end, id = "tail", e.Tail
			}
			return nil, fmt.Errorf("kg: freeze: edge %s -[%s]-> %s references unknown %s node %q",
				e.Head, e.Relation, e.Tail, end, id)
		}
		s.eHead[i] = h
		s.eTail[i] = t
		s.eRel[i] = relSym[k.rel]
		s.eDom[i] = domSym[e.Domain]
		s.ePla[i] = e.PlausibleScore
		s.eTyp[i] = e.TypicalScore
		s.eSup[i] = int32(e.Support)
	}

	s.indexRows()
	return s, nil
}

// indexRows builds the byHead and byTail CSRs over the filled edge
// arrays, each row pre-sorted in the order its queries read.
func (s *Snapshot) indexRows() {
	nn, ne := len(s.ids), len(s.eHead)
	s.byHead = newCSR(nn, ne, func(e int32) int32 { return s.eHead[e] })
	s.byTail = newCSR(nn, ne, func(e int32) int32 { return s.eTail[e] })

	// Each comparator is a total order within its row — a head row's
	// (tail, relation) and a tail row's (head, relation) are unique — so
	// the rows do not depend on the sort algorithm.
	byHead, byTail := s.intentionsOrder, s.backOrder
	for r, nn32 := int32(0), sym32(nn); r < nn32; r++ {
		slices.SortFunc(s.byHead.row(r), byHead)
		slices.SortFunc(s.byTail.row(r), byTail)
	}
}

// intentionsOrder is the byHead row order, the IntentionsFor order:
// descending typicality, then tail, then relation. Symbol comparisons
// stand in for the string comparisons because symbols are assigned in
// sorted order.
func (s *Snapshot) intentionsOrder(x, y int32) int {
	if c := cmp.Compare(s.eTyp[y], s.eTyp[x]); c != 0 {
		return c
	}
	if c := cmp.Compare(s.eTail[x], s.eTail[y]); c != 0 {
		return c
	}
	return cmp.Compare(s.eRel[x], s.eRel[y])
}

// backOrder is the byTail row order the related walk reads: product
// heads first, then by (head, relation). Graphs built by AddAssertion
// give products "p:" IDs, which sort before every "q:" query, so for
// them the first key changes nothing.
func (s *Snapshot) backOrder(x, y int32) int {
	if px, py := s.isProduct(s.eHead[x]), s.isProduct(s.eHead[y]); px != py {
		if px {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(s.eHead[x], s.eHead[y]); c != 0 {
		return c
	}
	return cmp.Compare(s.eRel[x], s.eRel[y])
}

// sortedSyms returns the keys of syms in ascending order and sets each
// key's value to its index in that order, its symbol.
func sortedSyms[T cmp.Ordered](syms map[T]int32) []T {
	out := make([]T, 0, len(syms))
	for k := range syms {
		out = append(out, k)
	}
	slices.Sort(out)
	for i, k := range out {
		syms[k] = sym32(i)
	}
	return out
}

// internSyms builds the sorted unique table over xs plus the
// per-element u8 index into it — the in-memory twin of the binary
// format's interned sections. The table is capped at 256 entries; node
// and behavior types are tiny closed sets.
func internSyms[T ~string](xs []T) (table []T, idx []uint8, err error) {
	seen := map[T]bool{}
	for _, s := range xs {
		if !seen[s] {
			seen[s] = true
			table = append(table, s)
		}
	}
	slices.Sort(table)
	if len(table) > 256 {
		return nil, nil, fmt.Errorf("kg: snapshot: %d distinct interned values exceed the u8 index space", len(table))
	}
	pos := make(map[T]uint8, len(table))
	for i, s := range table {
		pos[s] = uint8(i)
	}
	idx = make([]uint8, len(xs))
	for i, s := range xs {
		idx[i] = pos[s]
	}
	return table, idx, nil
}

// bindDerived computes the non-serialized derivatives Freeze and the
// decoder share, from the intern tables: the cached NodeProduct /
// SearchBuy intern indexes (-1 when absent) and the walk scratch pool.
func (s *Snapshot) bindDerived() {
	s.prodIx, s.searchBuyIx = -1, -1
	for i, t := range s.ntypeTable {
		if t == NodeProduct {
			s.prodIx = sym32(i)
		}
	}
	for i, b := range s.behTable {
		if b == know.SearchBuy {
			s.searchBuyIx = sym32(i)
		}
	}
	s.scratch.New = func() any { return &relatedScratch{} }
}

// nodeType resolves node i's type through the intern table.
func (s *Snapshot) nodeType(i int32) NodeType { return s.ntypeTable[s.ntypes[i]] }

// isProduct reports whether node i is a product, comparing one byte.
func (s *Snapshot) isProduct(i int32) bool { return int32(s.ntypes[i]) == s.prodIx }

// edgeAt materializes edge i. Strings come from the symbol table, so
// this copies headers, never bytes.
func (s *Snapshot) edgeAt(i int32) Edge {
	return Edge{
		Head:           s.ids[s.eHead[i]],
		Relation:       s.rels[s.eRel[i]],
		Tail:           s.ids[s.eTail[i]],
		Behavior:       s.behTable[s.eBeh[i]],
		Domain:         s.doms[s.eDom[i]],
		PlausibleScore: s.ePla[i],
		TypicalScore:   s.eTyp[i],
		Support:        int(s.eSup[i]),
	}
}

// Key is a node ID or query as a string or as a byte slice. Every
// lookup takes either: GET handlers hold strings, the /batch parser
// hands ids straight out of its request arena, and both resolve the
// same node.
type Key interface{ string | []byte }

// symOf resolves a node ID to its dense symbol. No snapshot carries a
// node hash map: the ID table is strictly ascending (sorted by Freeze,
// validated by the decoder), so the table itself is the index and a
// binary search answers in O(log n) with zero start-up cost. A byte
// key is not copied: a conversion that is only a comparison operand
// materializes no string.
//
//cosmo:alloc-free
func symOf[K Key](s *Snapshot, id K) (int32, bool) {
	lo, hi := 0, len(s.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ids[mid] < string(id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(s.ids) || s.ids[lo] != string(id) {
		return 0, false
	}
	return int32(lo), true //cosmo:lint-ignore unchecked-narrowing the loaders cap the node count at MaxInt32
}

// Node returns a node by ID.
func (s *Snapshot) Node(id string) (Node, bool) {
	i, ok := symOf(s, id)
	if !ok {
		return Node{}, false
	}
	return Node{ID: s.ids[i], Type: s.nodeType(i), Label: s.labels[i]}, true
}

// NumNodes returns the node count.
func (s *Snapshot) NumNodes() int { return len(s.ids) }

// NumEdges returns the edge count.
func (s *Snapshot) NumEdges() int { return len(s.eHead) }

// NumRelations returns the number of distinct relations present.
func (s *Snapshot) NumRelations() int { return len(s.rels) }

// Nodes returns every node in deterministic (ID-sorted) order.
func (s *Snapshot) Nodes() []Node {
	out := make([]Node, len(s.ids))
	for i := range s.ids {
		out[i] = Node{ID: s.ids[i], Type: s.nodeType(sym32(i)), Label: s.labels[i]}
	}
	runtime.KeepAlive(s) // aliased sections must outlive the last read (mmap-backed snapshots)
	return out
}

// Edges returns every edge in the same deterministic (key-sorted) order
// as Graph.Edges.
func (s *Snapshot) Edges() []Edge {
	out := make([]Edge, len(s.eHead))
	for i := range out {
		out[i] = s.edgeAt(sym32(i))
	}
	runtime.KeepAlive(s) // aliased sections must outlive the last read (mmap-backed snapshots)
	return out
}

// EdgeSeq is a zero-alloc view over a pre-sorted adjacency row. The
// value itself is two words plus a slice header; At materializes edges
// on demand without touching the heap.
type EdgeSeq struct {
	s   *Snapshot
	idx []int32
}

// Len returns the number of edges in the sequence.
func (es EdgeSeq) Len() int { return len(es.idx) }

// At materializes the i-th edge of the sequence.
func (es EdgeSeq) At(i int) Edge { return es.s.edgeAt(es.idx[i]) }

// Intention reads the i-th edge's served fields straight off the
// columns: relation, tail label, plausible, typical and support. It
// builds no Edge and resolves no node ID.
//
//cosmo:alloc-free
func (es EdgeSeq) Intention(i int) (rel relations.Relation, tailLabel string, plausible, typical float64, support int) {
	s, e := es.s, es.idx[i]
	return s.rels[s.eRel[e]], s.labels[s.eTail[e]], s.ePla[e], s.eTyp[e], int(s.eSup[e])
}

// Edges materializes the whole sequence (allocates; hot paths should
// iterate with Len/At instead).
func (es EdgeSeq) Edges() []Edge {
	out := make([]Edge, len(es.idx))
	for i := range out {
		out[i] = es.s.edgeAt(es.idx[i])
	}
	return out
}

// IntentionsOf returns the intentions reachable from a head, sorted by
// descending typicality (ties: tail ID, then relation). The returned
// view is a slice into the frozen index: no locks, no sorting, no
// allocation.
//
//cosmo:alloc-free
func IntentionsOf[K Key](s *Snapshot, head K) EdgeSeq {
	h, ok := symOf(s, head)
	if !ok {
		return EdgeSeq{}
	}
	return EdgeSeq{s: s, idx: s.byHead.row(h)}
}

// IntentionsFor is IntentionsOf for a string head.
func (s *Snapshot) IntentionsFor(head string) EdgeSeq { return IntentionsOf(s, head) }

// ContainsBytes reports whether a node with the given byte-slice ID
// exists. Kept only for the bench/ harness.
func (s *Snapshot) ContainsBytes(id []byte) bool { _, ok := symOf(s, id); return ok }

// Related is one product reached through shared intentions.
type Related struct {
	ProductID string // node ID (p:...)
	Label     string
	// Score aggregates the typicality-weighted support of the shared
	// intention paths.
	Score float64
	// Via lists the intention labels connecting the two heads.
	Via []string
}

// relatedScratch is the reusable accumulator for the two-hop
// RelatedProducts walk: a dense per-node score array, the touched set,
// a per-node mark for the head's own tails, the top-k heap, and the
// post-walk result — an entry per kept candidate whose via labels live
// in the shared arena. Pooled on the snapshot so steady-state walks
// allocate only what they return (and nothing at all on the RelatedSeq
// view path).
type relatedScratch struct {
	snap   *Snapshot
	score  []float64
	isTail []bool // per node: set for the head's tails while a walk runs
	seen   []int32
	best   topK       // the k best candidates while they are selected
	via    []string   // arena of deduped via labels, grouped per entry
	ents   []relEntry // the up-to-k result entries, best first
}

// relEntry is one result candidate: its symbol, final score, and the
// half-open [viaStart, viaEnd) range of its labels in the via arena.
type relEntry struct {
	cand     int32
	viaStart int32
	viaEnd   int32
	score    float64
}

// relatedCollect runs the two-hop walk for head symbol h entirely on
// pooled scratch and leaves up to k result entries — with their via
// labels in the scratch arena — in the returned scratch, best first:
// score descending, then product ID ascending. It accumulates every
// candidate's score, reading each of the head's back rows only up to
// its first non-product head (backOrder files products first), keeps
// the k best in the topK heap /similar also ranks with, and only then
// gathers via labels, for those k alone: a head reaches thousands of
// (candidate, tail) pairs, of which a small k keeps a few dozen. The
// caller owns the scratch until it materializes the entries
// (RelatedProducts) or releases the view (RelatedSeq.Release); the
// walk-only fields are reset here, the result fields on release.
//
//cosmo:alloc-free
func (s *Snapshot) relatedCollect(h int32, k int) *relatedScratch {
	sc := s.scratch.Get().(*relatedScratch)
	sc.snap = s
	sc.via = sc.via[:0]
	sc.ents = sc.ents[:0]
	if len(sc.score) < len(s.ids) {
		sc.score = make([]float64, len(s.ids))
		sc.isTail = make([]bool, len(s.ids))
	}
	for _, ei := range s.byHead.row(h) {
		t, typ, sup := s.eTail[ei], s.eTyp[ei], s.eSup[ei]
		sc.isTail[t] = true
		for _, bi := range s.byTail.row(t) {
			bh := s.eHead[bi]
			if !s.isProduct(bh) {
				break // the rest of the row is query heads
			}
			if bh == h {
				continue
			}
			w := typ * s.eTyp[bi] * float64(min(sup, s.eSup[bi]))
			if w <= 0 {
				w = 0.01
			}
			if sc.score[bh] == 0 {
				sc.seen = append(sc.seen, bh)
			}
			sc.score[bh] += w
		}
	}
	// Select the k best candidates in one pass over seen: once the heap
	// holds k, one compare against its root turns most candidates away.
	best := sc.best[:0]
	for _, c := range sc.seen {
		score := sc.score[c]
		sc.score[c] = 0
		if !best.rejects(k, score) {
			best = best.offer(k, scored{score, int(c)})
		}
	}
	sc.seen = sc.seen[:0]
	for len(best) > 0 {
		var last scored
		best, last = best.pop()
		sc.ents = append(sc.ents, relEntry{cand: sym32(last.p), score: last.score})
	}
	sc.best = best
	slices.Reverse(sc.ents)
	// A kept candidate's via labels are those of its own tails that the
	// head also reaches, sorted and deduped: the legacy label-set
	// semantics (distinct tails can share a label).
	for i := range sc.ents {
		en := &sc.ents[i]
		en.viaStart = sym32(len(sc.via))
		for _, ci := range s.byHead.row(en.cand) {
			if t := s.eTail[ci]; sc.isTail[t] {
				sc.via = append(sc.via, s.labels[t])
			}
		}
		labels := sc.via[en.viaStart:]
		slices.Sort(labels)
		sc.via = sc.via[:int(en.viaStart)+len(slices.Compact(labels))]
		en.viaEnd = sym32(len(sc.via))
	}
	for _, ei := range s.byHead.row(h) {
		sc.isTail[s.eTail[ei]] = false
	}
	return sc
}

// release resets the result fields and recycles the scratch.
func (sc *relatedScratch) release() {
	sc.via = sc.via[:0]
	sc.ents = sc.ents[:0]
	sc.snap.scratch.Put(sc)
}

// RelatedProducts walks head → intention → product two-hop paths over
// interned int IDs and returns up to k products sharing intentions with
// the head, best first (score descending, then product ID). Path
// weights accumulate in a fixed order (first hop in IntentionsFor
// order, back edges by product head, then relation), so scores are
// reproducible bit for bit; the CSR walk takes no locks and
// builds no maps. The only allocations are the sized result and
// per-candidate via slices; everything else runs on pooled scratch.
// Callers that can consume the result before the next lookup avoid even
// those with RelatedOf.
//
//cosmo:alloc-free
func (s *Snapshot) RelatedProducts(head string, k int) []Related {
	seq := RelatedOf(s, head, k)
	out := make([]Related, seq.Len())
	for i := range out {
		out[i] = seq.At(i)
		out[i].Via = slices.Clone(out[i].Via)
	}
	seq.Release()
	return out
}

// RelatedSeq is a zero-copy view over a pooled RelatedProducts result.
// At materializes entries against the snapshot's interned strings; the
// Via slice of a returned Related aliases the pooled arena, so the view
// (and everything read from it) is valid only until Release. The batch
// path encodes each item straight out of the view and then releases it,
// so a whole related lookup touches the heap zero times.
type RelatedSeq struct {
	sc *relatedScratch
}

// RelatedOf runs the RelatedProducts walk for a head and returns the
// pooled view. The caller must call Release. An unknown head or a k <= 0
// answers the zero view without walking.
//
//cosmo:alloc-free
func RelatedOf[K Key](s *Snapshot, head K, k int) RelatedSeq {
	h, ok := symOf(s, head)
	if !ok || k <= 0 {
		return RelatedSeq{}
	}
	return RelatedSeq{sc: s.relatedCollect(h, k)}
}

// RelatedSeqString is RelatedOf for a string head. Kept only for the
// bench/ harness.
func (s *Snapshot) RelatedSeqString(head string, k int) RelatedSeq { return RelatedOf(s, head, k) }

// Len returns the number of result entries.
func (rs RelatedSeq) Len() int {
	if rs.sc == nil {
		return 0
	}
	return len(rs.sc.ents)
}

// At materializes the i-th entry. The Via field aliases pooled memory
// owned by the view; it must not be retained past Release.
//
//cosmo:alloc-free
func (rs RelatedSeq) At(i int) Related {
	en := rs.sc.ents[i]
	s := rs.sc.snap
	return Related{
		ProductID: s.ids[en.cand],
		Label:     s.labels[en.cand],
		Score:     en.score,
		Via:       rs.sc.via[en.viaStart:en.viaEnd],
	}
}

// Release recycles the view's scratch. Safe on the zero view.
func (rs RelatedSeq) Release() {
	if rs.sc != nil {
		rs.sc.release()
	}
}

// Stats summarizes the graph (the COSMO row of paper Table 1).
type Stats struct {
	Nodes     int
	Edges     int
	Relations int
	Domains   int
	PerDomain map[catalog.Category]DomainStats
}

// DomainStats is one row of paper Table 3's edge counts.
type DomainStats struct {
	CoBuyEdges     int
	SearchBuyEdges int
}

// ComputeStats builds graph statistics from the frozen arrays: one pass
// over the edges counts each domain's edges by behavior.
func (s *Snapshot) ComputeStats() Stats {
	per := make([]DomainStats, len(s.doms))
	for i, d := range s.eDom {
		if int32(s.eBeh[i]) == s.searchBuyIx {
			per[d].SearchBuyEdges++
		} else {
			per[d].CoBuyEdges++
		}
	}
	st := Stats{
		Nodes:     len(s.ids),
		Edges:     len(s.eHead),
		Relations: len(s.rels),
		Domains:   len(s.doms),
		PerDomain: make(map[catalog.Category]DomainStats, len(s.doms)),
	}
	for i, d := range s.doms {
		st.PerDomain[d] = per[i]
	}
	runtime.KeepAlive(s) // aliased sections must outlive the last read (mmap-backed snapshots)
	return st
}

// BuildHierarchy organizes the snapshot's intention tails into a
// specialization forest: tail B is a child of tail A when A's content
// tokens are a strict subset of B's. Products attached to an intention
// become the leaf links; roots are sorted by descending edge support.
func (s *Snapshot) BuildHierarchy(minSupport int) []*HierarchyNode {
	byTail := map[string]*tailInfo{}
	for i := range s.eHead {
		t := s.eTail[i]
		tailID := s.ids[t]
		in := byTail[tailID]
		if in == nil {
			toks := map[string]bool{}
			for _, tok := range textproc.ContentStems(s.labels[t]) {
				toks[tok] = true
			}
			in = &tailInfo{id: tailID, label: s.labels[t], tokens: toks, products: map[string]bool{}}
			byTail[tailID] = in
		}
		in.count += int(s.eSup[i])
		if h := s.eHead[i]; s.isProduct(h) {
			in.products[s.labels[h]] = true
		}
	}
	runtime.KeepAlive(s) // aliased sections must outlive the last read (mmap-backed snapshots)
	return assembleHierarchy(byTail, minSupport)
}
