package kg

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cosmo/internal/catalog"
	"cosmo/internal/know"
	"cosmo/internal/relations"
)

// The benchmark world: a serving-shaped graph (hundreds of products and
// queries funneling into a shared intention vocabulary) built once and
// frozen once. Run `go test -bench='IntentionsFor|RelatedProducts|Freeze'
// -benchmem -cpu 1,4,8 ./internal/kg`; the snapshot reads take no lock,
// so ns/op should hold flat across the -cpu sweep.
var (
	benchOnce  sync.Once
	benchGraph *Graph
	benchSnap  *Snapshot
	benchHeads []string
)

func benchWorld(b *testing.B) (*Graph, *Snapshot, []string) {
	b.Helper()
	benchOnce.Do(func() {
		rng := rand.New(rand.NewSource(42))
		g := New()
		rels := []relations.Relation{
			relations.UsedForEve, relations.CapableOf, relations.UsedBy,
			relations.IsA, relations.UsedInLoc, relations.UsedWith,
		}
		domains := []catalog.Category{catalog.Sports, catalog.HomeKitchen, catalog.Electronics}
		tails := make([]string, 400)
		for i := range tails {
			tails[i] = fmt.Sprintf("intent activity %03d", i)
		}
		for i := 0; i < 24000; i++ {
			c := know.Candidate{
				ID:             i,
				Domain:         domains[rng.Intn(len(domains))],
				Relation:       rels[rng.Intn(len(rels))],
				Tail:           tails[rng.Intn(len(tails))],
				PlausibleScore: 0.5 + rng.Float64()/2,
				TypicalScore:   rng.Float64(),
			}
			if i%2 == 0 {
				c.Behavior = know.SearchBuy
				c.Query = fmt.Sprintf("query %03d", rng.Intn(500))
				c.ProductA = fmt.Sprintf("P%04d", rng.Intn(1500))
			} else {
				c.Behavior = know.CoBuy
				c.ProductA = fmt.Sprintf("P%04d", rng.Intn(1500))
				c.ProductB = fmt.Sprintf("P%04d", rng.Intn(1500))
			}
			if err := g.AddAssertion(c); err != nil {
				panic(err)
			}
		}
		benchGraph = g
		benchSnap = g.Freeze()
		for i := 0; i < 256; i++ {
			benchHeads = append(benchHeads, ProductID(fmt.Sprintf("P%04d", rng.Intn(1500))))
		}
	})
	return benchGraph, benchSnap, benchHeads
}

// BenchmarkSnapshotIntentionsFor is the frozen path: a pre-sorted CSR
// row view — no lock, no sort, no allocation.
func BenchmarkSnapshotIntentionsFor(b *testing.B) {
	_, s, heads := benchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			seq := s.IntentionsFor(heads[i%len(heads)])
			for j := 0; j < seq.Len(); j++ {
				allocSink += seq.At(j).TypicalScore
			}
			i++
		}
	})
}

// BenchmarkSnapshotRelatedProducts is the frozen two-hop CSR walk over
// interned int IDs with a pooled scratch accumulator.
func BenchmarkSnapshotRelatedProducts(b *testing.B) {
	_, s, heads := benchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			allocSink += float64(len(s.RelatedProducts(heads[i%len(heads)], 10)))
			i++
		}
	})
}

// BenchmarkSnapshotFreeze measures the once-per-refresh cost of
// building the immutable view (interning + CSR construction + sorts).
func BenchmarkSnapshotFreeze(b *testing.B) {
	g, _, _ := benchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := g.Freeze()
		allocSink += float64(s.NumEdges())
	}
}

// fanOutWorld is the shape that makes the related walk expensive: few
// intention tails shared by many products, as in ScaledKG, where every
// replica of a head points at the same tails. 900 products hold 10 of
// 30 tails each, so a head reaches about 3,000 (candidate, tail) via
// pairs over at most 899 candidates. fanOutViaPairs[i] is that count
// for fanOutHeads[i], and fanOutVisited[i] the back-edge entries its
// walk reads (each row up to and including the first query head), both
// read off the frozen arrays.
var (
	fanOutOnce     sync.Once
	fanOutSnap     *Snapshot
	fanOutHeads    []string
	fanOutViaPairs []int
	fanOutVisited  []int
)

func fanOutWorld(b *testing.B) (*Snapshot, []string, []int, []int) {
	b.Helper()
	fanOutOnce.Do(func() {
		rng := rand.New(rand.NewSource(43))
		g := New()
		const products, tails, perProduct = 900, 30, 10
		for p := 0; p < products; p++ {
			for _, t := range rng.Perm(tails)[:perProduct] {
				c := know.Candidate{
					ID: p, Behavior: know.SearchBuy, Domain: catalog.Sports,
					Query:    fmt.Sprintf("query %03d", rng.Intn(300)),
					ProductA: fmt.Sprintf("P%04d", p),
					Relation: relations.UsedForEve, Tail: fmt.Sprintf("intent activity %02d", t),
					PlausibleScore: 0.5 + rng.Float64()/2, TypicalScore: rng.Float64(),
				}
				if err := g.AddAssertion(c); err != nil {
					panic(err)
				}
			}
		}
		s := g.Freeze()
		fanOutSnap = s
		for i := 0; i < 256; i++ {
			head := ProductID(fmt.Sprintf("P%04d", rng.Intn(products)))
			h, _ := symOf(s, head)
			pairs, visited := 0, 0
			for _, ei := range s.byHead.row(h) {
				for _, bi := range s.byTail.row(s.eTail[ei]) {
					visited++
					bh := s.eHead[bi]
					if !s.isProduct(bh) {
						break
					}
					if bh != h {
						pairs++
					}
				}
			}
			fanOutHeads = append(fanOutHeads, head)
			fanOutViaPairs = append(fanOutViaPairs, pairs)
			fanOutVisited = append(fanOutVisited, visited)
		}
	})
	return fanOutSnap, fanOutHeads, fanOutViaPairs, fanOutVisited
}

// BenchmarkSnapshotRelatedFanOut runs the pooled related view on the
// high-fan-out world. k=1 and k=10 are serving-sized; k=1000 exceeds
// the candidate count, so every candidate is kept and sorted. pairs/op
// is the walk's size, so ns/op ÷ pairs/op is the cost per via pair;
// visited/op counts the back-edge entries the walk reads to find them.
func BenchmarkSnapshotRelatedFanOut(b *testing.B) {
	s, heads, viaPairs, visitedEntries := fanOutWorld(b)
	for _, k := range []int{1, 10, 1000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			pairs, visited, kept := 0, 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq := RelatedOf(s, heads[i%len(heads)], k)
				kept += seq.Len()
				seq.Release()
				pairs += viaPairs[i%len(heads)]
				visited += visitedEntries[i%len(heads)]
			}
			b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
			b.ReportMetric(float64(visited)/float64(b.N), "visited/op")
			b.ReportMetric(float64(kept)/float64(b.N), "kept/op")
		})
	}
}
