package kg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosmo/internal/catalog"
	"cosmo/internal/relations"
)

// writeFile packs s to a temp artifact file.
func writeFile(t *testing.T, s *Snapshot) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "kg.cosmo")
	if err := WriteSnapshotFile(path, s); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMapSnapshotEquivalence is the randomized mapped-vs-heap property
// test: every query API on a MapSnapshot-loaded snapshot must be
// DeepEqual to the heap-loaded (ReadSnapshot) and original (Freeze)
// snapshots — same ordering, bitwise-equal scores.
func TestMapSnapshotEquivalence(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9100 + trial)))
			want := randomGraph(t, rng, 40+rng.Intn(200)).Freeze()
			path := writeFile(t, want)
			mapped, err := MapSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()
			if err := mapped.Verify(); err != nil {
				t.Fatalf("Verify on a pristine mapped snapshot: %v", err)
			}
			assertSnapshotsEqual(t, want, mapped)

			heap, err := ReadSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			assertSnapshotsEqual(t, heap, mapped)
		})
	}
}

// TestMapSnapshotExportEquivalence pins that a mapped snapshot exports
// (JSONL, TSV, and a byte-identical re-pack) exactly like the heap
// one.
func TestMapSnapshotExportEquivalence(t *testing.T) {
	want := buildTestGraph(t).Freeze()
	path := writeFile(t, want)
	mapped, err := MapSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	var wj, mj bytes.Buffer
	if err := want.WriteJSONL(&wj); err != nil {
		t.Fatal(err)
	}
	if err := mapped.WriteJSONL(&mj); err != nil {
		t.Fatal(err)
	}
	if wj.String() != mj.String() {
		t.Fatal("JSONL export differs between heap and mapped snapshots")
	}
	var repacked bytes.Buffer
	if err := mapped.WriteSnapshot(&repacked); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, repacked.Bytes()) {
		t.Fatal("re-packing a mapped snapshot is not byte-identical")
	}
}

// TestMapSnapshotEmpty maps the degenerate empty snapshot.
func TestMapSnapshotEmpty(t *testing.T) {
	mapped, err := MapSnapshotFile(writeFile(t, New().Freeze()))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if mapped.NumNodes() != 0 || mapped.NumEdges() != 0 {
		t.Fatalf("empty mapped snapshot: %d nodes %d edges", mapped.NumNodes(), mapped.NumEdges())
	}
	if err := mapped.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRejectsRetiredVersions pins that the retired format
// versions are refused by both loaders with ErrSnapshotVersion and carry
// no table fingerprint, so a server reloading one keeps serving the
// snapshot it has.
func TestSnapshotRejectsRetiredVersions(t *testing.T) {
	v1 := filepath.Join(t.TempDir(), "v1.cosmo")
	if err := os.WriteFile(v1, v1Header(), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, path := range map[string]string{"v1": v1, "v2": v2Artifact} {
		t.Run(name, func(t *testing.T) {
			if _, err := MapSnapshotFile(path); !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("MapSnapshot = %v, want ErrSnapshotVersion", err)
			}
			if _, err := ReadSnapshotFile(path); !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("ReadSnapshot = %v, want ErrSnapshotVersion", err)
			}
			st, err := StampSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.TableCRC != 0 {
				t.Fatalf("stamp carries a fingerprint: %+v", st)
			}
		})
	}
}

// sectionRange looks up a section's [off, off+len) window in a packed
// byte image via its sealed table.
func sectionRange(t *testing.T, valid []byte, id uint32) (int, int) {
	t.Helper()
	sects, err := parseTable(valid[headerLen : headerLen+len(sectionOrder)*tableEntryLen])
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sects {
		if s.id == id {
			return int(s.off), int(s.off + s.length)
		}
	}
	t.Fatalf("section %d not in table", id)
	return 0, 0
}

// TestMapSnapshotEagerRejections covers the damage classes MapSnapshot
// must reject at construction time, never panicking — header and table
// flips, string-table flips, every truncation, trailing bytes and a
// forged string count.
func TestMapSnapshotEagerRejections(t *testing.T) {
	valid, err := os.ReadFile(writeFile(t, buildTestGraph(t).Freeze()))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tryMap := func(t *testing.T, b []byte) (*Snapshot, error) {
		t.Helper()
		p := filepath.Join(dir, "case.cosmo")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return MapSnapshotFile(p)
	}
	// Header, table and seal: all eagerly checksummed.
	for pos := len(snapshotMagic); pos < int(bodyStart()); pos++ {
		b := append([]byte(nil), valid...)
		b[pos] ^= 0x5A
		if s, err := tryMap(t, b); err == nil {
			s.Close()
			t.Fatalf("flip at header/table byte %d mapped successfully", pos)
		}
	}
	// String sections: a flip fails the decode, the sort-order check or
	// the section's checksum, and is reported naming the section.
	for _, id := range []uint32{secNodeIDs, secNodeLabels, secNodeTypes, secRels, secDoms, secBehs} {
		lo, hi := sectionRange(t, valid, id)
		for _, pos := range []int{lo, (lo + hi) / 2, hi - 1} {
			b := append([]byte(nil), valid...)
			b[pos] ^= 0x5A
			s, err := tryMap(t, b)
			var se *SectionError
			if !errors.As(err, &se) || se.Section != id {
				if err == nil {
					s.Close()
				}
				t.Fatalf("flip in %s (byte %d): err = %v, want *SectionError for it", SectionName(id), pos, err)
			}
		}
	}
	// Truncations: the table/size cross-check catches every cut.
	for cut := 0; cut < len(valid); cut += 7 {
		if s, err := tryMap(t, valid[:cut]); err == nil {
			s.Close()
			t.Fatalf("truncation to %d bytes mapped successfully", cut)
		}
	}
	// Trailing garbage.
	if s, err := tryMap(t, append(append([]byte(nil), valid...), 0xEE)); err == nil {
		s.Close()
		t.Fatal("trailing byte mapped successfully")
	}
	// Forged string count: the section's own table entry is intact, so
	// only the string decode can notice, and it must do so without
	// sizing an allocation by the count. Every entry costs at least its
	// 4-byte length prefix, which bounds the headers at len/4.
	lo, _ := sectionRange(t, valid, secNodeLabels)
	b := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(b[lo:], math.MaxUint32)
	var se *SectionError
	if _, err := tryMap(t, b); !errors.As(err, &se) || se.Section != secNodeLabels {
		t.Fatalf("forged string count: err = %v, want *SectionError for %s", err, SectionName(secNodeLabels))
	}
	body := make([]byte, 1<<20) // a forged count over 256Ki empty strings
	binary.LittleEndian.PutUint32(body, math.MaxUint32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = parseStringList(body)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged string count over a large body decoded")
	}
	const headerBytes = 16
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(len(body)/4*headerBytes*3/2); got > bound {
		t.Fatalf("forged string count allocated %d bytes for a %d-byte body, want at most %d", got, len(body), bound)
	}
}

// TestSnapshotRejectsMisorderedRows: an artifact whose CSR rows are out
// of their query order, written with fresh checksums so only the
// structural check can notice, fails both loaders with a *SectionError
// for that CSR's index section. Without the check a query head filed
// ahead of a product would end the related walk early, and a byHead row
// would be served in the wrong order.
func TestSnapshotRejectsMisorderedRows(t *testing.T) {
	camping := IntentionID(relations.UsedForEve, "camping")
	for _, c := range []struct {
		name     string
		sec      uint32
		byHead   bool
		row      string // the row's node
		from, to string // the other ends of the two entries swapped
	}{
		{"query ahead of product", secTailIdx, false, camping, ProductID("P2"), QueryID("camping")},
		{"two products", secTailIdx, false, camping, ProductID("P1"), ProductID("P2")},
		{"two intentions", secHeadIdx, true, ProductID("P1"), camping, IntentionID(relations.UsedForEve, "winter camping")},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := buildTestGraph(t).Freeze()
			index, end := s.byTail, s.eHead
			if c.byHead {
				index, end = s.byHead, s.eTail
			}
			sym, ok := symOf(s, c.row)
			if !ok {
				t.Fatalf("no node %q", c.row)
			}
			row := index.row(sym)
			at := func(id string) int {
				for i, e := range row {
					if s.ids[end[e]] == id {
						return i
					}
				}
				t.Fatalf("row of %q has no entry for %q", c.row, id)
				return -1
			}
			i, j := at(c.from), at(c.to)
			row[i], row[j] = row[j], row[i]
			path := writeFile(t, s)
			read, err := ReadSnapshotFile(path)
			var se *SectionError
			if !errors.As(err, &se) || se.Section != c.sec {
				t.Fatalf("ReadSnapshotFile: snapshot %v, err = %v; want *SectionError for %s", read != nil, err, SectionName(c.sec))
			}
			mapped, err := MapSnapshotFile(path)
			if !errors.As(err, &se) || se.Section != c.sec {
				if err == nil {
					mapped.Close()
				}
				t.Fatalf("MapSnapshotFile: err = %v; want *SectionError for %s", err, SectionName(c.sec))
			}
		})
	}
}

// TestMapSnapshotZeroAlloc extends the hot-path guarantee to mapped
// memory: IntentionsFor iteration and the pooled RelatedSeq walk stay
// allocation-free when every array they read aliases the mmap region.
func TestMapSnapshotZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; the alloc guard runs in the regular suite")
	}
	rng := rand.New(rand.NewSource(7))
	s, err := MapSnapshotFile(writeFile(t, randomGraph(t, rng, 300).Freeze()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var intHead, relHead string
	bestInt, bestRel := 0, 0
	for _, n := range s.Nodes() {
		if l := s.IntentionsFor(n.ID).Len(); l > bestInt {
			bestInt, intHead = l, n.ID
		}
		if l := len(s.RelatedProducts(n.ID, 1<<20)); l > bestRel {
			bestRel, relHead = l, n.ID
		}
	}
	if bestInt == 0 || bestRel == 0 {
		t.Fatal("no head with intentions and related products")
	}
	intBytes, relBytes := []byte(intHead), []byte(relHead)
	RelatedOf(s, relHead, 10).Release() // warm the pool
	for name, lookup := range map[string]func() (EdgeSeq, RelatedSeq){
		"string": func() (EdgeSeq, RelatedSeq) { return IntentionsOf(s, intHead), RelatedOf(s, relHead, 10) },
		"bytes":  func() (EdgeSeq, RelatedSeq) { return IntentionsOf(s, intBytes), RelatedOf(s, relBytes, 10) },
	} {
		if allocs := testing.AllocsPerRun(200, func() {
			seq, rel := lookup()
			for i := 0; i < seq.Len(); i++ {
				allocSink += seq.At(i).TypicalScore
			}
			for i := 0; i < rel.Len(); i++ {
				r := rel.At(i)
				allocSink += r.Score + float64(len(r.Via))
			}
			rel.Release()
		}); allocs != 0 {
			t.Fatalf("mapped lookups with a %s key allocate %v per run, want 0", name, allocs)
		}
	}
}

// TestMappingLifetime pins the Close semantics: Close releases the
// mapping exactly once and later Closes are no-ops.
func TestMappingLifetime(t *testing.T) {
	s, err := MapSnapshotFile(writeFile(t, buildTestGraph(t).Freeze()))
	if err != nil {
		t.Fatal(err)
	}
	m := s.mapping
	if m == nil {
		t.Fatal("mapped snapshot has no mapping")
	}
	if m.released.Load() || len(m.data) == 0 {
		t.Fatal("mapping not live after load")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !m.released.Load() {
		t.Fatal("mapping still live after Close")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMapSnapshotRetirementRace is the RCU story end to end: readers
// load the current snapshot from an atomic pointer and query it while
// a refresher keeps swapping in freshly mapped snapshots and dropping
// the retired ones, with the GC (and thus the munmap finalizer) forced
// in between. Readers must never observe unmapped memory — run with
// -race in CI to catch ordering bugs as well.
func TestMapSnapshotRetirementRace(t *testing.T) {
	rng := rand.New(rand.NewSource(9400))
	paths := make([]string, 3)
	ids := map[string]bool{}
	for i := range paths {
		g := randomGraph(t, rng, 80+40*i)
		s := g.Freeze()
		paths[i] = writeFile(t, s)
		for _, n := range s.Nodes() {
			ids[n.ID] = true
		}
	}
	first, err := MapSnapshotFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[Snapshot]
	cur.Store(first)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s := cur.Load()
				for id := range ids {
					seq := s.IntentionsFor(id)
					for i := 0; i < seq.Len(); i++ {
						_ = seq.At(i)
					}
					RelatedOf(s, id, 5).Release()
				}
				_ = s.ComputeStats()
			}
		}()
	}
	deadline := time.Now().Add(600 * time.Millisecond)
	for i := 1; time.Now().Before(deadline); i++ {
		next, err := MapSnapshotFile(paths[i%len(paths)])
		if err != nil {
			t.Error(err)
			break
		}
		cur.Store(next) // the retired snapshot is now unreachable from here
		runtime.GC()    // provoke the munmap finalizer under live readers
	}
	stop.Store(true)
	wg.Wait()
	cur.Load().Close()
}

// TestSnapshotStamp pins the reload-skip fingerprint: same artifact →
// equal stamps; rewritten-but-identical content → SameContent; changed
// content → different TableCRC. Retired versions carry no fingerprint
// (TestSnapshotRejectsRetiredVersions).
func TestSnapshotStamp(t *testing.T) {
	g := buildTestGraph(t)
	s := g.Freeze()
	path := filepath.Join(t.TempDir(), "kg.cosmo")
	if err := WriteSnapshotFile(path, s); err != nil {
		t.Fatal(err)
	}
	a, err := StampSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.TableCRC == 0 {
		t.Fatal("stamp has no table fingerprint")
	}
	b, err := StampSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatalf("stamps of an untouched file differ: %+v vs %+v", a, b)
	}

	// Byte-identical rewrite with a different mtime: content fingerprint
	// holds even though the stat identity moved.
	if err := WriteSnapshotFile(path, s); err != nil {
		t.Fatal(err)
	}
	later := a.ModTime.Add(3 * time.Second)
	if err := os.Chtimes(path, later, later); err != nil {
		t.Fatal(err)
	}
	c, err := StampSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Fatal("stamps equal across an mtime change")
	}
	if !a.SameContent(c) {
		t.Fatalf("identical content not recognized: %+v vs %+v", a, c)
	}

	// Different content: fingerprint must move.
	g2 := buildTestGraph(t)
	if err := g2.AddEdge(Edge{Head: "p:P1", Relation: relations.CapableOf, Tail: "i:used_for:camping",
		Domain: catalog.Sports, PlausibleScore: 0.5, TypicalScore: 0.5, Support: 1}); err == nil {
		if err := WriteSnapshotFile(path, g2.Freeze()); err != nil {
			t.Fatal(err)
		}
		d, err := StampSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if a.SameContent(d) {
			t.Fatal("different content shares a fingerprint")
		}
	}
}
