package kg

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cosmo/internal/catalog"
	"cosmo/internal/relations"
)

// assertSnapshotsEqual compares two snapshots across every query API —
// the round-trip property the binary format must preserve exactly,
// including tie-break ordering and bitwise score equality.
func assertSnapshotsEqual(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() || want.NumRelations() != got.NumRelations() {
		t.Fatalf("counts differ: want %d/%d/%d got %d/%d/%d",
			want.NumNodes(), want.NumEdges(), want.NumRelations(),
			got.NumNodes(), got.NumEdges(), got.NumRelations())
	}
	if !reflect.DeepEqual(want.Nodes(), got.Nodes()) {
		t.Fatal("Nodes() differ")
	}
	if !reflect.DeepEqual(want.Edges(), got.Edges()) {
		t.Fatal("Edges() differ")
	}
	if !reflect.DeepEqual(want.ComputeStats(), got.ComputeStats()) {
		t.Fatal("ComputeStats() differ")
	}
	for _, n := range want.Nodes() {
		gn, ok := got.Node(n.ID)
		if !ok || gn != n {
			t.Fatalf("Node(%q) = %+v, %v; want %+v", n.ID, gn, ok, n)
		}
		if !reflect.DeepEqual(rowEdges(want, want.byTail, n.ID), rowEdges(got, got.byTail, n.ID)) {
			t.Fatalf("byTail row of %q differs", n.ID)
		}
		if !reflect.DeepEqual(want.IntentionsFor(n.ID).Edges(), got.IntentionsFor(n.ID).Edges()) {
			t.Fatalf("IntentionsFor(%q) differ", n.ID)
		}
		for _, k := range []int{1, 3, 1 << 20} {
			if !reflect.DeepEqual(want.RelatedProducts(n.ID, k), got.RelatedProducts(n.ID, k)) {
				t.Fatalf("RelatedProducts(%q, %d) differ", n.ID, k)
			}
		}
	}
	for _, minSupport := range []int{1, 2, 4} {
		if !reflect.DeepEqual(want.BuildHierarchy(minSupport), got.BuildHierarchy(minSupport)) {
			t.Fatalf("BuildHierarchy(%d) differs", minSupport)
		}
	}
	if _, ok := got.Node("p:NOPE"); ok {
		t.Fatal("unknown node found after round trip")
	}
	if got.IntentionsFor("p:NOPE").Len() != 0 {
		t.Fatal("unknown head has intentions after round trip")
	}
}

// TestSnapshotBinaryRoundTrip is the randomized round-trip property
// test: Freeze → WriteSnapshot → ReadSnapshot must agree with the
// original snapshot on every query API, exactly.
func TestSnapshotBinaryRoundTrip(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(4000 + trial)))
			g := randomGraph(t, rng, 40+rng.Intn(260))
			want := g.Freeze()
			var buf bytes.Buffer
			if err := want.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			assertSnapshotsEqual(t, want, got)
		})
	}
}

// TestSnapshotBinaryRoundTripEmpty round-trips the degenerate empty
// snapshot.
func TestSnapshotBinaryRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New().Freeze().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 0 || got.NumEdges() != 0 {
		t.Fatalf("empty round trip: %d nodes %d edges", got.NumNodes(), got.NumEdges())
	}
}

// TestSnapshotFileRoundTrip exercises the path-based helpers.
func TestSnapshotFileRoundTrip(t *testing.T) {
	g := buildTestGraph(t)
	want := g.Freeze()
	path := filepath.Join(t.TempDir(), "kg.cosmo")
	if err := WriteSnapshotFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, want, got)
}

// TestSnapshotExportEquivalence pins the exporters to the graph they
// were frozen from — every JSONL row decodes to the matching g.Edges()
// edge with its nodes' labels, every TSV row is that edge's line — and
// checks that a loaded binary snapshot exports the same bytes again.
func TestSnapshotExportEquivalence(t *testing.T) {
	g := buildTestGraph(t)
	s := g.Freeze()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var sj, lj, st, lt bytes.Buffer
	for _, err := range []error{s.WriteJSONL(&sj), loaded.WriteJSONL(&lj), s.WriteTSV(&st), loaded.WriteTSV(&lt)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if sj.String() != lj.String() || st.String() != lt.String() {
		t.Fatal("export differs between snapshot and loaded snapshot")
	}

	edges := g.Edges()
	label := func(id string) string { n, _ := g.Node(id); return n.Label }
	rows := strings.Split(strings.TrimSuffix(sj.String(), "\n"), "\n")
	tsv := strings.Split(strings.TrimSuffix(st.String(), "\n"), "\n")
	if len(rows) != len(edges) || len(tsv) != len(edges)+1 {
		t.Fatalf("%d JSONL and %d TSV rows for %d edges", len(rows), len(tsv), len(edges))
	}
	for i, e := range edges {
		var got map[string]any
		if err := json.Unmarshal([]byte(rows[i]), &got); err != nil {
			t.Fatal(err)
		}
		want := map[string]any{
			"head": e.Head, "head_label": label(e.Head), "relation": string(e.Relation),
			"tail": e.Tail, "tail_label": label(e.Tail), "behavior": string(e.Behavior),
			"domain": string(e.Domain), "plausible": e.PlausibleScore, "typical": e.TypicalScore,
			"support": float64(e.Support),
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("JSONL row %d = %v, want %v", i, got, want)
		}
		wantTSV := fmt.Sprintf("%s\t%s\t%s\t%.4f\t%.4f\t%d",
			e.Head, e.Relation, label(e.Tail), e.PlausibleScore, e.TypicalScore, e.Support)
		if tsv[i+1] != wantTSV {
			t.Fatalf("TSV row %d = %q, want %q", i, tsv[i+1], wantTSV)
		}
	}
}

// TestReadSnapshotRejectsGarbage covers the non-snapshot failure class.
func TestReadSnapshotRejectsGarbage(t *testing.T) {
	for _, in := range [][]byte{nil, []byte("x"), []byte("not a snapshot at all, definitely")} {
		if _, err := ReadSnapshot(bytes.NewReader(in)); !errors.Is(err, ErrSnapshotMagic) {
			t.Fatalf("garbage %q: err = %v, want ErrSnapshotMagic", in, err)
		}
	}
}

// v1Header is a hand-written header of the retired format version 1:
// magic, version 1, the section count, and a plausible amount of body.
// No writer for it exists any more.
func v1Header() []byte {
	b := append([]byte(snapshotMagic), 1, 0, 0, 0, byte(len(sectionOrder)), 0, 0, 0)
	return append(b, make([]byte, 512)...)
}

// v2Artifact is buildTestGraph's artifact in the retired format
// version 2 (23 sections, with the relation and domain indexes), as the
// last v2 writer packed it.
const v2Artifact = "testdata/v2.cosmo"

// TestReadSnapshotRejectsFutureVersion pins the compatibility rule:
// unknown versions are refused, not guessed at.
func TestReadSnapshotRejectsFutureVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTestGraph(t).Freeze().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(snapshotMagic)] = 0xFF // version field low byte
	if _, err := ReadSnapshot(bytes.NewReader(b)); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("future version: err = %v, want ErrSnapshotVersion", err)
	}
}

// TestSnapshotFormatGolden pins the format version 3 artifact bytes:
// the size and table checksum (which seals every section's CRC, so it
// fingerprints the whole file) of buildTestGraph's artifact. A change
// here is a format change and needs a version bump.
func TestSnapshotFormatGolden(t *testing.T) {
	st, err := StampSnapshotFile(writeFile(t, buildTestGraph(t).Freeze()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 1804 || st.TableCRC != 0x0182da805d995541 {
		t.Fatalf("artifact is %d bytes with table CRC %#016x, want 1804 bytes and 0x0182da805d995541",
			st.Size, st.TableCRC)
	}
}

// queryAll drives every section group through the public query API:
// RelatedProducts reaches byTail, ComputeStats the edge sections.
func queryAll(s *Snapshot) {
	for _, n := range s.Nodes() {
		s.IntentionsFor(n.ID)
		s.RelatedProducts(n.ID, 3)
	}
	s.Edges()
	s.ComputeStats()
	s.BuildHierarchy(1)
}

// TestSnapshotCorruption flips one byte at a time through the whole
// file, truncates it at every length and appends garbage, through both
// entry points. Both loaders must return an error for every damaged
// input — the checksums guarantee a single flipped byte can never
// decode silently — and a flip inside a section body must be attributed
// to exactly that section (id and offset) via *SectionError.
func TestSnapshotCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTestGraph(t).Freeze().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	sects, err := parseTable(valid[headerLen : headerLen+len(sectionOrder)*tableEntryLen])
	if err != nil {
		t.Fatal(err)
	}
	sectionAt := func(pos int) (sect, bool) {
		for _, s := range sects {
			if uint64(pos) >= s.off && uint64(pos) < s.off+s.length {
				return s, true
			}
		}
		return sect{}, false
	}
	path := filepath.Join(t.TempDir(), "bad.cosmo")
	// load returns each entry point's error for b.
	load := func(b []byte) (readErr, mapErr error) {
		_, readErr = ReadSnapshot(bytes.NewReader(b))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, mapErr := MapSnapshotFile(path)
		if mapErr == nil {
			s.Close()
		}
		return readErr, mapErr
	}
	// Byte flips; skip the magic (flips there yield ErrSnapshotMagic,
	// covered above) but include version, table, seal, padding and
	// bodies.
	for pos := len(snapshotMagic); pos < len(valid); pos++ {
		b := append([]byte(nil), valid...)
		b[pos] ^= 0x5A
		readErr, mapErr := load(b)
		for entry, err := range map[string]error{"ReadSnapshot": readErr, "MapSnapshot": mapErr} {
			if err == nil {
				t.Fatalf("%s: flip at byte %d loaded", entry, pos)
			}
			want, inBody := sectionAt(pos)
			if !inBody {
				continue
			}
			var se *SectionError
			if !errors.As(err, &se) {
				t.Fatalf("%s: flip at byte %d (section %s): err = %v, want *SectionError",
					entry, pos, SectionName(want.id), err)
			}
			if se.Section != want.id || se.Offset != int64(want.off) {
				t.Fatalf("%s: flip at byte %d attributed to section %s @%d, want %s @%d",
					entry, pos, SectionName(se.Section), se.Offset, SectionName(want.id), want.off)
			}
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("%s: SectionError at byte %d does not wrap ErrSnapshotCorrupt: %v", entry, pos, err)
			}
		}
	}
	// Truncations and trailing garbage: the table/size cross-check
	// catches both before any body byte is read.
	cases := [][]byte{append(append([]byte(nil), valid...), 0xEE)}
	for cut := 0; cut < len(valid); cut += 7 {
		cases = append(cases, valid[:cut])
	}
	for _, b := range cases {
		readErr, mapErr := load(b)
		for entry, err := range map[string]error{"ReadSnapshot": readErr, "MapSnapshot": mapErr} {
			if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotMagic) {
				t.Fatalf("%s: %d of %d bytes: err = %v, want ErrSnapshotCorrupt or ErrSnapshotMagic",
					entry, len(b), len(valid), err)
			}
		}
	}
}

// TestSwapBytes pins the big-endian conversion helper on any host:
// swapping once turns a little-endian array into what a big-endian
// decode of the original reads, and swapping twice is the identity.
func TestSwapBytes(t *testing.T) {
	orig := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(orig)
	b := append([]byte(nil), orig...)
	swapBytes(b, 4)
	for i := 0; i < len(b); i += 4 {
		if got, want := binary.LittleEndian.Uint32(b[i:]), binary.BigEndian.Uint32(orig[i:]); got != want {
			t.Fatalf("width 4, element %d: %08x, want %08x", i/4, got, want)
		}
	}
	swapBytes(b, 4)
	if !bytes.Equal(b, orig) {
		t.Fatal("width 4: swapping twice is not the identity")
	}
	swapBytes(b, 8)
	for i := 0; i < len(b); i += 8 {
		if got, want := binary.LittleEndian.Uint64(b[i:]), binary.BigEndian.Uint64(orig[i:]); got != want {
			t.Fatalf("width 8, element %d: %016x, want %016x", i/8, got, want)
		}
	}
	swapBytes(b, 8)
	if !bytes.Equal(b, orig) {
		t.Fatal("width 8: swapping twice is not the identity")
	}
}

// TestSwapToHost runs the big-endian load step over a real image on
// any host: swapToHost element-swaps every numeric section and leaves
// everything else as written, and decodeSnapshot, decoding as a
// big-endian host does, reports a damaged section before any byte
// moves.
func TestSwapToHost(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTestGraph(t).Freeze().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	aligned := func(b []byte) []byte {
		image := alignedBytes(len(b))[:len(b)]
		copy(image, b)
		return image
	}
	s, err := decodeSnapshot(aligned(orig))
	if err != nil {
		t.Fatal(err)
	}
	s.image.swapToHost()
	want := append([]byte(nil), orig...)
	for _, id := range sectionOrder {
		lo, hi := sectionRange(t, orig, id)
		swapBytes(want[lo:hi], numericWidth(id))
	}
	if !bytes.Equal(s.image.data, want) {
		t.Fatal("image after swapToHost is not the per-section element swap of the original")
	}
	if bytes.Equal(s.image.data, orig) {
		t.Fatal("swapToHost changed nothing")
	}

	lo, hi := sectionRange(t, orig, secEdgeTyp)
	bad := aligned(orig)
	bad[(lo+hi)/2] ^= 0x5A
	damaged := append([]byte(nil), bad...)
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	hostLittleEndian = false
	var se *SectionError
	if _, err := decodeSnapshot(bad); !errors.As(err, &se) || se.Section != secEdgeTyp {
		t.Fatalf("big-endian decode of a damaged section = %v, want *SectionError for %s", err, SectionName(secEdgeTyp))
	}
	if !bytes.Equal(bad, damaged) {
		t.Fatal("big-endian decode moved bytes of an image it rejected")
	}
}

// FuzzReadSnapshot asserts the decoder never panics on arbitrary input
// and that whatever it accepts is fully queryable: decodeSnapshot and
// ReadSnapshot must each error or return a snapshot on which every
// query runs without panicking. Wired into the CI fuzz smoke.
func FuzzReadSnapshot(f *testing.F) {
	g := New()
	g.AddNode(Node{ID: "i:used_for:camping", Type: NodeIntention, Label: "camping"})
	g.AddNode(Node{ID: "p:P1", Type: NodeProduct, Label: "tent"})
	g.AddNode(Node{ID: "q:tent", Type: NodeQuery, Label: "tent"})
	for _, head := range []string{"p:P1", "q:tent"} {
		if err := g.AddEdge(Edge{Head: head, Relation: relations.UsedForEve, Tail: "i:used_for:camping",
			Domain: catalog.Sports, PlausibleScore: 0.9, TypicalScore: 0.8, Support: 2}); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := g.Freeze().WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	v2, err := os.ReadFile(v2Artifact)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(v1Header())
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})
	f.Add(v2)
	f.Fuzz(func(t *testing.T, data []byte) {
		image := alignedBytes(len(data))[:len(data)]
		copy(image, data)
		if s, err := decodeSnapshot(image); err == nil {
			queryAll(s)
		}
		if s, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			queryAll(s)
		}
	})
}

// sizedGraph has n nodes: n/2 products, each asserting one of n-n/2
// intentions.
func sizedGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := New()
	tails := n - n/2
	for i := 0; i < tails; i++ {
		g.AddNode(Node{ID: IntentionID(relations.UsedForEve, fmt.Sprintf("tail %d", i)), Type: NodeIntention, Label: fmt.Sprintf("tail %d", i)})
	}
	for i := 0; i < n/2; i++ {
		p := ProductID(fmt.Sprintf("P%06d", i))
		g.AddNode(Node{ID: p, Type: NodeProduct, Label: fmt.Sprintf("Product %d", i)})
		e := Edge{Head: p, Relation: relations.UsedForEve, Tail: IntentionID(relations.UsedForEve, fmt.Sprintf("tail %d", i%tails)),
			Domain: catalog.Sports, PlausibleScore: 0.9, TypicalScore: 0.8}
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	if g.NumNodes() != n {
		t.Fatalf("%d nodes, want %d", g.NumNodes(), n)
	}
	return g
}

// TestWriteSnapshotAllocBudget: the writer encodes every string and count
// through its own staging buffer, so packing a 10,000-node graph
// allocates exactly what packing a 100-node graph does.
func TestWriteSnapshotAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocation")
	}
	allocs := map[int]float64{}
	for _, n := range []int{100, 10000} {
		s := sizedGraph(t, n).Freeze()
		allocs[n] = testing.AllocsPerRun(5, func() {
			if err := s.WriteSnapshot(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[100] != allocs[10000] {
		t.Errorf("WriteSnapshot: %v allocs for 100 nodes, %v for 10,000", allocs[100], allocs[10000])
	}
}

// TestSnapshotRoundTripLongStrings: a string list entry longer than the
// writer's staging buffer goes through it in pieces and reads back whole.
func TestSnapshotRoundTripLongStrings(t *testing.T) {
	g := sizedGraph(t, 10)
	long := strings.Repeat("long label ", 20000) // 220,000 bytes
	g.AddNode(Node{ID: ProductID(strings.Repeat("P", 70000)), Type: NodeProduct, Label: long})
	g.AddNode(Node{ID: ProductID("P000000"), Type: NodeProduct, Label: long + "!"})
	want := g.Freeze()
	var buf bytes.Buffer
	if err := want.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, want, got)
}
