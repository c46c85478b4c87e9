package kg

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
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

// firstTouchError runs queryAll over a lazily validated snapshot and
// returns the error a first-touch checksum failure panicked with, nil
// if every query was served.
func firstTouchError(t *testing.T, s *Snapshot) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if err, ok = r.(error); !ok {
				t.Fatalf("panic value %v is not an error", r)
			}
		}
	}()
	queryAll(s)
	return nil
}

// TestSnapshotCorruption flips one byte at a time through the whole
// file, truncates it at every length and appends garbage, through both
// entry points. Every damaged input must be caught — the checksums
// guarantee a single flipped byte can never decode silently — and never
// by an unattributed panic: ReadSnapshot returns an error, MapSnapshot
// returns an error or panics out of the first query that touches the
// damage. Either way a flip inside a section body must be attributed to
// exactly that section (id and offset) via *SectionError.
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
	// load returns how each entry point rejected b: ReadSnapshot's
	// error, and MapSnapshot's eager error or first-touch panic.
	load := func(b []byte) (readErr, mapErr error) {
		_, readErr = ReadSnapshot(bytes.NewReader(b))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, mapErr := MapSnapshotFile(path)
		if mapErr == nil {
			mapErr = firstTouchError(t, s)
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
				t.Fatalf("%s: flip at byte %d decoded and served queries", entry, pos)
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

// TestSwapToHost runs the big-endian load step over a real image: every
// numeric section comes out element-swapped, everything else is left as
// written, all sections are marked verified (their checksums no longer
// describe the bytes), and a damaged section is reported before any
// byte moves.
func TestSwapToHost(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTestGraph(t).Freeze().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	decode := func(b []byte) *sectionChecks {
		image := alignedBytes(len(b))[:len(b)]
		copy(image, b)
		s, err := decodeSnapshot(image)
		if err != nil {
			t.Fatal(err)
		}
		return s.lazy
	}
	c := decode(orig)
	if err := c.swapToHost(); err != nil {
		t.Fatal(err)
	}
	if c.done.Load() != maskAll {
		t.Fatalf("done bitmap %b after swapToHost, want every section", c.done.Load())
	}
	want := append([]byte(nil), orig...)
	for _, id := range sectionOrder {
		lo, hi := sectionRange(t, orig, id)
		swapBytes(want[lo:hi], numericWidth(id))
	}
	if !bytes.Equal(c.data, want) {
		t.Fatal("image after swapToHost is not the per-section element swap of the original")
	}
	if bytes.Equal(c.data, orig) {
		t.Fatal("swapToHost changed nothing")
	}

	lo, hi := sectionRange(t, orig, secEdgeTyp)
	bad := append([]byte(nil), orig...)
	bad[(lo+hi)/2] ^= 0x5A
	c = decode(bad)
	var se *SectionError
	if err := c.swapToHost(); !errors.As(err, &se) || se.Section != secEdgeTyp {
		t.Fatalf("swapToHost over a damaged section = %v, want *SectionError for %s", err, SectionName(secEdgeTyp))
	}
	if !bytes.Equal(c.data, bad) {
		t.Fatal("swapToHost moved bytes of an image it rejected")
	}
}

// FuzzReadSnapshot asserts the decoder never panics on arbitrary input.
// decodeSnapshot must error or construct: its lazy contract allows a
// first-touch panic only on a section whose checksum lies, so queries
// are exercised exactly when Verify vouches for the whole image.
// ReadSnapshot, which verifies before returning, must error or yield a
// fully queryable snapshot. Wired into the CI fuzz smoke.
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
		if s, err := decodeSnapshot(image); err == nil && s.Verify() == nil {
			queryAll(s)
		}
		if s, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			queryAll(s)
		}
	})
}
