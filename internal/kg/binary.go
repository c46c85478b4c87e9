// Binary snapshot persistence: a versioned, checksummed flat encoding
// of the frozen Snapshot. It is the one artifact the offline pipeline
// hands to the online tier: cosmo-pipeline builds and freezes a graph
// once, and cosmo-serve and cosmo-kg load it with no re-interning, no
// re-sorting and no CSR rebuild, because the interned CSR arrays
// themselves are what is stored.
//
// Layout (all integers little-endian; DESIGN.md, "Binary snapshot
// artifact", is the normative spec):
//
//	magic    [8]byte  "COSMOSNP"
//	version  uint32   3
//	nsect    uint32   section count
//	table    nsect ×  { id uint32, reserved uint32 = 0,
//	                    offset uint64, length uint64, crc uint64 }
//	tablecrc uint64   CRC-64/ECMA of every preceding byte
//	body     the sections at their table offsets, each offset 8-byte
//	         aligned, zero padding between sections, no trailing pad
//
// Each section crc covers exactly its length payload bytes (never the
// padding, which readers require to be zero). The tablecrc seals the
// header and table — and, because the table contains every section's
// crc, it is a content fingerprint for the whole artifact (cosmo-serve
// uses it to skip reloading an unchanged file). The 8-byte alignment is
// what lets the decoder alias the numeric arrays in place.
//
// String-list sections are a uint32 count followed by count ×
// (uint32 length + raw bytes). Numeric sections are raw arrays (the
// element count is the section length over the element width). Node
// types and behavior types are interned through their own small string
// tables with one index byte per node/edge — the same u8-over-table
// layout the in-memory Snapshot uses, so neither writing nor loading
// re-interns anything.
//
// This file holds the format vocabulary, the writer, the structural
// validation and the heap loader (ReadSnapshot); the decoder both
// loaders share is decodeSnapshot in mapsnapshot.go.
package kg

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc64"
	"io"
	"math"
	"os"
	"runtime"
	"unsafe"
)

// snapshotMagic opens every binary snapshot file.
const snapshotMagic = "COSMOSNP"

// snapshotVersion is the one format version written and read. Any
// change to the layout — new sections, changed encodings, changed sort
// invariants — bumps it; the decoder rejects every other version.
const snapshotVersion = 3

// Sentinel errors for the three failure classes of snapshot decoding.
// Structural and checksum failures wrap ErrSnapshotCorrupt so callers
// can distinguish "not a snapshot" from "a damaged snapshot".
var (
	ErrSnapshotMagic   = errors.New("kg: not a snapshot file (bad magic)")
	ErrSnapshotVersion = errors.New("kg: unsupported snapshot version")
	ErrSnapshotCorrupt = errors.New("kg: snapshot corrupt")
)

// Section identifiers. Every section appears exactly once.
const (
	secNodeIDs    = 1  // string list, strictly ascending node IDs
	secNodeLabels = 2  // string list, one label per node
	secNodeTypes  = 3  // string list, interned NodeType table
	secNodeTypeIx = 4  // u8 per node, index into secNodeTypes
	secRels       = 5  // string list, strictly ascending relations
	secDoms       = 6  // string list, strictly ascending domains
	secBehs       = 7  // string list, interned BehaviorType table
	secEdgeHead   = 8  // i32 per edge, node symbol
	secEdgeTail   = 9  // i32 per edge, node symbol
	secEdgeRel    = 10 // i32 per edge, relation symbol
	secEdgeDom    = 11 // i32 per edge, domain symbol
	secEdgeBeh    = 12 // u8 per edge, index into secBehs
	secEdgeSup    = 13 // i32 per edge, support count
	secEdgePla    = 14 // f64 per edge, plausibility score
	secEdgeTyp    = 15 // f64 per edge, typicality score
	secHeadOff    = 16 // i32 × (nodes+1), byHead CSR offsets
	secHeadIdx    = 17 // i32 per edge, byHead CSR indexes
	secTailOff    = 18 // i32 × (nodes+1), byTail CSR offsets
	secTailIdx    = 19 // i32 per edge, byTail CSR indexes
)

// sectionOrder fixes the canonical write order; the reader accepts any
// table order but requires each id exactly once.
var sectionOrder = []uint32{
	secNodeIDs, secNodeLabels, secNodeTypes, secNodeTypeIx,
	secRels, secDoms, secBehs,
	secEdgeHead, secEdgeTail, secEdgeRel, secEdgeDom,
	secEdgeBeh, secEdgeSup, secEdgePla, secEdgeTyp,
	secHeadOff, secHeadIdx, secTailOff, secTailIdx,
}

// sectionNames label sections in SectionError messages.
var sectionNames = map[uint32]string{
	secNodeIDs: "node-ids", secNodeLabels: "node-labels",
	secNodeTypes: "node-type-table", secNodeTypeIx: "node-type-index",
	secRels: "relations", secDoms: "domains", secBehs: "behavior-table",
	secEdgeHead: "edge-heads", secEdgeTail: "edge-tails",
	secEdgeRel: "edge-relations", secEdgeDom: "edge-domains",
	secEdgeBeh: "edge-behaviors", secEdgeSup: "edge-supports",
	secEdgePla: "edge-plausibility", secEdgeTyp: "edge-typicality",
	secHeadOff: "byhead-offsets", secHeadIdx: "byhead-indexes",
	secTailOff: "bytail-offsets", secTailIdx: "bytail-indexes",
}

// SectionName returns the human-readable name of a section id (for
// error messages and tooling); unknown ids format as "section-N".
func SectionName(id uint32) string {
	if n, ok := sectionNames[id]; ok {
		return n
	}
	return fmt.Sprintf("section-%d", id)
}

// SectionError attributes a snapshot decode or validation failure to
// the file section it was detected in: the section id and the byte
// offset of that section's body in the file. It wraps
// ErrSnapshotCorrupt, so errors.Is(err, ErrSnapshotCorrupt) keeps
// working, and errors.As(&SectionError{}) recovers the attribution.
type SectionError struct {
	Section uint32 // section id (sec* constants)
	Offset  int64  // byte offset of the section body in the file
	Err     error  // the underlying decode/validation failure
}

func (e *SectionError) Error() string {
	return fmt.Sprintf("kg: snapshot corrupt: section %s (id %d) at offset %d: %v",
		SectionName(e.Section), e.Section, e.Offset, e.Err)
}

// Unwrap exposes both the corrupt sentinel and the underlying cause.
func (e *SectionError) Unwrap() []error { return []error{ErrSnapshotCorrupt, e.Err} }

// secErr wraps a failure with its section attribution; nil stays nil.
func secErr(sec uint32, off int64, err error) error {
	if err == nil {
		return nil
	}
	return &SectionError{Section: sec, Offset: off, Err: err}
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// align8 rounds up to the next 8-byte boundary (section alignment:
// every numeric array starts 8-aligned so float64 and int32 sections
// can be aliased in place by the mmap loader).
func align8(x uint64) uint64 { return (x + 7) &^ 7 }

// Fixed sizes: the 16-byte header (magic + version + nsect), one
// 32-byte table entry per section, and the 8-byte table checksum.
const (
	headerLen     = len(snapshotMagic) + 8
	tableEntryLen = 32
)

// bodyStart is the offset of the first section body.
func bodyStart() uint64 {
	return uint64(headerLen + len(sectionOrder)*tableEntryLen + 8)
}

// hasSnapshotMagic reports whether b (the first bytes of a file) opens
// a binary snapshot.
func hasSnapshotMagic(b []byte) bool {
	return len(b) >= len(snapshotMagic) && string(b[:len(snapshotMagic)]) == snapshotMagic
}

// crcWriter tees everything written through a CRC-64 so checksums
// cover the exact bytes on the wire.
type crcWriter struct {
	w   io.Writer
	crc hash.Hash64
	err error
}

func (cw *crcWriter) write(p []byte) {
	if cw.err != nil {
		return
	}
	if _, err := cw.w.Write(p); err != nil {
		cw.err = err
		return
	}
	cw.crc.Write(p) //cosmo:lint-ignore dropped-error hash.Hash Write never fails by contract
}

func (cw *crcWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	cw.write(b[:])
}

func (cw *crcWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	cw.write(b[:])
}

// u32n writes a non-negative int count as u32, failing the stream if
// the value cannot be represented instead of truncating silently. The
// freeze capacity guards keep real snapshots far inside the bound;
// this is the on-disk backstop.
func (cw *crcWriter) u32n(n int) {
	if n < 0 || uint64(n) > math.MaxUint32 {
		cw.err = fmt.Errorf("kg: snapshot: count %d does not fit in u32", n)
		return
	}
	cw.u32(uint32(n))
}

// chunk is the staging buffer for numeric array sections: elements are
// encoded into it and flushed in blocks so the writer never
// materializes a whole section in memory.
const chunkElems = 8192

func (cw *crcWriter) i32s(xs []int32) {
	var buf [chunkElems * 4]byte
	for len(xs) > 0 {
		n := min(len(xs), chunkElems)
		for i, v := range xs[:n] {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(v))
		}
		cw.write(buf[:n*4])
		xs = xs[n:]
	}
}

func (cw *crcWriter) f64s(xs []float64) {
	var buf [chunkElems * 8]byte
	for len(xs) > 0 {
		n := min(len(xs), chunkElems)
		for i, v := range xs[:n] {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		cw.write(buf[:n*8])
		xs = xs[n:]
	}
}

// writeStringList encodes a string-list section from any of the
// snapshot's string-typed tables.
func writeStringList[T ~string](cw *crcWriter, xs []T) {
	cw.u32n(len(xs))
	for _, s := range xs {
		cw.u32n(len(s))
		cw.write([]byte(s))
	}
}

// stringListLen is the encoded size of a string-list section.
func stringListLen[T ~string](xs []T) uint64 {
	n := uint64(4)
	for _, s := range xs {
		n += 4 + uint64(len(s))
	}
	return n
}

// sectionLengths computes every section's encoded length analytically,
// so the writers can emit the table before any body bytes exist.
func (s *Snapshot) sectionLengths() map[uint32]uint64 {
	nn, ne := uint64(len(s.ids)), uint64(len(s.eHead))
	return map[uint32]uint64{
		secNodeIDs:    stringListLen(s.ids),
		secNodeLabels: stringListLen(s.labels),
		secNodeTypes:  stringListLen(s.ntypeTable),
		secNodeTypeIx: nn,
		secRels:       stringListLen(s.rels),
		secDoms:       stringListLen(s.doms),
		secBehs:       stringListLen(s.behTable),
		secEdgeHead:   ne * 4,
		secEdgeTail:   ne * 4,
		secEdgeRel:    ne * 4,
		secEdgeDom:    ne * 4,
		secEdgeBeh:    ne,
		secEdgeSup:    ne * 4,
		secEdgePla:    ne * 8,
		secEdgeTyp:    ne * 8,
		secHeadOff:    uint64(len(s.byHead.off)) * 4,
		secHeadIdx:    ne * 4,
		secTailOff:    uint64(len(s.byTail.off)) * 4,
		secTailIdx:    ne * 4,
	}
}

// writeSectionBody encodes one section through cw. Shared by the
// checksum pass and the write pass, so the encoding cannot drift
// between them.
func (s *Snapshot) writeSectionBody(cw *crcWriter, id uint32) {
	switch id {
	case secNodeIDs:
		writeStringList(cw, s.ids)
	case secNodeLabels:
		writeStringList(cw, s.labels)
	case secNodeTypes:
		writeStringList(cw, s.ntypeTable)
	case secNodeTypeIx:
		cw.write(s.ntypes)
	case secRels:
		writeStringList(cw, s.rels)
	case secDoms:
		writeStringList(cw, s.doms)
	case secBehs:
		writeStringList(cw, s.behTable)
	case secEdgeHead:
		cw.i32s(s.eHead)
	case secEdgeTail:
		cw.i32s(s.eTail)
	case secEdgeRel:
		cw.i32s(s.eRel)
	case secEdgeDom:
		cw.i32s(s.eDom)
	case secEdgeBeh:
		cw.write(s.eBeh)
	case secEdgeSup:
		cw.i32s(s.eSup)
	case secEdgePla:
		cw.f64s(s.ePla)
	case secEdgeTyp:
		cw.f64s(s.eTyp)
	case secHeadOff:
		cw.i32s(s.byHead.off)
	case secHeadIdx:
		cw.i32s(s.byHead.idx)
	case secTailOff:
		cw.i32s(s.byTail.off)
	case secTailIdx:
		cw.i32s(s.byTail.idx)
	}
}

// WriteSnapshot encodes the snapshot in the binary format. The write is
// streaming: section lengths are computed analytically, pass one
// streams every section through a CRC-only writer to fill the table's
// per-section checksums, and pass two writes the real bytes — so no
// section is ever materialized in memory.
func (s *Snapshot) WriteSnapshot(w io.Writer) error {
	lengths := s.sectionLengths()

	offs := make(map[uint32]uint64, len(sectionOrder))
	pos := bodyStart()
	for _, id := range sectionOrder {
		offs[id] = pos
		pos = align8(pos + lengths[id])
	}

	crcs := make(map[uint32]uint64, len(sectionOrder))
	for _, id := range sectionOrder {
		cc := &crcWriter{w: io.Discard, crc: crc64.New(crcTable)}
		s.writeSectionBody(cc, id)
		if cc.err != nil {
			return fmt.Errorf("kg: write snapshot (checksum pass): %w", cc.err)
		}
		crcs[id] = cc.crc.Sum64()
	}

	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &crcWriter{w: bw, crc: crc64.New(crcTable)}
	cw.write([]byte(snapshotMagic))
	cw.u32(snapshotVersion)
	cw.u32n(len(sectionOrder))
	for _, id := range sectionOrder {
		cw.u32(id)
		cw.u32(0) // reserved
		cw.u64(offs[id])
		cw.u64(lengths[id])
		cw.u64(crcs[id])
	}
	tableCRC := cw.crc.Sum64() // header + table, before the seal itself
	cw.u64(tableCRC)

	var pad [8]byte
	at := bodyStart()
	for _, id := range sectionOrder {
		cw.write(pad[:offs[id]-at]) // zero padding up to the aligned offset
		s.writeSectionBody(cw, id)
		at = offs[id] + lengths[id]
	}
	if cw.err != nil {
		return fmt.Errorf("kg: write snapshot: %w", cw.err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("kg: flush snapshot: %w", err)
	}
	runtime.KeepAlive(s) // aliased sections must outlive the encode (mmap-backed snapshots)
	return nil
}

// corrupt wraps a structural or checksum failure with the
// ErrSnapshotCorrupt sentinel.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
}

// sect is one parsed table entry.
type sect struct {
	id               uint32
	off, length, crc uint64
}

// parseTable decodes and cross-checks the section table from its
// raw bytes (the decoder has already verified the tablecrc): every
// known id exactly once, offsets 8-aligned, bodies laid out ascending
// in table order with sub-8-byte gaps starting at bodyStart. Returns
// the entries in layout (== table) order.
func parseTable(tbl []byte) ([]sect, error) {
	known := map[uint32]bool{}
	for _, id := range sectionOrder {
		known[id] = true
	}
	seen := map[uint32]bool{}
	sects := make([]sect, len(sectionOrder))
	for i := range sects {
		e := tbl[i*tableEntryLen:]
		id := binary.LittleEndian.Uint32(e)
		if !known[id] {
			return nil, corrupt("unknown section id %d", id)
		}
		if seen[id] {
			return nil, corrupt("duplicate section id %d", id)
		}
		seen[id] = true
		if reserved := binary.LittleEndian.Uint32(e[4:]); reserved != 0 {
			return nil, corrupt("section id %d: nonzero reserved field %d", id, reserved)
		}
		sects[i] = sect{
			id:     id,
			off:    binary.LittleEndian.Uint64(e[8:]),
			length: binary.LittleEndian.Uint64(e[16:]),
			crc:    binary.LittleEndian.Uint64(e[24:]),
		}
	}
	pos := bodyStart()
	for _, t := range sects {
		if t.off%8 != 0 {
			return nil, corrupt("section %s: offset %d not 8-byte aligned", SectionName(t.id), t.off)
		}
		if t.off < pos || t.off-pos >= 8 {
			return nil, corrupt("section %s: offset %d outside the expected [%d,%d) padding window",
				SectionName(t.id), t.off, pos, pos+8)
		}
		if t.off > math.MaxInt64-t.length {
			return nil, corrupt("section %s: offset %d + length %d overflows", SectionName(t.id), t.off, t.length)
		}
		pos = t.off + t.length
	}
	return sects, nil
}

// validateCSR checks one CSR index: offsets are monotone, cover exactly
// [0, edges), every index is in range, appears exactly once across all
// rows, and lands in the row the edge array rowOf assigns it.
// Row-internal sort order is not re-derived here — it is covered by the
// checksum.
func validateCSR(name string, c csr, rows int, rowOf []int32, mark []bool) error {
	edges := len(rowOf)
	if len(c.off) != rows+1 {
		return fmt.Errorf("%s: %d offsets for %d rows", name, len(c.off), rows)
	}
	if len(c.idx) != edges {
		return fmt.Errorf("%s: %d indexes for %d edges", name, len(c.idx), edges)
	}
	if rows > 0 || edges > 0 {
		if c.off[0] != 0 {
			return fmt.Errorf("%s: first offset %d, want 0", name, c.off[0])
		}
		if int(c.off[rows]) != edges {
			return fmt.Errorf("%s: last offset %d, want %d", name, c.off[rows], edges)
		}
	}
	for r := 0; r < rows; r++ {
		if c.off[r] > c.off[r+1] {
			return fmt.Errorf("%s: offsets not monotone at row %d (%d > %d)", name, r, c.off[r], c.off[r+1])
		}
	}
	for i := range mark {
		mark[i] = false
	}
	for r := int32(0); r < int32(rows); r++ {
		for _, e := range c.idx[c.off[r]:c.off[r+1]] {
			if e < 0 || int(e) >= edges {
				return fmt.Errorf("%s: row %d: edge index %d out of range [0,%d)", name, r, e, edges)
			}
			if mark[e] {
				return fmt.Errorf("%s: edge %d indexed twice", name, e)
			}
			mark[e] = true
			if rowOf[e] != r {
				return fmt.Errorf("%s: edge %d filed under row %d, belongs to row %d", name, e, r, rowOf[e])
			}
		}
	}
	return nil
}

// ascending verifies a symbol table is strictly ascending — the
// invariant the snapshot's symbol-order-is-ID-order comparisons and the
// binary-search node lookup depend on.
func ascending(name string, xs []string) error {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] >= xs[i] {
			return fmt.Errorf("%s table not strictly ascending at %d (%q >= %q)", name, i, xs[i-1], xs[i])
		}
	}
	return nil
}

// validateStructure runs the full cross-section validation over an
// assembled snapshot: every symbol in range, supports non-negative,
// and both CSR indexes exact permutations filed under the right rows.
// It is decodeSnapshot's last step and the second half of
// Snapshot.Verify; errors are attributed to the section that owns the
// violated invariant, at its file offset (0 for a Freeze snapshot,
// which has no file).
func validateStructure(s *Snapshot) error {
	off := func(sec uint32) int64 {
		if s.image == nil {
			return 0
		}
		return int64(s.image.secs[sec].off)
	}
	nn, ne := len(s.ids), len(s.eHead)
	for i := 0; i < ne; i++ {
		if h := s.eHead[i]; h < 0 || int(h) >= nn {
			return secErr(secEdgeHead, off(secEdgeHead),
				fmt.Errorf("edge %d: head symbol %d out of range [0,%d)", i, h, nn))
		}
		if t := s.eTail[i]; t < 0 || int(t) >= nn {
			return secErr(secEdgeTail, off(secEdgeTail),
				fmt.Errorf("edge %d: tail symbol %d out of range [0,%d)", i, t, nn))
		}
		if r := s.eRel[i]; r < 0 || int(r) >= len(s.rels) {
			return secErr(secEdgeRel, off(secEdgeRel),
				fmt.Errorf("edge %d: relation symbol %d out of range [0,%d)", i, r, len(s.rels)))
		}
		if d := s.eDom[i]; d < 0 || int(d) >= len(s.doms) {
			return secErr(secEdgeDom, off(secEdgeDom),
				fmt.Errorf("edge %d: domain symbol %d out of range [0,%d)", i, d, len(s.doms)))
		}
		if b := s.eBeh[i]; int(b) >= len(s.behTable) {
			return secErr(secEdgeBeh, off(secEdgeBeh),
				fmt.Errorf("edge %d: behavior index %d out of range [0,%d)", i, b, len(s.behTable)))
		}
		if s.eSup[i] < 0 {
			return secErr(secEdgeSup, off(secEdgeSup),
				fmt.Errorf("edge %d: negative support %d", i, s.eSup[i]))
		}
	}
	for i, ix := range s.ntypes {
		if int(ix) >= len(s.ntypeTable) {
			return secErr(secNodeTypeIx, off(secNodeTypeIx),
				fmt.Errorf("node %d: type index %d out of range [0,%d)", i, ix, len(s.ntypeTable)))
		}
	}
	mark := make([]bool, ne)
	if err := validateCSR("byHead", s.byHead, nn, s.eHead, mark); err != nil {
		return secErr(secHeadIdx, off(secHeadIdx), err)
	}
	if err := validateCSR("byTail", s.byTail, nn, s.eTail, mark); err != nil {
		return secErr(secTailIdx, off(secTailIdx), err)
	}
	runtime.KeepAlive(s)
	return nil
}

// WriteSnapshotFile packs the snapshot to path, fsync-free but with
// every write and close error surfaced.
func WriteSnapshotFile(path string, s *Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("kg: write snapshot: %w", err)
	}
	if err := s.WriteSnapshot(f); err != nil {
		f.Close() //cosmo:lint-ignore dropped-error already on the error path; the write error is the root cause
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("kg: close snapshot %s: %w", path, err)
	}
	return nil
}

// alignedBytes allocates n zeroed bytes (rounded up to a multiple of 8)
// whose base is 8-byte aligned, the precondition for aliasing
// int32/float64 sections out of them. The buffer is backed by a
// []uint64 because the allocator documents no alignment for []byte.
func alignedBytes(n int) []byte {
	words := make([]uint64, n/8+1)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
}

// readAligned reads r to EOF into an 8-aligned buffer. The first
// allocation is sized from what r says it holds (a file's size, an
// in-memory reader's length); past that, or with no such hint, the
// buffer doubles, so memory stays proportional to the bytes actually
// delivered, whatever lengths those bytes claim.
func readAligned(r io.Reader) ([]byte, error) {
	hint := int64(0)
	switch r := r.(type) {
	case *os.File:
		if fi, err := r.Stat(); err == nil {
			hint = fi.Size()
		}
	case interface{ Len() int }: // bytes.Reader, bytes.Buffer, strings.Reader
		hint = int64(r.Len())
	}
	if hint != int64(int(hint)) {
		return nil, fmt.Errorf("size %d overflows int", hint)
	}
	// alignedBytes rounds up past the hint, so the Read that reports
	// EOF lands without growing.
	buf := alignedBytes(max(int(hint), 1<<12))
	n := 0
	for {
		if n == len(buf) {
			grown := alignedBytes(2 * len(buf))
			copy(grown, buf)
			buf = grown
		}
		m, err := r.Read(buf[n:])
		n += m
		if errors.Is(err, io.EOF) {
			return buf[:n:n], nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// ReadSnapshot loads a binary snapshot from a stream onto the heap: the
// bytes are read into one aligned buffer and decoded in place by the
// same verifying decoder MapSnapshot uses, so every section checksum
// and the structural validation pass before any query API can observe
// the data. A truncated, bit-flipped or adversarial input fails here
// with an error wrapping ErrSnapshotMagic, ErrSnapshotVersion or
// ErrSnapshotCorrupt, attributed to the damaged section where
// detectable.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	image, err := readAligned(r)
	if err != nil {
		return nil, fmt.Errorf("kg: read snapshot: %w", err)
	}
	return decodeSnapshot(image)
}

// ReadSnapshotFile loads and fully verifies a packed snapshot from path.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("kg: read snapshot: %w", err)
	}
	s, err := ReadSnapshot(f)
	f.Close() //cosmo:lint-ignore dropped-error close of a read-only file; the decode outcome is what matters
	if err != nil {
		return nil, fmt.Errorf("kg: read snapshot %s: %w", path, err)
	}
	return s, nil
}
