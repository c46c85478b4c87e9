// The snapshot decoder and its two loaders. decodeSnapshot builds a
// Snapshot over a file image by *aliasing* it — the int32/float64 edge
// struct-of-arrays, the two CSR indexes, and the two u8 intern-index
// arrays via unsafe.Slice, and every string's bytes via unsafe.String
// (the image is never written once decoded, so the string immutability
// contract holds). Heap-built state is only the string *headers* (the
// []string tables) and the intern tables — no maps; node-ID lookups
// binary-search the ascending ID table (see symOf). The loaders differ
// only in where the image comes from:
//
//   - MapSnapshot memory-maps the file. Start-up cost is one checksum
//     pass over the image plus the string headers — no byte copies —
//     and resident memory is whatever the page cache keeps hot. The
//     flip side of aliasing a mapping: strings obtained from a mapped
//     snapshot (node IDs, labels, Edge fields) must not outlive the
//     snapshot they came from; Close (or the finalizer) unmaps the
//     bytes under them.
//   - ReadSnapshot (binary.go) reads the stream into one aligned heap
//     buffer. The collector owns the buffer; there is no lifetime
//     caveat.
//
// Validation is one eager tier, all of it in decodeSnapshot, so any
// Snapshot either loader returns is fully verified:
//
//  1. Layout: header magic/version, the tablecrc seal over the section
//     table, the table's layout invariants (alignment, ordering, exact
//     file size) and zero inter-section padding.
//  2. The six string-table sections' bounds-checked decode and
//     sort-order validation, and every cross-section length rule the
//     sealed table implies, after which every aliased slice is
//     well-typed and in-bounds.
//  3. Every section's CRC-64 against the sealed table.
//  4. The full structural validation (validateStructure): every symbol
//     in range, both CSR indexes exact permutations filed under the
//     right rows, every row strictly in its query order (byHead by
//     intentionsOrder, byTail by backOrder, products first).
//
// Every failure is a returned error, attributed to its section where
// one owns it (*SectionError); decodeSnapshot never panics, whatever
// the input, and no query can reach a byte that failed a check. Verify
// re-runs steps 3 and 4 on demand.
//
// The file layout makes the aliasing legal: sections start at
// 8-byte-aligned offsets, the image base is 8-aligned (page-aligned for
// a mapping, []uint64-backed on the heap; decodeSnapshot checks), and
// all encodings are little-endian. On a big-endian host both loaders
// read onto the heap, and decodeSnapshot byte-swaps the numeric
// sections in place once their checksums pass (sealedImage.swapToHost).
package kg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"time"
	"unsafe"

	"cosmo/internal/catalog"
	"cosmo/internal/know"
	"cosmo/internal/relations"
)

// hostLittleEndian reports whether the host's byte order matches the
// on-disk encoding, the precondition for aliasing numeric sections.
var hostLittleEndian = func() bool {
	var x uint32 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// sealedImage is a decoded snapshot's file image and its sealed
// section table, indexed by section id: what Verify re-checks, and what
// validateStructure attributes errors to.
type sealedImage struct {
	data []byte
	secs [secTailIdx + 1]sect
}

// checksums verifies every section's CRC against the sealed table.
func (f *sealedImage) checksums() error {
	for _, id := range sectionOrder {
		t := f.secs[id]
		if got := crc64.Checksum(f.data[t.off:t.off+t.length], crcTable); got != t.crc {
			return &SectionError{Section: id, Offset: int64(t.off),
				Err: fmt.Errorf("checksum mismatch: table %016x, computed %016x", t.crc, got)}
		}
	}
	return nil
}

// MapSnapshotFile memory-maps a packed snapshot from path. See
// MapSnapshot for the semantics.
func MapSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("kg: map snapshot: %w", err)
	}
	s, err := MapSnapshot(f)
	f.Close() //cosmo:lint-ignore dropped-error close of a read-only fd; the mapping outlives it
	if err != nil {
		return nil, fmt.Errorf("kg: map snapshot %s: %w", path, err)
	}
	return s, nil
}

// MapSnapshot builds a Snapshot over a memory-mapped view of f,
// aliasing the sections in place once decodeSnapshot has verified every
// one of them (see the package comment), so a damaged file is an error
// here, never a wrong answer or a panic later. The file descriptor may
// be closed after MapSnapshot returns; the mapping keeps the data live.
// The returned snapshot holds the mapping until it becomes unreachable
// (or eagerly via Close); every query API works identically to a
// ReadSnapshot or Freeze snapshot.
//
// On builds without mmap support (non-Unix, or the cosmo_nommap tag)
// the "mapping" is a plain heap read of the file — same API, same
// validation, no zero-copy win.
func MapSnapshot(f *os.File) (*Snapshot, error) {
	if !hostLittleEndian {
		// The numeric sections must be byte-swapped in place, which a
		// read-only mapping cannot take.
		return ReadSnapshot(f)
	}
	data, unmap, err := mapFile(f)
	if err != nil {
		return nil, err
	}
	m := newMapping(data, unmap)
	s, err := decodeSnapshot(data)
	if err != nil {
		m.release() //cosmo:lint-ignore dropped-error the decode error is the root cause
		return nil, err
	}
	s.mapping = m
	return s, nil
}

// decodeSnapshot assembles the Snapshot over a file image, running all
// the validation described in the package comment before it returns.
// It is the only function that turns section bytes into a Snapshot. The
// image must not be written afterwards, and on a big-endian host it must
// be writable here (both loaders then pass a private heap buffer).
func decodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: short header (%d bytes)", ErrSnapshotMagic, len(data))
	}
	if !hasSnapshotMagic(data) {
		return nil, ErrSnapshotMagic
	}
	if uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		return nil, fmt.Errorf("kg: snapshot image at %p is not 8-byte aligned", &data[0])
	}
	version := binary.LittleEndian.Uint32(data[len(snapshotMagic):])
	if version != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads %d)",
			ErrSnapshotVersion, version, snapshotVersion)
	}
	nsect := binary.LittleEndian.Uint32(data[len(snapshotMagic)+4:])
	if int(nsect) != len(sectionOrder) {
		return nil, corrupt("section count %d, want %d", nsect, len(sectionOrder))
	}
	tblEnd := headerLen + len(sectionOrder)*tableEntryLen
	if len(data) < tblEnd+8 {
		return nil, corrupt("short section table (%d bytes)", len(data))
	}
	if got, want := binary.LittleEndian.Uint64(data[tblEnd:]),
		crc64.Checksum(data[:tblEnd], crcTable); got != want {
		return nil, corrupt("table checksum mismatch: file %016x, computed %016x", got, want)
	}
	sects, err := parseTable(data[headerLen:tblEnd])
	if err != nil {
		return nil, err
	}
	end := sects[len(sects)-1].off + sects[len(sects)-1].length
	if uint64(len(data)) != end {
		return nil, corrupt("file is %d bytes, table describes %d", len(data), end)
	}
	// Inter-section padding is not covered by any section CRC; require
	// it zero (a handful of sub-8-byte gaps — O(1) pages).
	pos := bodyStart()
	for _, t := range sects {
		for _, b := range data[pos:t.off] {
			if b != 0 {
				return nil, corrupt("nonzero padding before section %s", SectionName(t.id))
			}
		}
		pos = t.off + t.length
	}

	image := &sealedImage{data: data}
	for _, t := range sects {
		image.secs[t.id] = t
	}

	// The six string-table sections: decode (headers only — the bytes
	// stay in the image) and sort-order validation. The decode is
	// bounds-checked, so hostile bytes surface as errors here, never as
	// unsafety.
	sec := func(id uint32) []byte {
		t := image.secs[id]
		return data[t.off : t.off+t.length : t.off+t.length]
	}
	s := &Snapshot{}
	wrap := func(id uint32, err error) error { return secErr(id, int64(image.secs[id].off), err) }
	if s.ids, err = parseStringList(sec(secNodeIDs)); err != nil {
		return nil, wrap(secNodeIDs, err)
	}
	if s.labels, err = parseStringList(sec(secNodeLabels)); err != nil {
		return nil, wrap(secNodeLabels, err)
	}
	ntypeStrs, err := parseStringList(sec(secNodeTypes))
	if err != nil {
		return nil, wrap(secNodeTypes, err)
	}
	relStrs, err := parseStringList(sec(secRels))
	if err != nil {
		return nil, wrap(secRels, err)
	}
	domStrs, err := parseStringList(sec(secDoms))
	if err != nil {
		return nil, wrap(secDoms, err)
	}
	behStrs, err := parseStringList(sec(secBehs))
	if err != nil {
		return nil, wrap(secBehs, err)
	}
	if err := ascending("node ID", s.ids); err != nil {
		return nil, wrap(secNodeIDs, err)
	}
	if err := ascending("node type", ntypeStrs); err != nil {
		return nil, wrap(secNodeTypes, err)
	}
	if err := ascending("relation", relStrs); err != nil {
		return nil, wrap(secRels, err)
	}
	if err := ascending("domain", domStrs); err != nil {
		return nil, wrap(secDoms, err)
	}
	if err := ascending("behavior", behStrs); err != nil {
		return nil, wrap(secBehs, err)
	}

	// Cross-section length consistency, derived entirely from the
	// sealed table and the decoded string counts — no body pages are
	// touched. After this, every aliased slice has the element count
	// the rest of the Snapshot assumes.
	nn := len(s.ids)
	if nn > math.MaxInt32 || len(relStrs) > math.MaxInt32 || len(domStrs) > math.MaxInt32 {
		return nil, corrupt("%d nodes / %d relations / %d domains exceed the int32 symbol space",
			nn, len(relStrs), len(domStrs))
	}
	if len(s.labels) != nn {
		return nil, corrupt("%d labels for %d nodes", len(s.labels), nn)
	}
	if len(ntypeStrs) > 256 || len(behStrs) > 256 {
		return nil, corrupt("%d node types / %d behaviors exceed the u8 index space",
			len(ntypeStrs), len(behStrs))
	}
	lenOf := func(id uint32) uint64 { return image.secs[id].length }
	if lenOf(secNodeTypeIx) != uint64(nn) {
		return nil, corrupt("%d node-type indexes for %d nodes", lenOf(secNodeTypeIx), nn)
	}
	if lenOf(secEdgeHead)%4 != 0 {
		return nil, wrap(secEdgeHead, fmt.Errorf("length %d not a multiple of 4", lenOf(secEdgeHead)))
	}
	ne := lenOf(secEdgeHead) / 4
	if ne > math.MaxInt32 {
		return nil, corrupt("%d edges exceed the int32 symbol space", ne)
	}
	for _, c := range []struct {
		id   uint32
		want uint64
	}{
		{secEdgeTail, ne * 4}, {secEdgeRel, ne * 4}, {secEdgeDom, ne * 4},
		{secEdgeBeh, ne}, {secEdgeSup, ne * 4}, {secEdgePla, ne * 8}, {secEdgeTyp, ne * 8},
		{secHeadOff, uint64(nn+1) * 4}, {secHeadIdx, ne * 4},
		{secTailOff, uint64(nn+1) * 4}, {secTailIdx, ne * 4},
	} {
		if lenOf(c.id) != c.want {
			return nil, wrap(c.id, fmt.Errorf("length %d, want %d (%d nodes, %d edges)",
				lenOf(c.id), c.want, nn, ne))
		}
	}
	// Every checksum, before any numeric byte is read or, on a
	// big-endian host, moved: they seal the bytes as written.
	if err := image.checksums(); err != nil {
		return nil, err
	}
	if !hostLittleEndian {
		image.swapToHost()
	}

	// Intern tables: with the string headers above, the only heap-built
	// state besides bindDerived's.
	s.ntypeTable = make([]NodeType, len(ntypeStrs))
	for i, t := range ntypeStrs {
		s.ntypeTable[i] = NodeType(t)
	}
	s.behTable = make([]know.BehaviorType, len(behStrs))
	for i, b := range behStrs {
		s.behTable[i] = know.BehaviorType(b)
	}
	s.rels = make([]relations.Relation, len(relStrs))
	for i, r := range relStrs {
		s.rels[i] = relations.Relation(r)
	}
	s.doms = make([]catalog.Category, len(domStrs))
	for i, d := range domStrs {
		s.doms[i] = catalog.Category(d)
	}
	// Aliased sections: slice headers over the image.
	s.ntypes = sec(secNodeTypeIx)
	s.eBeh = sec(secEdgeBeh)
	i32 := func(id uint32) []int32 { return aliasI32(sec(id)) }
	s.eHead, s.eTail, s.eRel, s.eDom = i32(secEdgeHead), i32(secEdgeTail), i32(secEdgeRel), i32(secEdgeDom)
	s.eSup = i32(secEdgeSup)
	s.ePla, s.eTyp = aliasF64(sec(secEdgePla)), aliasF64(sec(secEdgeTyp))
	s.byHead = csr{off: i32(secHeadOff), idx: i32(secHeadIdx)}
	s.byTail = csr{off: i32(secTailOff), idx: i32(secTailIdx)}

	s.image = image
	s.bindDerived()
	if err := validateStructure(s); err != nil {
		return nil, err
	}
	return s, nil
}

// parseStringList decodes a string-table section without copying:
// every returned string aliases the section's bytes via unsafe.String.
// The backing image is never written once decoded (PROT_READ mapping,
// or a private heap buffer), so the strings behave as ordinary
// immutable Go strings — with the caveat that those of a mapped
// snapshot die with the mapping.
func parseStringList(b []byte) ([]string, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("string list shorter than its count")
	}
	count := binary.LittleEndian.Uint32(b)
	b = b[4:]
	// Every entry costs at least its 4-byte length prefix, which bounds
	// the headers a forged count can make this allocate.
	out := make([]string, 0, min(uint64(count), uint64(len(b)/4)))
	for i := uint32(0); i < count; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("string %d: missing length", i)
		}
		n := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint64(n) > uint64(len(b)) {
			return nil, fmt.Errorf("string %d: length %d exceeds remaining %d bytes", i, n, len(b))
		}
		if n == 0 {
			out = append(out, "")
		} else {
			out = append(out, unsafe.String(&b[0], int(n)))
		}
		b = b[n:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(b))
	}
	return out, nil
}

// numericWidth is the element width of a section's array encoding: 4
// for the int32 sections, 8 for float64, 1 for everything byte-wise
// (string lists, u8 indexes).
func numericWidth(id uint32) int {
	switch id {
	case secEdgePla, secEdgeTyp:
		return 8
	case secEdgeHead, secEdgeTail, secEdgeRel, secEdgeDom, secEdgeSup,
		secHeadOff, secHeadIdx, secTailOff, secTailIdx:
		return 4
	}
	return 1
}

// swapBytes reverses every width-byte element of b in place,
// converting an array between little- and big-endian.
func swapBytes(b []byte, width int) {
	for ; len(b) >= width; b = b[width:] {
		for i, j := 0, width-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
	}
}

// swapToHost converts the numeric sections of a little-endian image to
// host order in place, for aliasing on a big-endian host. The image must
// be a private writable buffer whose checksums already passed: they
// describe the bytes as written, not as swapped. String-list length
// prefixes are read with encoding/binary, not aliased, so those
// sections stay as written.
func (f *sealedImage) swapToHost() {
	for _, id := range sectionOrder {
		if w := numericWidth(id); w > 1 {
			t := f.secs[id]
			swapBytes(f.data[t.off:t.off+t.length], w)
		}
	}
}

// aliasI32 views an 8-aligned host-order byte section as []int32.
// Alignment and length-multiple preconditions are established by the
// eager table validation.
func aliasI32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// aliasF64 views an 8-aligned host-order byte section as []float64.
func aliasF64(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// Verify re-runs the decoder's checks over the snapshot: every section
// checksum against the sealed table and the full structural validation,
// returning section-attributed errors. Both loaders ran them before
// returning, so on a loaded snapshot it returns nil; a Freeze snapshot
// has no image and gets the structural half. On a big-endian host the
// image was byte-swapped after its checksums passed, so only the
// structure is re-checked there.
func (s *Snapshot) Verify() error {
	if s.image != nil && hostLittleEndian {
		if err := s.image.checksums(); err != nil {
			return err
		}
	}
	return validateStructure(s)
}

// SnapshotStamp identifies one on-disk revision of a packed snapshot:
// file mtime and size, plus the table checksum, which seals every
// section's CRC and is therefore a content fingerprint of the whole
// artifact. The refresh loop uses stamps to skip reloading
// an unchanged file (see cosmo-serve).
type SnapshotStamp struct {
	ModTime  time.Time
	Size     int64
	TableCRC uint64 // table seal; 0 when the header is not a readable snapshot
}

// Equal reports whether two stamps identify the same artifact
// revision. Zero-valued stamps never equal a real one.
func (a SnapshotStamp) Equal(b SnapshotStamp) bool {
	return a.Size == b.Size && a.TableCRC == b.TableCRC && a.ModTime.Equal(b.ModTime)
}

// SameContent reports whether two stamps carry the same content
// fingerprint, regardless of mtime — true when the file was rewritten
// byte-identically (e.g. an idempotent repack touched the mtime).
func (a SnapshotStamp) SameContent(b SnapshotStamp) bool {
	return a.TableCRC != 0 && a.Size == b.Size && a.TableCRC == b.TableCRC
}

// StampSnapshotFile stats path and, when it holds a snapshot, reads the
// table checksum from the header — a fixed-size pread, never the body.
func StampSnapshotFile(path string) (SnapshotStamp, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return SnapshotStamp{}, fmt.Errorf("kg: stamp snapshot: %w", err)
	}
	st := SnapshotStamp{ModTime: fi.ModTime(), Size: fi.Size()}
	f, err := os.Open(path)
	if err != nil {
		return SnapshotStamp{}, fmt.Errorf("kg: stamp snapshot: %w", err)
	}
	defer f.Close()
	head := make([]byte, headerLen)
	if _, err := io.ReadFull(f, head); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return st, nil // too short for a header; mtime+size still identify it
		}
		return SnapshotStamp{}, fmt.Errorf("kg: stamp snapshot: %w", err)
	}
	if !hasSnapshotMagic(head) ||
		binary.LittleEndian.Uint32(head[len(snapshotMagic):]) != snapshotVersion {
		return st, nil
	}
	nsect := binary.LittleEndian.Uint32(head[len(snapshotMagic)+4:])
	if int(nsect) != len(sectionOrder) {
		return st, nil
	}
	seal := make([]byte, 8)
	if _, err := f.ReadAt(seal, int64(headerLen+int(nsect)*tableEntryLen)); err != nil {
		return st, nil
	}
	st.TableCRC = binary.LittleEndian.Uint64(seal)
	return st, nil
}
