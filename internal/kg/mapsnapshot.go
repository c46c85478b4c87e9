// The snapshot decoder and its two loaders. decodeSnapshot builds a
// Snapshot over a file image by *aliasing* it — the int32/float64 edge
// struct-of-arrays, the two CSR indexes, and the two u8 intern-index
// arrays via unsafe.Slice, and every string's bytes via unsafe.String
// (the image is never written once decoded, so the string immutability
// contract holds). Heap-built state is only the string *headers* (the
// []string tables) and the intern tables — no maps; node-ID lookups
// binary-search the ascending ID table (see symOf). The loaders differ
// only in where the image comes from and when its sections are
// verified:
//
//   - MapSnapshot memory-maps the file. Start-up cost is O(string
//     headers) — no byte copies — resident memory is whatever the page
//     cache keeps hot, and each section is verified lazily on first
//     touch. The flip side of aliasing a mapping: strings obtained from
//     a mapped snapshot (node IDs, labels, Edge fields) must not
//     outlive the snapshot they came from; Close (or the finalizer)
//     unmaps the bytes under them.
//   - ReadSnapshot (binary.go) reads the stream into one aligned heap
//     buffer and calls Verify before returning, so every error is
//     eager. The collector owns the buffer; there is no lifetime
//     caveat.
//
// Validation is split in three:
//
//  1. Eager, in decodeSnapshot: header magic/version, the tablecrc seal
//     over the section table, the table's layout invariants (alignment,
//     ordering, exact file size), inter-section padding (must be
//     zero), the six string-table sections' bounds-checked decode and
//     sort-order validation, and every cross-section length
//     consistency rule that can be derived from the sealed table
//     alone. After this, the aliased slices are well-typed and
//     in-bounds; decodeSnapshot never panics, whatever the input.
//  2. Lazy, on first touch: each section's CRC-64 (numeric *and*
//     string content) is verified the first time a query path reads
//     it, tracked by an atomic bitmap (one bit per section, one atomic
//     load on the hot path once verified). A mismatch fails closed —
//     the query panics with a *SectionError rather than serving bytes
//     that differ from what the writer sealed. CRC equality is also the
//     structural proof for these sections: the writer only ever seals
//     in-range symbols and valid CSR permutations, so matching bytes
//     are valid bytes. Hostile files that forge self-consistent CRCs
//     over invalid values are bounded by Go's slice bounds checks (a
//     panic, never memory unsafety); whoever ingests an artifact it
//     did not write calls Verify first.
//  3. Eager on demand: Verify checksums every section and runs the
//     full structural validation, returning (not panicking)
//     section-attributed errors.
//
// The file layout makes the aliasing legal: sections start at
// 8-byte-aligned offsets, the image base is 8-aligned (page-aligned for
// a mapping, []uint64-backed on the heap; decodeSnapshot checks), and
// all encodings are little-endian. On a big-endian host both loaders
// read onto the heap and byte-swap the numeric sections in place before
// aliasing them (sectionChecks.swapToHost).
package kg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"sync/atomic"
	"time"
	"unsafe"

	"cosmo/internal/catalog"
	"cosmo/internal/know"
	"cosmo/internal/relations"
)

// secBit is the lazy-validation bitmap bit for a section id.
func secBit(id uint32) uint64 { return 1 << (id - 1) }

// Section groups touched by the query paths. String sections are
// decoded and order-validated eagerly (their *headers* are needed to
// assemble the snapshot at all) but their content checksums
// are lazy like everything else, so every group that can surface
// string bytes folds maskStrings in: the first query checksums the
// strings it is about to serve, and cold start checksums nothing.
var (
	maskStrings = secBit(secNodeIDs) | secBit(secNodeLabels) | secBit(secNodeTypes) |
		secBit(secRels) | secBit(secDoms) | secBit(secBehs)
	maskNodeTypes = secBit(secNodeTypeIx) | maskStrings
	maskEdges     = secBit(secEdgeHead) | secBit(secEdgeTail) | secBit(secEdgeRel) |
		secBit(secEdgeDom) | secBit(secEdgeBeh) | secBit(secEdgeSup) |
		secBit(secEdgePla) | secBit(secEdgeTyp) | maskStrings
	maskByHead = secBit(secHeadOff) | secBit(secHeadIdx) | maskStrings
	maskByTail = secBit(secTailOff) | secBit(secTailIdx) | maskStrings
	maskAll    = maskNodeTypes | maskEdges | maskByHead | maskByTail
)

// hostLittleEndian reports whether the host's byte order matches the
// on-disk encoding, the precondition for aliasing numeric sections.
var hostLittleEndian = func() bool {
	var x uint32 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// sectionChecks carries the lazy-validation state of a decoded
// snapshot: the raw file image, the sealed table entries (indexed by
// section id), and the atomic done bitmap. Shared by every reader of
// the snapshot; verification is idempotent, so a racing double-check
// is just redundant work, never wrong.
type sectionChecks struct {
	data []byte
	secs [secTailIdx + 1]sect
	done atomic.Uint64
}

// touch ensures every section in mask has passed its checksum,
// verifying lazily on first use. The steady-state cost is one atomic
// load; Freeze-built snapshots (lazy == nil) skip even that.
//
//cosmo:alloc-free
func (s *Snapshot) touch(mask uint64) {
	c := s.lazy
	if c == nil {
		return
	}
	if c.done.Load()&mask == mask {
		return
	}
	c.verifySlow(mask)
}

// verifySlow checksums the not-yet-verified sections in mask. A
// mismatch fails closed: the read that touched the corrupt section
// panics with a *SectionError instead of returning data the writer
// never sealed.
func (c *sectionChecks) verifySlow(mask uint64) {
	var fresh uint64
	done := c.done.Load()
	for id := uint32(1); id <= secTailIdx; id++ {
		bit := secBit(id)
		if mask&bit == 0 || done&bit != 0 {
			continue
		}
		if err := c.checkSection(id); err != nil {
			panic(err)
		}
		fresh |= bit
	}
	for fresh != 0 {
		old := c.done.Load()
		if c.done.CompareAndSwap(old, old|fresh) {
			return
		}
	}
}

// checkSection verifies one section's CRC against the sealed table.
func (c *sectionChecks) checkSection(id uint32) error {
	t := c.secs[id]
	got := crc64.Checksum(c.data[t.off:t.off+t.length], crcTable)
	if got != t.crc {
		return &SectionError{Section: id, Offset: int64(t.off),
			Err: fmt.Errorf("checksum mismatch: table %016x, computed %016x", t.crc, got)}
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
// aliasing the sections in place and deferring their checksum
// validation to first touch (see the package comment for the exact
// contract). The file descriptor may be closed after MapSnapshot
// returns; the mapping keeps the data live. The returned snapshot
// holds a reference on the mapping that is released when the snapshot
// becomes unreachable (or eagerly via Close); every query API works
// identically to a ReadSnapshot or Freeze snapshot.
//
// On builds without mmap support (non-Unix, or the cosmo_nommap tag)
// the "mapping" is a plain heap read of the file — same API, same lazy
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
// the eager validation described in the package comment. It is the only
// function that turns section bytes into a Snapshot. The image must not
// be written afterwards, and on a big-endian host it must be writable
// here (both loaders then pass a private heap buffer).
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
	// it zero eagerly (a handful of sub-8-byte gaps — O(1) pages).
	pos := bodyStart()
	for _, t := range sects {
		for _, b := range data[pos:t.off] {
			if b != 0 {
				return nil, corrupt("nonzero padding before section %s", SectionName(t.id))
			}
		}
		pos = t.off + t.length
	}

	checks := &sectionChecks{data: data}
	for _, t := range sects {
		checks.secs[t.id] = t
	}

	// Eager pass over the six string-table sections: decode (headers
	// only — the bytes stay in the image) and sort-order validation.
	// Checksums stay lazy; the decode is bounds-checked, so hostile
	// bytes surface as errors here, never as unsafety.
	sec := func(id uint32) []byte {
		t := checks.secs[id]
		return data[t.off : t.off+t.length : t.off+t.length]
	}
	s := &Snapshot{}
	wrap := func(id uint32, err error) error { return secErr(id, int64(checks.secs[id].off), err) }
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
	lenOf := func(id uint32) uint64 { return checks.secs[id].length }
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
	if !hostLittleEndian {
		if err := checks.swapToHost(); err != nil {
			return nil, err
		}
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

	s.lazy = checks
	s.bindDerived()
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

// swapToHost prepares a little-endian image for aliasing on a
// big-endian host: it verifies every section checksum while the bytes
// are still the ones the writer sealed, converts the numeric sections
// to host order in place, and marks every section verified (the
// checksums no longer describe the swapped bytes). The image must be a
// private writable buffer. String-list length prefixes are read with
// encoding/binary, not aliased, so those sections stay as written.
func (c *sectionChecks) swapToHost() error {
	for _, id := range sectionOrder {
		if err := c.checkSection(id); err != nil {
			return err
		}
	}
	for _, id := range sectionOrder {
		if w := numericWidth(id); w > 1 {
			t := c.secs[id]
			swapBytes(c.data[t.off:t.off+t.length], w)
		}
	}
	c.done.Store(maskAll)
	return nil
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

// Verify eagerly validates the whole snapshot: every section checksum
// not yet verified (marking them verified, so later touches are free)
// and the full structural validation. Unlike the lazy first-touch path,
// Verify returns errors instead of panicking. ReadSnapshot calls it
// before returning; callers of MapSnapshot that did not write the
// artifact themselves call it before serving queries.
func (s *Snapshot) Verify() error {
	if c := s.lazy; c != nil {
		for _, id := range sectionOrder {
			if c.done.Load()&secBit(id) != 0 {
				continue
			}
			if err := c.checkSection(id); err != nil {
				return err
			}
		}
		c.done.Store(maskAll)
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
