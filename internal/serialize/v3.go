// The index file layout (format version 3, the only one): an mmap-friendly
// section table.
//
// Metadata and array payloads are kept apart: a small stream-encoded
// manifest carries the metadata and refers to the bulk arrays by section
// number, and every array section is stored as its exact little-endian
// memory image at an 8-byte-aligned offset — so a loader can mmap the file
// and alias []int32/[]int64/[]float64 slices straight over the region with
// zero deserialization. Mutable per-process state (truncation pointers,
// seeds, gain caches, the update log) is never mapped: it lives in the
// manifest or is rebuilt on load.
//
// Layout (all integers little-endian):
//
//	off  0: magic "OVMIDX"
//	off  6: u32 version (3)
//	off 10: u16 zero pad
//	off 12: u32 section count S
//	off 16: u32 CRC-32 (IEEE) of the section table bytes
//	off 20: u32 zero pad
//	off 24: section table, S × 24-byte entries
//	        {u64 offset, u64 length, u32 kind, u32 CRC-32 of the payload}
//	then:   section payloads, each at an 8-byte-aligned offset, ascending,
//	        zero padding between
//
// Section kinds: 1 = manifest (exactly one, section 0), 2 = i32 array,
// 3 = f64 array, 4 = raw bytes, 5 = i64 array. The manifest references
// data sections by table index (0 = absent — unambiguous because 0 is the
// manifest itself). The table is validated before any payload is touched:
// aligned, in-bounds, non-overlapping, known kinds, element-size multiple
// — so a reader over a mapped region never faults, and every payload CRC
// is verified eagerly before parsing.
//
// Node → walk postings indexes are persisted next to their walk sets in the
// compact delta+varint block form of internal/postings (manifest mode byte
// 2; 0 = no index stored). Loaders adopt them after an exact-equality merge
// check against the walk storage instead of rebuilding. Mode 1 (raw CSR
// arrays) was never written by ovmd and is refused.
//
// The manifest's RR-set artifact list is always empty in a file written
// now. An older file may hold RR-set collections: the reader verifies their
// sections' checksums with every other section's and skips their manifest
// entries, so the file loads, and its next checkpoint holds none.
package serialize

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"ovm/internal/binio"
	"ovm/internal/graph"
	"ovm/internal/mmapio"
	"ovm/internal/opinion"
	"ovm/internal/postings"
	"ovm/internal/walks"
)

const (
	v3HeaderSize  = 24
	v3EntrySize   = 24
	v3MaxSections = 1 << 20

	v3KindManifest = 1
	v3KindI32      = 2
	v3KindF64      = 3
	v3KindBytes    = 4
	v3KindI64      = 5

	v3PostingsNone    = 0
	v3PostingsCompact = 2
)

// V3Options is empty; it and the "V3" in WriteIndexV3 survive only because
// the frozen benchmark/target.go passes them. The benchmark re-base removes both.
type V3Options struct{}

func v3align(off int64) int64 { return (off + 7) &^ 7 }

// v3elemSize returns the element width a section kind's length must be a
// multiple of.
func v3elemSize(kind uint32) int64 {
	switch kind {
	case v3KindI32:
		return 4
	case v3KindF64, v3KindI64:
		return 8
	default:
		return 1
	}
}

// --- writer ---

// v3section is one payload of the file: its kind, length and CRC — the
// table entry, which precedes every payload — and emit, which hands the
// payload out in order, in chunks. A section streamed from live storage is
// emitted twice, once to measure it and once to write it, and never laid
// out whole.
type v3section struct {
	kind   uint32
	size   int64
	crc    uint32
	chunks int
	emit   func(fn func([]byte) error) error
}

type v3writer struct {
	sections []v3section
}

// addStream adds a section emit hands out, measuring it with one pass.
func (w *v3writer) addStream(kind uint32, emit func(fn func([]byte) error) error) uint32 {
	s := v3section{kind: kind, emit: emit}
	_ = emit(func(b []byte) error {
		s.size += int64(len(b))
		s.crc = crc32.Update(s.crc, crc32.IEEETable, b)
		s.chunks++
		return nil
	})
	w.sections = append(w.sections, s)
	return uint32(len(w.sections) - 1)
}

func (w *v3writer) add(kind uint32, payload []byte) uint32 {
	return w.addStream(kind, func(fn func([]byte) error) error { return fn(payload) })
}

func (w *v3writer) addI32(xs []int32) uint32   { return w.add(v3KindI32, binio.I32sBytes(xs)) }
func (w *v3writer) addI64(xs []int64) uint32   { return w.add(v3KindI64, binio.I64sBytes(xs)) }
func (w *v3writer) addF64(xs []float64) uint32 { return w.add(v3KindF64, binio.F64sBytes(xs)) }

// addI32Stream adds an i32 section each emits in chunks.
func (w *v3writer) addI32Stream(each func(fn func([]int32) error) error) uint32 {
	return w.addStream(v3KindI32, func(fn func([]byte) error) error {
		return each(func(xs []int32) error { return fn(binio.I32sBytes(xs)) })
	})
}

// writePostingsRef emits a postings reference into the manifest: the
// compact blocked form, whose payload is data (Data itself, or the chunks
// an Encoder left), or "no index stored" for nil.
func (w *v3writer) writePostingsRef(m *bytes.Buffer, compact *postings.Compact, data [][]byte) {
	if compact == nil {
		m.WriteByte(v3PostingsNone)
		return
	}
	m.WriteByte(v3PostingsCompact)
	mustU32(m, uint32(compact.BlockSize))
	hasPos := byte(0)
	if compact.HasPos {
		hasPos = 1
	}
	m.WriteByte(hasPos)
	mustU32(m, w.addI32(compact.Off), w.addI32(compact.FirstBlock), w.addI64(compact.BlockOff),
		w.addStream(v3KindBytes, func(fn func([]byte) error) error {
			for _, b := range data {
				if err := fn(b); err != nil {
					return err
				}
			}
			return nil
		}))
}

// mustU32 writes little-endian u32s to a bytes.Buffer (which cannot fail).
func mustU32(m *bytes.Buffer, vs ...uint32) {
	for _, v := range vs {
		_ = binio.WriteU32(m, v)
	}
}

// walkIndexCompact returns the form a walks index snapshot is stored in,
// with its payload: a compact one as is, an in-memory raw one encoded, nil
// for none.
func walkIndexCompact(is *walks.IndexSnapshot) (*postings.Compact, [][]byte) {
	switch {
	case is == nil:
		return nil, nil
	case is.Compact != nil:
		return is.Compact, [][]byte{is.Compact.Data}
	}
	return postings.Encode(postings.CSR{Off: is.Off, Item: is.Walk, Pos: is.Pos}, postings.DefaultBlockSize)
}

// writeWalkSetRef emits a walk artifact's manifest entry, adding its arrays
// and postings index as sections: streamed from a live set's base and
// overlay in walk-id order, or a snapshot's arrays as they are. Both write
// the same bytes for the same walks.
func (w *v3writer) writeWalkSetRef(m *bytes.Buffer, live *walks.Set, s *walks.Snapshot, idx *walks.IndexSnapshot) {
	if live != nil {
		owners, ownerOff := live.Owners()
		mustU32(m, uint32(live.Horizon()))
		mustU32(m, w.addI32Stream(live.EachNodes), w.addI32Stream(live.EachOff), w.addI32(owners), w.addI32(ownerOff))
		c, data := live.CompactPostings()
		w.writePostingsRef(m, c, data)
		return
	}
	mustU32(m, uint32(s.Horizon))
	mustU32(m, w.addI32(s.Nodes), w.addI32(s.Off), w.addI32(s.OwnerNodes), w.addI32(s.OwnerOff))
	c, data := walkIndexCompact(idx)
	w.writePostingsRef(m, c, data)
}

// v3WriteBuffer coalesces the small blocks a streamed section emits (an
// overlay owner's walks, a chunk of offsets); larger ones pass straight
// through.
const v3WriteBuffer = 64 << 10

// WriteIndexV3 serializes idx in the section-table layout; it is the only
// index writer. Arrays are written as their exact little-endian memory
// images (zero-copy on little-endian hosts), so WriteIndexV3 + OpenMapped
// round-trips every artifact bit-identically. A live walk set (the Live
// field) is streamed from its base and overlay, its postings encoded as it
// goes: writing it allocates its compact postings and no copy of its walks.
// Postings indexes attached to artifacts are persisted in compact form; nil
// indexes are simply absent and loaders rebuild them.
func WriteIndexV3(w io.Writer, idx *Index, _ V3Options) error {
	if err := idx.Validate(); err != nil {
		return err
	}
	if err := checkSystemFinite(idx.Sys); err != nil {
		return err
	}
	vw := &v3writer{sections: make([]v3section, 1)} // [0] reserved for the manifest
	var m bytes.Buffer

	// Graph.
	a := idx.Sys.Candidate(0).G.Arrays()
	mustU32(&m, uint32(a.N))
	cs := byte(0)
	if a.ColumnStochastic {
		cs = 1
	}
	m.WriteByte(cs)
	mustU32(&m, vw.addI32(a.InStart), vw.addI32(a.InSrc), vw.addF64(a.InW))
	mustU32(&m, vw.addI32(a.OutStart), vw.addI32(a.OutDst), vw.addF64(a.OutW))

	// Candidates.
	mustU32(&m, uint32(idx.Sys.R()))
	for q := 0; q < idx.Sys.R(); q++ {
		c := idx.Sys.Candidate(q)
		name := []byte(c.Name)
		if len(name) > maxNameLen {
			return fmt.Errorf("serialize: candidate %d name too long (%d bytes)", q, len(name))
		}
		mustU32(&m, uint32(len(name)))
		m.Write(name)
		mustU32(&m, vw.addF64(c.Init), vw.addF64(c.Stub))
	}

	// Artifacts.
	mustU32(&m, uint32(len(idx.Sketches)))
	for _, art := range idx.Sketches {
		_ = binio.WriteI64(&m, art.Seed)
		mustU32(&m, uint32(art.Target), uint32(art.Horizon), uint32(art.Theta))
		vw.writeWalkSetRef(&m, art.Live, art.Set, art.Index)
	}
	mustU32(&m, uint32(len(idx.Walks)))
	for _, art := range idx.Walks {
		_ = binio.WriteI64(&m, art.Seed)
		mustU32(&m, uint32(art.Target), uint32(art.Horizon), uint32(art.Lambda))
		vw.writeWalkSetRef(&m, art.Live, art.Set, art.Index)
	}
	mustU32(&m, 0) // RR-set artifacts: none

	// Mutable state: base epoch + update log stay in the manifest.
	_ = binio.WriteU64(&m, uint64(idx.BaseEpoch))
	if err := writeUpdateLog(&m, idx.Updates); err != nil {
		return err
	}
	manifest := m.Bytes()
	vw.sections[0] = v3section{kind: v3KindManifest, size: int64(len(manifest)), crc: crc32.ChecksumIEEE(manifest), chunks: 1,
		emit: func(fn func([]byte) error) error { return fn(manifest) }}

	// Layout: header, table, then payloads at ascending 8-aligned offsets.
	numSections := len(vw.sections)
	if numSections > v3MaxSections {
		return fmt.Errorf("serialize: %d sections exceed format limit %d", numSections, v3MaxSections)
	}
	table := make([]byte, numSections*v3EntrySize)
	cur := v3align(int64(v3HeaderSize + numSections*v3EntrySize))
	for i, s := range vw.sections {
		e := table[i*v3EntrySize:]
		binary.LittleEndian.PutUint64(e[0:], uint64(cur))
		binary.LittleEndian.PutUint64(e[8:], uint64(s.size))
		binary.LittleEndian.PutUint32(e[16:], s.kind)
		binary.LittleEndian.PutUint32(e[20:], s.crc)
		cur = v3align(cur + s.size)
	}

	var header [v3HeaderSize]byte
	copy(header[:], indexMagic)
	binary.LittleEndian.PutUint32(header[6:], IndexFormatVersion)
	binary.LittleEndian.PutUint32(header[12:], uint32(numSections))
	binary.LittleEndian.PutUint32(header[16:], crc32.ChecksumIEEE(table))
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	if _, err := w.Write(table); err != nil {
		return err
	}
	// A pad and a one-chunk payload are one write each; the chunks of a
	// streamed section are coalesced, and flushed before the next section.
	bw := bufio.NewWriterSize(w, v3WriteBuffer)
	var pad [8]byte
	written := int64(v3HeaderSize + len(table))
	for _, s := range vw.sections {
		if aligned := v3align(written); aligned > written {
			if _, err := w.Write(pad[:aligned-written]); err != nil {
				return err
			}
			written = aligned
		}
		out := w
		if s.chunks > 1 {
			out = bw
		}
		var size int64
		if err := s.emit(func(b []byte) error {
			size += int64(len(b))
			_, err := out.Write(b)
			return err
		}); err != nil {
			return err
		}
		if size != s.size {
			return fmt.Errorf("serialize: section emitted %d bytes, measured %d", size, s.size)
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		written += size
	}
	return nil
}

// --- reader ---

type v3entry struct {
	off, length int64
	kind        uint32
	crc         uint32
}

// v3parser resolves manifest section references over the validated file
// image, tracking how many payload bytes were aliased in place (versus
// decoded to heap) for the mapped/heap accounting.
type v3parser struct {
	data    []byte
	entries []v3entry
	mapped  bool
	aliased int64
}

func (p *v3parser) payload(ref, kind uint32, what string) ([]byte, error) {
	if ref == 0 || int(ref) >= len(p.entries) {
		return nil, fmt.Errorf("serialize: v3 %s: section ref %d out of range", what, ref)
	}
	e := p.entries[ref]
	if e.kind != kind {
		return nil, fmt.Errorf("serialize: v3 %s: section %d has kind %d, want %d", what, ref, e.kind, kind)
	}
	return p.data[e.off : e.off+e.length], nil
}

func (p *v3parser) i32s(ref uint32, what string) ([]int32, bool, error) {
	b, err := p.payload(ref, v3KindI32, what)
	if err != nil {
		return nil, false, err
	}
	xs, copied := binio.AliasI32s(b)
	if !copied {
		p.aliased += int64(len(b))
	}
	accountSection(!copied, int64(len(b)))
	return xs, !copied, nil
}

func (p *v3parser) i64s(ref uint32, what string) ([]int64, bool, error) {
	b, err := p.payload(ref, v3KindI64, what)
	if err != nil {
		return nil, false, err
	}
	xs, copied := binio.AliasI64s(b)
	if !copied {
		p.aliased += int64(len(b))
	}
	accountSection(!copied, int64(len(b)))
	return xs, !copied, nil
}

func (p *v3parser) f64s(ref uint32, what string) ([]float64, bool, error) {
	b, err := p.payload(ref, v3KindF64, what)
	if err != nil {
		return nil, false, err
	}
	xs, copied := binio.AliasF64s(b)
	if !copied {
		p.aliased += int64(len(b))
	}
	accountSection(!copied, int64(len(b)))
	return xs, !copied, nil
}

func (p *v3parser) bytesSection(ref uint32, what string) ([]byte, error) {
	b, err := p.payload(ref, v3KindBytes, what)
	if err != nil {
		return nil, err
	}
	p.aliased += int64(len(b))
	accountSection(true, int64(len(b)))
	return b, nil
}

// readPostingsRef parses a walk set's postings reference from the manifest
// stream: nil for "no index stored", else the compact form, which must carry
// positions.
func (p *v3parser) readPostingsRef(r io.Reader, what string) (compact *postings.Compact, mapped bool, err error) {
	var mode [1]byte
	if _, err := io.ReadFull(r, mode[:]); err != nil {
		return nil, false, fmt.Errorf("serialize: v3 %s postings mode: %w", what, err)
	}
	switch mode[0] {
	case v3PostingsNone:
		return nil, false, nil
	case v3PostingsCompact:
		blockSize, err := binio.ReadU32(r)
		if err != nil {
			return nil, false, err
		}
		if blockSize == 0 || blockSize > math.MaxInt32 {
			return nil, false, fmt.Errorf("serialize: v3 %s postings block size %d", what, blockSize)
		}
		var hasPos [1]byte
		if _, err := io.ReadFull(r, hasPos[:]); err != nil {
			return nil, false, err
		}
		if hasPos[0] != 1 {
			return nil, false, fmt.Errorf("serialize: v3 %s postings hasPos flag %d, want 1", what, hasPos[0])
		}
		var refs [4]uint32
		for i := range refs {
			if refs[i], err = binio.ReadU32(r); err != nil {
				return nil, false, err
			}
		}
		cp := &postings.Compact{HasPos: true, BlockSize: int32(blockSize)}
		a1, a2, a3 := true, true, true
		if cp.Off, a1, err = p.i32s(refs[0], what+" postings off"); err != nil {
			return nil, false, err
		}
		if cp.FirstBlock, a2, err = p.i32s(refs[1], what+" postings blocks"); err != nil {
			return nil, false, err
		}
		if cp.BlockOff, a3, err = p.i64s(refs[2], what+" postings block offsets"); err != nil {
			return nil, false, err
		}
		if cp.Data, err = p.bytesSection(refs[3], what+" postings data"); err != nil {
			return nil, false, err
		}
		return cp, p.mapped && a1 && a2 && a3, nil
	default:
		return nil, false, fmt.Errorf("serialize: v3 %s postings mode %d unsupported (only the compact form, mode %d, is read); rebuild with ovmd -build-index", what, mode[0], v3PostingsCompact)
	}
}

func (p *v3parser) readWalkSetRef(r io.Reader, what string) (*walks.Snapshot, *walks.IndexSnapshot, error) {
	horizon, err := binio.ReadU32(r)
	if err != nil {
		return nil, nil, err
	}
	var refs [4]uint32
	for i := range refs {
		if refs[i], err = binio.ReadU32(r); err != nil {
			return nil, nil, err
		}
	}
	s := &walks.Snapshot{Horizon: int(horizon)}
	a1, a2, a3, a4 := true, true, true, true
	if s.Nodes, a1, err = p.i32s(refs[0], what+" nodes"); err != nil {
		return nil, nil, err
	}
	if s.Off, a2, err = p.i32s(refs[1], what+" offsets"); err != nil {
		return nil, nil, err
	}
	if s.OwnerNodes, a3, err = p.i32s(refs[2], what+" owners"); err != nil {
		return nil, nil, err
	}
	if s.OwnerOff, a4, err = p.i32s(refs[3], what+" owner offsets"); err != nil {
		return nil, nil, err
	}
	s.Mapped = p.mapped && a1 && a2 && a3 && a4
	compact, idxMapped, err := p.readPostingsRef(r, what+" index")
	if err != nil {
		return nil, nil, err
	}
	var is *walks.IndexSnapshot
	if compact != nil {
		is = &walks.IndexSnapshot{Compact: compact, Mapped: idxMapped}
	}
	return s, is, nil
}

// skipRRArtifact reads past one RR-set artifact's manifest entry, as an
// older writer laid it out: seed (i64), target and model (u32 each), the
// members and offsets section refs, then a postings reference (mode byte;
// the compact form adds a block size, a positions flag and four refs).
func skipRRArtifact(r io.Reader) error {
	if _, err := io.CopyN(io.Discard, r, 8+4*4); err != nil {
		return err
	}
	var mode [1]byte
	if _, err := io.ReadFull(r, mode[:]); err != nil {
		return err
	}
	switch mode[0] {
	case v3PostingsNone:
		return nil
	case v3PostingsCompact:
		_, err := io.CopyN(io.Discard, r, 4+1+4*4)
		return err
	}
	return fmt.Errorf("postings mode %d unsupported", mode[0])
}

// parseV3 is the one index parser: it checks magic and version, validates
// the section table of a complete file image and decodes the manifest,
// aliasing array sections over data wherever alignment and endianness
// allow. With mapped set, the produced snapshots are flagged as frozen
// storage. Returns the index and the number of payload bytes consumed
// zero-copy.
func parseV3(data []byte, mapped bool) (*Index, int64, error) {
	if len(data) < len(indexMagic)+4 {
		return nil, 0, fmt.Errorf("serialize: index truncated (%d bytes)", len(data))
	}
	if string(data[:len(indexMagic)]) != indexMagic {
		return nil, 0, fmt.Errorf("serialize: bad index magic %q (want %q)", data[:len(indexMagic)], indexMagic)
	}
	// The version is judged before anything else about the file: an intact
	// older or newer file is reported as such, not as a damaged v3.
	if v := binary.LittleEndian.Uint32(data[len(indexMagic):]); v != IndexFormatVersion {
		return nil, 0, fmt.Errorf("serialize: index format version %d: %w (this build reads and writes only v%d; rebuild with ovmd -build-index)", v, ErrUnsupportedVersion, IndexFormatVersion)
	}
	if len(data) < v3HeaderSize {
		return nil, 0, fmt.Errorf("serialize: v3 index truncated (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint16(data[10:]) != 0 || binary.LittleEndian.Uint32(data[20:]) != 0 {
		return nil, 0, fmt.Errorf("serialize: v3 header padding not zero")
	}
	numSections := binary.LittleEndian.Uint32(data[12:])
	if numSections == 0 || numSections > v3MaxSections {
		return nil, 0, fmt.Errorf("serialize: v3 section count %d outside (0,%d]", numSections, v3MaxSections)
	}
	tableEnd := int64(v3HeaderSize) + int64(numSections)*v3EntrySize
	if tableEnd > int64(len(data)) {
		return nil, 0, fmt.Errorf("serialize: v3 section table exceeds file (%d > %d)", tableEnd, len(data))
	}
	table := data[v3HeaderSize:tableEnd]
	if got, want := crc32.ChecksumIEEE(table), binary.LittleEndian.Uint32(data[16:]); got != want {
		return nil, 0, fmt.Errorf("serialize: v3 section table checksum mismatch (file %08x, computed %08x)", want, got)
	}
	entries := make([]v3entry, numSections)
	prevEnd := v3align(tableEnd)
	for i := range entries {
		e := table[i*v3EntrySize:]
		off := binary.LittleEndian.Uint64(e[0:])
		length := binary.LittleEndian.Uint64(e[8:])
		kind := binary.LittleEndian.Uint32(e[16:])
		if off > math.MaxInt64 || length > math.MaxInt64 {
			return nil, 0, fmt.Errorf("serialize: v3 section %d offset/length overflow", i)
		}
		ent := v3entry{off: int64(off), length: int64(length), kind: kind, crc: binary.LittleEndian.Uint32(e[20:])}
		if ent.off%8 != 0 {
			return nil, 0, fmt.Errorf("serialize: v3 section %d offset %d not 8-aligned", i, ent.off)
		}
		if ent.off < prevEnd {
			return nil, 0, fmt.Errorf("serialize: v3 section %d at %d overlaps previous end %d", i, ent.off, prevEnd)
		}
		if ent.length > int64(len(data))-ent.off {
			return nil, 0, fmt.Errorf("serialize: v3 section %d spans past end of file", i)
		}
		switch kind {
		case v3KindManifest, v3KindI32, v3KindF64, v3KindBytes, v3KindI64:
		default:
			return nil, 0, fmt.Errorf("serialize: v3 section %d has unknown kind %d", i, kind)
		}
		if sz := v3elemSize(kind); ent.length%sz != 0 {
			return nil, 0, fmt.Errorf("serialize: v3 section %d length %d not a multiple of %d", i, ent.length, sz)
		}
		if ent.length/4 > maxElements {
			return nil, 0, fmt.Errorf("serialize: v3 section %d exceeds element limit", i)
		}
		if got := crc32.ChecksumIEEE(data[ent.off : ent.off+ent.length]); got != ent.crc {
			return nil, 0, fmt.Errorf("serialize: v3 section %d checksum mismatch (table %08x, computed %08x)", i, ent.crc, got)
		}
		prevEnd = ent.off + ent.length
		entries[i] = ent
	}
	if entries[0].kind != v3KindManifest {
		return nil, 0, fmt.Errorf("serialize: v3 section 0 has kind %d, want manifest", entries[0].kind)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].kind == v3KindManifest {
			return nil, 0, fmt.Errorf("serialize: v3 has a second manifest at section %d", i)
		}
	}

	p := &v3parser{data: data, entries: entries, mapped: mapped}
	m := bytes.NewReader(data[entries[0].off : entries[0].off+entries[0].length])

	// Graph.
	nU32, err := binio.ReadU32(m)
	if err != nil {
		return nil, 0, fmt.Errorf("serialize: v3 manifest graph: %w", err)
	}
	var csb [1]byte
	if _, err := io.ReadFull(m, csb[:]); err != nil {
		return nil, 0, fmt.Errorf("serialize: v3 manifest graph: %w", err)
	}
	if csb[0] > 1 {
		return nil, 0, fmt.Errorf("serialize: v3 columnStochastic flag %d", csb[0])
	}
	var grefs [6]uint32
	for i := range grefs {
		if grefs[i], err = binio.ReadU32(m); err != nil {
			return nil, 0, err
		}
	}
	ga := graph.CSRArrays{N: int(nU32), ColumnStochastic: csb[0] == 1}
	if ga.InStart, _, err = p.i32s(grefs[0], "graph in-offsets"); err != nil {
		return nil, 0, err
	}
	if ga.InSrc, _, err = p.i32s(grefs[1], "graph in-edges"); err != nil {
		return nil, 0, err
	}
	if ga.InW, _, err = p.f64s(grefs[2], "graph in-weights"); err != nil {
		return nil, 0, err
	}
	if ga.OutStart, _, err = p.i32s(grefs[3], "graph out-offsets"); err != nil {
		return nil, 0, err
	}
	if ga.OutDst, _, err = p.i32s(grefs[4], "graph out-edges"); err != nil {
		return nil, 0, err
	}
	if ga.OutW, _, err = p.f64s(grefs[5], "graph out-weights"); err != nil {
		return nil, 0, err
	}
	g, err := graph.NewFromCSR(ga)
	if err != nil {
		return nil, 0, err
	}
	n := g.N()

	// Candidates.
	rCand, err := binReadCount(m, maxCandidates)
	if err != nil {
		return nil, 0, fmt.Errorf("serialize: v3 candidate count: %w", err)
	}
	if rCand < 2 {
		return nil, 0, fmt.Errorf("serialize: need at least 2 candidates, got %d", rCand)
	}
	cands := make([]*opinion.Candidate, rCand)
	for q := range cands {
		nameLen, err := binReadCount(m, maxNameLen)
		if err != nil {
			return nil, 0, fmt.Errorf("serialize: v3 candidate %d name length: %w", q, err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(m, name); err != nil {
			return nil, 0, fmt.Errorf("serialize: v3 candidate %d name: %w", q, err)
		}
		var refs [2]uint32
		for i := range refs {
			if refs[i], err = binio.ReadU32(m); err != nil {
				return nil, 0, err
			}
		}
		c := &opinion.Candidate{Name: string(name), G: g}
		if c.Init, _, err = p.f64s(refs[0], "candidate init"); err != nil {
			return nil, 0, err
		}
		if c.Stub, _, err = p.f64s(refs[1], "candidate stub"); err != nil {
			return nil, 0, err
		}
		if len(c.Init) != n || len(c.Stub) != n {
			return nil, 0, fmt.Errorf("serialize: v3 candidate %d vectors have %d/%d entries, want %d", q, len(c.Init), len(c.Stub), n)
		}
		cands[q] = c
	}
	sys, err := opinion.NewSystem(cands)
	if err != nil {
		return nil, 0, err
	}
	idx := &Index{Sys: sys}

	// Artifacts.
	numSketches, err := binReadCount(m, maxArtifacts)
	if err != nil {
		return nil, 0, fmt.Errorf("serialize: v3 sketch artifact count: %w", err)
	}
	for i := 0; i < numSketches; i++ {
		a := &SketchArtifact{}
		if a.Seed, err = binio.ReadI64(m); err != nil {
			return nil, 0, err
		}
		var fields [3]uint32
		for j := range fields {
			if fields[j], err = binio.ReadU32(m); err != nil {
				return nil, 0, err
			}
		}
		a.Target, a.Horizon, a.Theta = int(fields[0]), int(fields[1]), int(fields[2])
		if a.Set, a.Index, err = p.readWalkSetRef(m, fmt.Sprintf("sketch artifact %d", i)); err != nil {
			return nil, 0, err
		}
		idx.Sketches = append(idx.Sketches, a)
	}
	numWalks, err := binReadCount(m, maxArtifacts)
	if err != nil {
		return nil, 0, fmt.Errorf("serialize: v3 walk artifact count: %w", err)
	}
	for i := 0; i < numWalks; i++ {
		a := &WalkArtifact{}
		if a.Seed, err = binio.ReadI64(m); err != nil {
			return nil, 0, err
		}
		var fields [3]uint32
		for j := range fields {
			if fields[j], err = binio.ReadU32(m); err != nil {
				return nil, 0, err
			}
		}
		a.Target, a.Horizon, a.Lambda = int(fields[0]), int(fields[1]), int(fields[2])
		if a.Set, a.Index, err = p.readWalkSetRef(m, fmt.Sprintf("walk artifact %d", i)); err != nil {
			return nil, 0, err
		}
		idx.Walks = append(idx.Walks, a)
	}
	numRRs, err := binReadCount(m, maxArtifacts)
	if err != nil {
		return nil, 0, fmt.Errorf("serialize: v3 rr artifact count: %w", err)
	}
	for i := 0; i < numRRs; i++ {
		if err := skipRRArtifact(m); err != nil {
			return nil, 0, fmt.Errorf("serialize: v3 rr artifact %d: %w", i, err)
		}
	}

	base, err := binio.ReadU64(m)
	if err != nil {
		return nil, 0, fmt.Errorf("serialize: v3 base epoch: %w", err)
	}
	if base > math.MaxInt64 {
		return nil, 0, fmt.Errorf("serialize: v3 base epoch %d overflows", base)
	}
	idx.BaseEpoch = int64(base)
	if idx.Updates, err = readUpdateLog(m); err != nil {
		return nil, 0, err
	}
	if m.Len() != 0 {
		return nil, 0, fmt.Errorf("serialize: v3 manifest has %d trailing bytes", m.Len())
	}
	if err := idx.Validate(); err != nil {
		return nil, 0, err
	}
	return idx, p.aliased, nil
}

// MappedIndex is an Index whose bulk arrays may alias an open file
// mapping. Keep it (and the mapping) alive for as long as any dataset
// built from the Index is in use; Close only after the serving layer has
// dropped every reference.
type MappedIndex struct {
	Index *Index

	region      *mmapio.Region
	mappedBytes int64
}

// Mapped reports whether any part of the index aliases an mmap'd region.
func (mi *MappedIndex) Mapped() bool { return mi.region != nil && mi.region.Mapped() }

// MappedBytes returns how many payload bytes are consumed zero-copy from
// the mapping (0 when the load fell back to the heap).
func (mi *MappedIndex) MappedBytes() int64 {
	if !mi.Mapped() {
		return 0
	}
	return mi.mappedBytes
}

// Close releases the mapping. The Index and everything built from it must
// not be used afterwards.
func (mi *MappedIndex) Close() error {
	if mi.region == nil {
		return nil
	}
	r := mi.region
	mi.region = nil
	return r.Close()
}

// OpenMapped loads an index file zero-copy when the platform can map it:
// the file is mmap'd and its array sections aliased in place. Where mmapio
// falls back to a heap read the same parse runs over that buffer and
// Mapped() reports false. The caller owns the returned MappedIndex and must
// Close it after the last use of the Index.
func OpenMapped(path string) (*MappedIndex, error) {
	region, err := mmapio.Open(path)
	if err != nil {
		return nil, err
	}
	return OpenRegion(region)
}

// OpenRegion is OpenMapped over a region the caller mapped; the returned
// index owns it (a parse failure closes it).
func OpenRegion(region *mmapio.Region) (*MappedIndex, error) {
	idx, aliased, err := parseV3(region.Data(), region.Mapped())
	if err != nil {
		_ = region.Close()
		return nil, err
	}
	return &MappedIndex{Index: idx, region: region, mappedBytes: aliased}, nil
}
