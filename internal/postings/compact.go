package postings

import (
	"encoding/binary"
	"fmt"
	"math"
)

// DefaultBlockSize is the number of postings per varint block. 128 keeps
// a block within two cache lines for typical deltas while making the skip
// table (one i64 per block) negligible next to the payload.
const DefaultBlockSize = 128

// Compact is a delta+varint-compressed postings index, equivalent to a
// CSR built with ascending distinct items per member (which is what both
// walk and RR indexes produce). Member v's postings are encoded in
// fixed-size blocks of at most BlockSize entries; a block never spans two
// members. The first item of a block is an absolute uvarint, later items
// are uvarint deltas from their predecessor, and when HasPos is set each
// item varint is followed by its pos uvarint. BlockOff byte offsets give
// O(log blocks) seek without decoding preceding blocks.
//
// Compact is immutable after construction and safe for concurrent readers;
// all four slices may alias a read-only mapped region.
type Compact struct {
	// Off is the n+1 postings-count prefix sum: member v holds
	// Off[v+1]-Off[v] postings.
	Off []int32
	// FirstBlock is the n+1 block-count prefix sum: member v's blocks are
	// [FirstBlock[v], FirstBlock[v+1]).
	FirstBlock []int32
	// BlockOff maps block index to its byte offset in Data; the extra
	// final entry is len(Data).
	BlockOff []int64
	// Data is the varint payload.
	Data []byte
	// HasPos records whether each item carries an interleaved pos varint.
	HasPos bool
	// BlockSize is the encoding's entries-per-block bound.
	BlockSize int32
}

// encChunk is the size of an Encoder's payload chunks.
const encChunk = 256 << 10

// Encoder builds the compact form member by member from postings that
// already arrive in order — items strictly ascending within a member,
// members 0..n-1 — so a producer merging several sources never lays out a
// raw CSR first. It is the one encoding of the format. The payload grows
// in fixed-size chunks, so nothing already encoded is copied to make room;
// Finish hands the chunks out in order.
type Encoder struct {
	c      Compact // Data unused: the payload is chunks
	chunks [][]byte
	size   int64 // payload bytes before the last chunk
	cnt    int32 // postings of the member being added
	prev   int32
}

// NewEncoder starts an encoding of n members. hint bounds the total
// postings from above; it sizes the block table once (0 lets it grow).
func NewEncoder(n int, hasPos bool, blockSize, hint int) *Encoder {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	e := &Encoder{c: Compact{
		Off:        make([]int32, 1, n+1),
		FirstBlock: make([]int32, 1, n+1),
		HasPos:     hasPos,
		BlockSize:  int32(blockSize),
	}}
	if hint > 0 {
		e.c.BlockOff = make([]int64, 0, hint/blockSize+n+1)
	}
	return e
}

// Add appends postings to the current member: items strictly ascending,
// continuing the member's previous ones, with their positions when the
// encoding carries them (pos is ignored otherwise).
func (e *Encoder) Add(items, pos []int32) {
	bs := e.c.BlockSize
	for i, item := range items {
		d := e.room(2 * binary.MaxVarintLen32)
		if e.cnt%bs == 0 {
			e.c.BlockOff = append(e.c.BlockOff, e.size+int64(len(d)))
			d = binary.AppendUvarint(d, uint64(item))
		} else {
			if item <= e.prev {
				panic(fmt.Sprintf("postings: member %d items not strictly ascending (%d after %d)", len(e.c.Off)-1, item, e.prev))
			}
			d = binary.AppendUvarint(d, uint64(item-e.prev))
		}
		if e.c.HasPos {
			d = binary.AppendUvarint(d, uint64(pos[i]))
		}
		e.chunks[len(e.chunks)-1] = d
		e.prev = item
		e.cnt++
	}
}

func (e *Encoder) last() []byte { return e.chunks[len(e.chunks)-1] }

// room returns the last chunk, after starting a new one if it has less than
// need bytes of room.
func (e *Encoder) room(need int) []byte {
	if len(e.chunks) == 0 || cap(e.last())-len(e.last()) < need {
		if len(e.chunks) > 0 {
			e.size += int64(len(e.last()))
		}
		e.chunks = append(e.chunks, make([]byte, 0, encChunk))
	}
	return e.last()
}

// Copy appends member v of c as the next member, block for block. A
// member's encoding depends on its postings alone, so this writes the bytes
// Add would for the same postings without decoding them; c must share the
// encoder's block size and positions flag. Call it between members (after
// End), in place of Add and End.
func (e *Encoder) Copy(c *Compact, v int32) {
	if c.BlockSize != e.c.BlockSize || c.HasPos != e.c.HasPos || e.cnt != 0 {
		panic("postings: Copy needs the same block layout, at a member boundary")
	}
	start := c.BlockOff[c.FirstBlock[v]]
	at := e.size
	if len(e.chunks) > 0 {
		at += int64(len(e.last()))
	}
	for _, off := range c.BlockOff[c.FirstBlock[v]:c.FirstBlock[v+1]] {
		e.c.BlockOff = append(e.c.BlockOff, off-start+at)
	}
	data := c.Data[start:c.BlockOff[c.FirstBlock[v+1]]]
	for len(data) > 0 {
		d := e.room(1)
		k := min(len(data), cap(d)-len(d))
		e.chunks[len(e.chunks)-1] = append(d, data[:k]...)
		data = data[k:]
	}
	e.c.Off = append(e.c.Off, e.c.Off[len(e.c.Off)-1]+c.Off[v+1]-c.Off[v])
	e.c.FirstBlock = append(e.c.FirstBlock, int32(len(e.c.BlockOff)))
}

// End closes the current member; the next Add starts member len(Off)-1.
func (e *Encoder) End() {
	e.c.Off = append(e.c.Off, e.c.Off[len(e.c.Off)-1]+e.cnt)
	e.c.FirstBlock = append(e.c.FirstBlock, int32(len(e.c.BlockOff)))
	e.cnt = 0
}

// Finish returns the encoding: every field but Data, which stays nil, and
// the payload as chunks whose concatenation is Data.
func (e *Encoder) Finish() (*Compact, [][]byte) {
	size := e.size
	if len(e.chunks) > 0 {
		size += int64(len(e.last()))
	}
	e.c.BlockOff = append(e.c.BlockOff, size)
	return &e.c, e.chunks
}

// ToCSR decodes back to the raw CSR form. The result owns fresh heap
// slices except Off, which is shared (it is identical in both forms).
func (c *Compact) ToCSR() CSR {
	n := len(c.Off) - 1
	total := int(c.Off[n])
	out := CSR{Off: c.Off, Item: make([]int32, 0, total)}
	if c.HasPos {
		out.Pos = make([]int32, 0, total)
	}
	for v := 0; v < n; v++ {
		it := c.Iter(int32(v))
		for {
			item, pos, ok := it.Next()
			if !ok {
				break
			}
			out.Item = append(out.Item, item)
			if c.HasPos {
				out.Pos = append(out.Pos, pos)
			}
		}
	}
	return out
}

// Count returns member v's postings count.
func (c *Compact) Count(v int32) int32 { return c.Off[v+1] - c.Off[v] }

// NumMembers returns the member universe size n.
func (c *Compact) NumMembers() int { return len(c.Off) - 1 }

// Bytes returns the total storage footprint in bytes.
func (c *Compact) Bytes() int64 {
	return int64(4*len(c.Off)) + int64(4*len(c.FirstBlock)) + int64(8*len(c.BlockOff)) + int64(len(c.Data))
}

// Iterator walks one member's postings in ascending item order. It is a
// value type with no heap state, so hot paths can create one per member
// with zero allocation; a Compact validated once supports any number of
// concurrent iterators.
type Iterator struct {
	data      []byte
	cur       int   // byte cursor into data
	remain    int32 // postings not yet returned
	inBlock   int32 // entries left in the current block (0 = at a block start)
	prev      int32 // last item returned
	hasPos    bool
	blockSize int32
}

// Iter positions an iterator at the start of member v's postings.
func (c *Compact) Iter(v int32) Iterator {
	return Iterator{
		data:      c.Data,
		cur:       int(c.BlockOff[c.FirstBlock[v]]),
		remain:    c.Off[v+1] - c.Off[v],
		hasPos:    c.HasPos,
		blockSize: c.BlockSize,
	}
}

// Next returns the next posting. pos is 0 when the index carries no
// positions. ok is false when the member's postings are exhausted.
func (it *Iterator) Next() (item, pos int32, ok bool) {
	if it.remain == 0 {
		return 0, 0, false
	}
	if it.inBlock == 0 {
		it.inBlock = it.remain
		if it.inBlock > it.blockSize {
			it.inBlock = it.blockSize
		}
		item = int32(it.uvarint())
	} else {
		item = it.prev + int32(it.uvarint())
	}
	it.prev = item
	it.inBlock--
	it.remain--
	if it.hasPos {
		pos = int32(it.uvarint())
	}
	return item, pos, true
}

// uvarint decodes one uvarint at the cursor. Bounds are enforced by the
// slice; an adopted encoding was read through once with Checked, which
// guarantees a well-formed stream, so this never trips on it.
func (it *Iterator) uvarint() uint64 {
	var x uint64
	var s uint
	for {
		b := it.data[it.cur]
		it.cur++
		if b < 0x80 {
			return x | uint64(b)<<s
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// Seek returns an iterator positioned at member v's first posting with
// item >= target, using the block skip table: binary-search the last block
// whose first item <= target, then scan at most one block.
func (c *Compact) Seek(v, target int32) Iterator {
	lo, hi := c.FirstBlock[v], c.FirstBlock[v+1]
	if lo == hi {
		return Iterator{data: c.Data, hasPos: c.HasPos, blockSize: c.BlockSize}
	}
	// Find the last block b in [lo,hi) with firstItem(b) <= target.
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		first, _ := binary.Uvarint(c.Data[c.BlockOff[mid]:])
		if int32(first) <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	cnt := c.Off[v+1] - c.Off[v]
	skipped := (lo - c.FirstBlock[v]) * c.BlockSize
	it := Iterator{
		data:      c.Data,
		cur:       int(c.BlockOff[lo]),
		remain:    cnt - skipped,
		hasPos:    c.HasPos,
		blockSize: c.BlockSize,
	}
	for it.remain > 0 {
		save := it
		item, _, _ := it.Next()
		if item >= target {
			return save
		}
	}
	return it
}

// CheckTables checks an encoding's tables, not its payload: prefix sums
// monotone and consistent with the block size, block offsets ascending from
// 0 and ending at the payload's end. O(members + blocks). Iterating every
// member with Checked then validates the payload too.
func (c *Compact) CheckTables() error {
	n := len(c.Off) - 1
	if n < 0 {
		return fmt.Errorf("postings: empty Off")
	}
	if len(c.FirstBlock) != n+1 {
		return fmt.Errorf("postings: FirstBlock length %d != %d", len(c.FirstBlock), n+1)
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("postings: block size %d", c.BlockSize)
	}
	if c.Off[0] != 0 || c.FirstBlock[0] != 0 {
		return fmt.Errorf("postings: prefix sums must start at 0")
	}
	blocks := len(c.BlockOff) - 1
	if blocks < 0 {
		return fmt.Errorf("postings: empty BlockOff")
	}
	if int(c.FirstBlock[n]) != blocks {
		return fmt.Errorf("postings: %d blocks indexed, table has %d", c.FirstBlock[n], blocks)
	}
	bs := int(c.BlockSize)
	for v := 0; v < n; v++ {
		cnt := int(c.Off[v+1]) - int(c.Off[v])
		if cnt < 0 {
			return fmt.Errorf("postings: Off not monotone at %d", v)
		}
		want := (cnt + bs - 1) / bs
		if int(c.FirstBlock[v+1])-int(c.FirstBlock[v]) != want {
			return fmt.Errorf("postings: member %d has %d blocks, want %d", v, c.FirstBlock[v+1]-c.FirstBlock[v], want)
		}
	}
	if c.BlockOff[0] != 0 {
		return fmt.Errorf("postings: first block at byte %d, not 0", c.BlockOff[0])
	}
	for b := 0; b < blocks; b++ {
		if c.BlockOff[b] > c.BlockOff[b+1] {
			return fmt.Errorf("postings: block offsets not monotone at %d", b)
		}
	}
	if c.BlockOff[blocks] != int64(len(c.Data)) {
		return fmt.Errorf("postings: final block offset %d != payload %d", c.BlockOff[blocks], len(c.Data))
	}
	return nil
}

// Checked iterates one member of an encoding whose tables passed
// CheckTables but whose payload is unchecked: it reads only the member's
// own bytes, and Next reports a malformed varint, a value past int32, a
// zero delta, or a block that does not start where the table says, rather
// than trusting them. Once Next has reported the member exhausted, Done says
// whether exactly its bytes were read. Checking every member this way, in
// any order, validates the payload. Item and position ranges are the
// caller's to check: walks.Set.AdoptIndex compares every posting with the
// one its walks expect.
type Checked struct {
	data    []byte  // the member's bytes
	at      int64   // payload offset of data[0]
	blocks  []int64 // payload offsets of the member's blocks not yet begun
	cur     int
	remain  int32
	inBlock int32
	prev    int32
	hasPos  bool
	bs      int32
}

// Checked positions a checked iterator at the start of member v.
func (c *Compact) Checked(v int32) Checked {
	lo, hi := c.BlockOff[c.FirstBlock[v]], c.BlockOff[c.FirstBlock[v+1]]
	return Checked{
		data:   c.Data[lo:hi],
		at:     lo,
		blocks: c.BlockOff[c.FirstBlock[v]:c.FirstBlock[v+1]],
		remain: c.Off[v+1] - c.Off[v],
		prev:   -1,
		hasPos: c.HasPos,
		bs:     c.BlockSize,
	}
}

// Next returns the next posting, ok false once the member is exhausted.
func (it *Checked) Next() (item, pos int32, ok bool, err error) {
	if it.remain == 0 {
		return 0, 0, false, nil
	}
	var x uint32
	if it.inBlock == 0 {
		if it.at+int64(it.cur) != it.blocks[0] {
			return 0, 0, false, fmt.Errorf("postings: block starts at byte %d, table says %d", it.at+int64(it.cur), it.blocks[0])
		}
		it.blocks = it.blocks[1:]
		it.inBlock = min(it.remain, it.bs)
		if x, err = it.uvarint(); err != nil {
			return 0, 0, false, err
		}
		if item = int32(x); item <= it.prev {
			return 0, 0, false, fmt.Errorf("postings: block starts at item %d after item %d", item, it.prev)
		}
	} else {
		if x, err = it.uvarint(); err != nil {
			return 0, 0, false, err
		}
		if item = it.prev + int32(x); x == 0 || item < it.prev {
			return 0, 0, false, fmt.Errorf("postings: delta %d after item %d", x, it.prev)
		}
	}
	if it.hasPos {
		if x, err = it.uvarint(); err != nil {
			return 0, 0, false, err
		}
		pos = int32(x)
	}
	it.prev = item
	it.inBlock--
	it.remain--
	return item, pos, true, nil
}

// Done reports whether every posting and every byte of the member was read.
func (it *Checked) Done() bool { return it.remain == 0 && it.cur == len(it.data) }

// uvarint decodes a varint of at most 31 bits from the member's bytes. A
// one-byte varint, what most deltas and positions are, takes the inlined
// path.
func (it *Checked) uvarint() (uint32, error) {
	if it.cur < len(it.data) {
		if b := it.data[it.cur]; b < 0x80 {
			it.cur++
			return uint32(b), nil
		}
	}
	return it.uvarintLong()
}

func (it *Checked) uvarintLong() (uint32, error) {
	var x uint32
	for s := uint(0); s < 35; s += 7 {
		if it.cur == len(it.data) {
			return 0, fmt.Errorf("postings: varint runs past its member at byte %d", it.at+int64(it.cur))
		}
		b := it.data[it.cur]
		it.cur++
		if b < 0x80 {
			if x |= uint32(b) << s; x > math.MaxInt32 || (s == 28 && b > 0x0f) {
				break
			}
			return x, nil
		}
		x |= uint32(b&0x7f) << s
	}
	return 0, fmt.Errorf("postings: malformed varint before byte %d", it.at+int64(it.cur))
}
