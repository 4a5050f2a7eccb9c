package postings

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomCSR builds a CSR over n members and numItems items where each
// member's postings are distinct ascending items, optionally with pos.
func randomCSR(r *rand.Rand, n, numItems, maxPerMember int, withPos bool) CSR {
	c := CSR{Off: make([]int32, n+1)}
	if withPos {
		c.Pos = []int32{}
	}
	for v := 0; v < n; v++ {
		cnt := r.Intn(maxPerMember + 1)
		if cnt > numItems {
			cnt = numItems
		}
		items := r.Perm(numItems)[:cnt]
		sortInts(items)
		for _, it := range items {
			c.Item = append(c.Item, int32(it))
			if withPos {
				c.Pos = append(c.Pos, int32(r.Intn(64)))
			}
		}
		c.Off[v+1] = int32(len(c.Item))
	}
	return c
}

// fromCSR encodes a CSR whose postings are strictly ascending per member
// with an Encoder, the payload made contiguous.
func fromCSR(c CSR, blockSize int) *Compact {
	n := len(c.Off) - 1
	e := NewEncoder(n, c.Pos != nil, blockSize, len(c.Item))
	for v := range n {
		lo, hi := c.Off[v], c.Off[v+1]
		var pos []int32
		if c.Pos != nil {
			pos = c.Pos[lo:hi]
		}
		e.Add(c.Item[lo:hi], pos)
		e.End()
	}
	cp, chunks := e.Finish()
	cp.Data = slices.Concat(chunks...)
	return cp
}

// readChecked reads c the way an adopting loader does, CheckTables and then
// a Checked pass over every member, handing fn each member's k-th posting.
func readChecked(c *Compact, fn func(v, k, item, pos int32)) error {
	if err := c.CheckTables(); err != nil {
		return err
	}
	for v := range int32(c.NumMembers()) {
		it := c.Checked(v)
		for k := int32(0); ; k++ {
			item, pos, ok, err := it.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			fn(v, k, item, pos)
		}
		if !it.Done() {
			return fmt.Errorf("member %d leaves unread payload bytes", v)
		}
	}
	return nil
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestCompactRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, withPos := range []bool{false, true} {
		for _, bs := range []int{1, 3, 128} {
			csr := randomCSR(r, 200, 1000, 300, withPos)
			cp := fromCSR(csr, bs)
			if err := readChecked(cp, func(v, k, item, pos int32) {}); err != nil {
				t.Fatalf("bs=%d withPos=%v: Checked: %v", bs, withPos, err)
			}
			back := cp.ToCSR()
			if !reflect.DeepEqual(back.Off, csr.Off) || !reflect.DeepEqual(back.Item, csr.Item) {
				t.Fatalf("bs=%d withPos=%v: items differ after round trip", bs, withPos)
			}
			if withPos && !reflect.DeepEqual(back.Pos, csr.Pos) {
				t.Fatalf("bs=%d: pos differ after round trip", bs)
			}
			// Iterator agrees with the raw CSR per member.
			for v := 0; v < cp.NumMembers(); v++ {
				it := cp.Iter(int32(v))
				for p := csr.Off[v]; p < csr.Off[v+1]; p++ {
					item, pos, ok := it.Next()
					if !ok || item != csr.Item[p] {
						t.Fatalf("member %d posting %d: got (%d,%v), want %d", v, p, item, ok, csr.Item[p])
					}
					if withPos && pos != csr.Pos[p] {
						t.Fatalf("member %d posting %d: pos %d, want %d", v, p, pos, csr.Pos[p])
					}
				}
				if _, _, ok := it.Next(); ok {
					t.Fatalf("member %d: iterator overran", v)
				}
			}
		}
	}
}

// TestEncoderCopyMatchesAdd: members copied block for block from another
// encoding, interleaved with members added posting by posting, give the
// bytes of encoding everything afresh — across payload chunk boundaries.
func TestEncoderCopyMatchesAdd(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	csr := randomCSR(r, 1500, 60000, 700, true)
	want := fromCSR(csr, DefaultBlockSize)
	if want.BlockOff[len(want.BlockOff)-1] < 2*encChunk {
		t.Fatalf("payload %d bytes does not span chunks", want.BlockOff[len(want.BlockOff)-1])
	}
	n := len(csr.Off) - 1
	e := NewEncoder(n, true, DefaultBlockSize, 0)
	for v := range n {
		if r.Intn(3) > 0 {
			e.Copy(want, int32(v))
			continue
		}
		lo, hi := csr.Off[v], csr.Off[v+1]
		e.Add(csr.Item[lo:hi], csr.Pos[lo:hi])
		e.End()
	}
	got, chunks := e.Finish()
	for _, c := range chunks {
		got.Data = append(got.Data, c...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("copied and added members encode differently from adding them all")
	}
}

func TestCompactSeek(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	csr := randomCSR(r, 50, 5000, 600, true)
	cp := fromCSR(csr, 16)
	for v := 0; v < 50; v++ {
		for _, target := range []int32{0, 1, 17, 2500, 4999, 5000} {
			it := cp.Seek(int32(v), target)
			// Reference: first posting >= target by linear scan.
			var want []int32
			for p := csr.Off[v]; p < csr.Off[v+1]; p++ {
				if csr.Item[p] >= target {
					want = csr.Item[p:csr.Off[v+1]]
					break
				}
			}
			for _, w := range want {
				item, _, ok := it.Next()
				if !ok || item != w {
					t.Fatalf("member %d seek %d: got (%d,%v), want %d", v, target, item, ok, w)
				}
			}
			if _, _, ok := it.Next(); ok {
				t.Fatalf("member %d seek %d: iterator overran", v, target)
			}
		}
	}
}

func TestCompactCompression(t *testing.T) {
	// Dense ascending postings (small deltas) must compress well below
	// 4 bytes/entry even counting the skip table.
	n := 1000
	csr := CSR{Off: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		for i := 0; i < 100; i++ {
			csr.Item = append(csr.Item, int32(v+i*3))
		}
		csr.Off[v+1] = int32(len(csr.Item))
	}
	cp := fromCSR(csr, DefaultBlockSize)
	raw := int64(4 * len(csr.Item))
	if cp.Bytes()-int64(4*len(cp.Off)) >= raw/2 {
		t.Fatalf("compact %d bytes vs raw %d: expected >=2x compression", cp.Bytes(), raw)
	}
}

// TestCompactValidateRejects: CheckTables and a Checked pass reject every
// structural corruption. Items and positions out of range are the caller's
// to compare: walks TestAdoptIndexRejectsCorruptPostings feeds the loader's
// check, walks.Set.AdoptIndex, a posting past the last walk.
func TestCompactValidateRejects(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	csr := randomCSR(r, 20, 100, 30, true)
	fresh := func() *Compact {
		c := fromCSR(csr, 8)
		// Deep copy so mutations don't leak between cases.
		cp := *c
		cp.Off = append([]int32(nil), c.Off...)
		cp.FirstBlock = append([]int32(nil), c.FirstBlock...)
		cp.BlockOff = append([]int64(nil), c.BlockOff...)
		cp.Data = append([]byte(nil), c.Data...)
		return &cp
	}
	cases := map[string]func(c *Compact){
		"truncated payload": func(c *Compact) { c.Data = c.Data[:len(c.Data)-1] },
		"trailing bytes":    func(c *Compact) { c.Data = append(c.Data, 0) },
		"leading bytes": func(c *Compact) {
			c.Data = append([]byte{0}, c.Data...)
			for i := range c.BlockOff {
				c.BlockOff[i]++
			}
		},
		"bad block offset": func(c *Compact) { c.BlockOff[1]++ },
		"non-monotone off": func(c *Compact) { c.Off[3] = c.Off[4] + 1 },
		"bad block count":  func(c *Compact) { c.FirstBlock[5]++ },
		"zero block size":  func(c *Compact) { c.BlockSize = 0 },
		"unterminated varint": func(c *Compact) {
			for i := range c.Data {
				c.Data[i] = 0x80
			}
		},
	}
	// checked reports whether CheckTables plus a Checked pass over every
	// member accept c, and that they read what Iter does.
	checked := func(c *Compact) bool {
		return readChecked(c, func(v, k, item, pos int32) {
			if p := csr.Off[v] + k; item != csr.Item[p] || pos != csr.Pos[p] {
				t.Fatalf("member %d: Checked read (%d, %d), want (%d, %d)", v, item, pos, csr.Item[p], csr.Pos[p])
			}
		}) == nil
	}
	if !checked(fresh()) {
		t.Fatal("Checked rejected an intact index")
	}
	for name, mutate := range cases {
		c := fresh()
		mutate(c)
		if checked(c) {
			t.Errorf("%s: Checked accepted corrupted index", name)
		}
	}
}
