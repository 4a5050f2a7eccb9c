package serialize_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"ovm/internal/dynamic"
	"ovm/internal/serialize"
)

func testUpdateLog() []dynamic.Batch {
	return []dynamic.Batch{
		{
			{Kind: dynamic.OpAddEdge, From: 1, To: 2, W: 0.5},
			{Kind: dynamic.OpRemoveEdge, From: 0, To: 1},
		},
		{
			{Kind: dynamic.OpSetWeight, From: 3, To: 4, W: 2.25},
			{Kind: dynamic.OpSetOpinion, Cand: 1, Node: 7, Value: 0.75},
			{Kind: dynamic.OpSetStubbornness, Cand: 0, Node: 9, Value: 0.125},
		},
	}
}

func TestUpdateLogRoundTrip(t *testing.T) {
	idx := buildTestIndex(t)
	idx.Updates = testUpdateLog()
	data := writeV3(t, idx)
	loaded, err := serialize.ReadIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Updates, idx.Updates) {
		t.Fatalf("update log round-trip mismatch:\n got %+v\nwant %+v", loaded.Updates, idx.Updates)
	}
	// And the manifest's CRC guards the log: flip a byte of its last op.
	manifest := v3TableEntry(data, 0)
	end := binary.LittleEndian.Uint64(manifest[0:]) + binary.LittleEndian.Uint64(manifest[8:])
	data[end-10] ^= 0x20
	if _, err := serialize.ReadIndex(bytes.NewReader(data)); err == nil {
		t.Error("expected checksum error after corrupting the update log")
	}
}

func TestBaseEpochRoundTrip(t *testing.T) {
	idx := buildTestIndex(t)
	idx.BaseEpoch = 7
	loaded, err := serialize.ReadIndex(bytes.NewReader(writeV3(t, idx)))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.BaseEpoch != 7 || len(loaded.Updates) != 0 {
		t.Fatalf("round trip gave baseEpoch=%d updates=%d, want 7/0", loaded.BaseEpoch, len(loaded.Updates))
	}
	idx.BaseEpoch = -1
	if err := serialize.WriteIndexV3(&bytes.Buffer{}, idx, serialize.V3Options{}); err == nil {
		t.Error("negative base epoch must be rejected")
	}
}

func TestUpdateLogValidation(t *testing.T) {
	idx := buildTestIndex(t)
	idx.Updates = []dynamic.Batch{{{Kind: dynamic.OpAddEdge, From: -4, To: 0, W: 1}}}
	var buf bytes.Buffer
	if err := serialize.WriteIndexV3(&buf, idx, serialize.V3Options{}); err == nil {
		t.Error("expected WriteIndexV3 to reject an out-of-range update op")
	}
	idx.Updates = []dynamic.Batch{{{Kind: dynamic.OpKind("unknown"), From: 0, To: 1, W: 1}}}
	if err := serialize.WriteIndexV3(&buf, idx, serialize.V3Options{}); err == nil {
		t.Error("expected WriteIndexV3 to reject an unknown op kind")
	}
}
