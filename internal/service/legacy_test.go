package service_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ovm/internal/serialize"
	"ovm/internal/service"
)

// The two files in testdata were written by ovmd -build-index when an index
// could still hold RR-set collections, at the same parameters:
//
//	ovmd -build-index -dataset yelp-like -n 60 -seed 5 -t 6 -theta 128 -walks=false -rr 100 -out legacy-rr.ovmidx
//	ovmd -build-index -dataset yelp-like -n 60 -seed 5 -t 6 -theta 128 -walks=false -out legacy-norr.ovmidx
//
// legacy-rr.ovmidx lists an IC and an LT RR-set artifact after its sketch
// set; legacy-norr.ovmidx is the same index without them.
const (
	legacyRR      = "testdata/legacy-rr.ovmidx"
	legacyNoRR    = "testdata/legacy-norr.ovmidx"
	legacyHorizon = 6
	legacySeed    = int64(5)
)

// TestLegacyRRIndexStillLoads: a v3 file that stores RR-set artifacts loads
// through OpenMapped + AddIndex and answers IC and LT at P = 1 and 4 as the
// library does; its first checkpoint holds no RR section and is, byte for
// byte, the file -build-index writes at the same parameters without them.
// The file with one byte flipped inside an RR section's payload is refused.
func TestLegacyRRIndexStillLoads(t *testing.T) {
	mi, err := serialize.OpenMapped(legacyRR)
	if err != nil {
		t.Fatal(err)
	}
	defer mi.Close()
	svc := service.New(service.Config{CacheSize: -1})
	defer svc.Close()
	if err := svc.AddIndex("legacy", mi.Index); err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"IC", "LT"} {
		for _, par := range []int{1, 4} {
			req := &service.SelectSeedsRequest{
				Dataset: "legacy", Method: method, Score: service.ScoreSpec{Name: "plurality"},
				K: 4, Horizon: legacyHorizon, Seed: legacySeed, Parallelism: par,
			}
			got, serr := svc.SelectSeeds(req)
			if serr != nil {
				t.Fatalf("%s P=%d: %v", method, par, serr)
			}
			requireLibraryAnswer(t, mi.Index.Sys, req, got)
		}
	}

	exported, serr := svc.ExportIndex("legacy")
	if serr != nil {
		t.Fatal(serr)
	}
	var checkpoint bytes.Buffer
	if err := serialize.WriteIndexV3(&checkpoint, exported, serialize.V3Options{}); err != nil {
		t.Fatal(err)
	}
	withoutRR, err := os.ReadFile(legacyNoRR)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpoint.Bytes(), withoutRR) {
		t.Fatalf("checkpoint of the RR file (%d bytes) differs from the file built without RR sets (%d bytes)",
			checkpoint.Len(), len(withoutRR))
	}

	// Sections are laid out in the order the writer adds them, and the RR
	// artifacts came last: the RR file's first section past the other file's
	// count is the IC collection's members.
	data, err := os.ReadFile(legacyRR)
	if err != nil {
		t.Fatal(err)
	}
	sections := func(b []byte) uint32 { return binary.LittleEndian.Uint32(b[12:]) }
	first := sections(withoutRR)
	if sections(data) <= first {
		t.Fatalf("%s has %d sections, %s %d: no RR section to corrupt", legacyRR, sections(data), legacyNoRR, first)
	}
	entry := data[24+24*first:]
	off, length := binary.LittleEndian.Uint64(entry[0:]), binary.LittleEndian.Uint64(entry[8:])
	if length == 0 {
		t.Fatal("the first RR section is empty")
	}
	data[off+length/2] ^= 0x40
	path := filepath.Join(t.TempDir(), "flipped.ovmidx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if flipped, err := serialize.OpenMapped(path); err == nil {
		flipped.Close()
		t.Fatal("a flipped byte inside an RR section was not detected")
	} else if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("flipped RR section: %v, want a checksum mismatch", err)
	}
}
