package service_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"log/slog"
	"strings"
	"testing"
	"time"

	"ovm/internal/serialize"
	"ovm/internal/service"
	"ovm/internal/walks"
)

// misindexedFile returns the v3 image of idx with the walk set's stored
// postings made to disagree with its walks: node 0's first posting (walk 0,
// where the walk starts at its owner 0) claims position 1 instead of 0. The
// section's and the table's CRCs are recomputed, so the file passes every
// checksum and only the load-time verification against the walks can
// catch it.
func misindexedFile(t *testing.T, idx *serialize.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := serialize.WriteIndexV3(&buf, idx, serialize.V3Options{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The table's last raw-bytes section (kind 4) is the last artifact's
	// postings payload: the walk set's, which the file stores after the
	// sketch set.
	numSections := int(binary.LittleEndian.Uint32(data[12:]))
	var entry []byte
	for i := range numSections {
		if e := data[24+i*24 : 24+(i+1)*24]; binary.LittleEndian.Uint32(e[16:]) == 4 {
			entry = e
		}
	}
	if entry == nil {
		t.Fatal("no postings payload in the file")
	}
	off, length := binary.LittleEndian.Uint64(entry[0:]), binary.LittleEndian.Uint64(entry[8:])
	payload := data[off : off+length]
	if payload[0] != 0 || payload[1] != 0 {
		t.Fatalf("node 0's first posting is (walk %d, pos %d), want (0, 0)", payload[0], payload[1])
	}
	payload[1] = 1
	binary.LittleEndian.PutUint32(entry[20:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(data[16:], crc32.ChecksumIEEE(data[24:24+numSections*24]))
	return data
}

// TestRejectedIndexIsLoggedAndCounted: a file whose walk-set postings pass
// their checksums but disagree with the walks loads — the index rebuilt from
// the walks — and answers byte-identically to the pristine file, while the
// rejection is logged once at warn, naming the artifact and the
// verification error, and counted once on the ring.
func TestRejectedIndexIsLoggedAndCounted(t *testing.T) {
	_, idx := testWorld(t)
	var pristine bytes.Buffer
	if err := serialize.WriteIndexV3(&pristine, idx, serialize.V3Options{}); err != nil {
		t.Fatal(err)
	}
	bad, err := serialize.ReadIndex(bytes.NewReader(misindexedFile(t, idx)))
	if err != nil {
		t.Fatalf("the misindexed file fails to read: %v", err)
	}
	a := bad.Walks[0]
	set, err := walks.FromSnapshot(bad.Sys.Candidate(a.Target).G, a.Set)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.AdoptIndex(a.Index); err == nil {
		t.Fatal("AdoptIndex accepted postings that disagree with the walks")
	}
	good, err := serialize.ReadIndex(bytes.NewReader(pristine.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	badSvc := service.New(service.Config{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	defer badSvc.Close()
	if err := badSvc.AddIndex("world", bad); err != nil {
		t.Fatalf("the misindexed file does not load: %v", err)
	}
	goodSvc := newTestService(t, good)

	for _, req := range []*service.SelectSeedsRequest{selectReq("RW", "cumulative", 0), selectReq("RS", "plurality", tdTheta)} {
		var answers [2][]byte
		for i, svc := range []*service.Service{goodSvc, badSvc} {
			resp, serr := svc.SelectSeeds(req)
			if serr != nil {
				t.Fatal(serr)
			}
			if !resp.FromIndex {
				t.Fatalf("%s: the artifact was not used", req.Method)
			}
			resp.ElapsedMs = 0
			if answers[i], err = json.Marshal(resp); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(answers[0], answers[1]) {
			t.Errorf("%s: answer over the rebuilt index\n%s\nwant the pristine file's\n%s", req.Method, answers[1], answers[0])
		}
	}

	var rejected []string
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, `msg="stored postings index rejected, rebuilding it"`) {
			rejected = append(rejected, line)
		}
	}
	if len(rejected) != 1 {
		t.Fatalf("%d rejection lines, want 1; log:\n%s", len(rejected), logs.String())
	}
	for _, want := range []string{"level=WARN", "dataset=world", "artifact=1", "error="} {
		if !strings.Contains(rejected[0], want) {
			t.Errorf("rejection line %q lacks %q", rejected[0], want)
		}
	}

	for svc, want := range map[*service.Service]float64{goodSvc: 0, badSvc: 1} {
		now := time.Now()
		svc.TimeSeries().Sample(now)
		pts := svc.TimeSeries().Window(0, now)
		if got, ok := pts[len(pts)-1].Values["ovmd_index_rebuilds_total"]; !ok || got != want {
			t.Errorf("ring ovmd_index_rebuilds_total = %v (present %v), want %v", got, ok, want)
		}
	}
}
