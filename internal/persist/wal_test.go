package persist_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ovm/internal/dynamic"
	"ovm/internal/iofault"
	"ovm/internal/persist"
)

func walBatch(v float64) dynamic.Batch {
	return dynamic.Batch{{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 1, Value: v}}
}

func TestWALAppendReopenPrune(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.ovmidx.wal")
	w, dropped, err := persist.OpenWAL(iofault.OS, path)
	if err != nil || dropped != 0 {
		t.Fatalf("open fresh: %v dropped=%d", err, dropped)
	}
	for e := int64(1); e <= 4; e++ {
		if err := w.Append(persist.WALEntry{Epoch: e, Batch: walBatch(float64(e) / 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Depth() != 4 {
		t.Fatalf("depth = %d, want 4", w.Depth())
	}
	// A gap in the promised epochs must be refused.
	if err := w.Append(persist.WALEntry{Epoch: 7, Batch: walBatch(0.7)}); err == nil {
		t.Fatal("append with an epoch gap succeeded")
	}

	// Reopen: same entries, same order.
	w2, dropped, err := persist.OpenWAL(iofault.OS, path)
	if err != nil || dropped != 0 {
		t.Fatalf("reopen: %v dropped=%d", err, dropped)
	}
	got := w2.Pending()
	if len(got) != 4 || got[0].Epoch != 1 || got[3].Epoch != 4 {
		t.Fatalf("reopened entries: %+v", got)
	}
	if got[2].Batch[0].Value != 0.3 {
		t.Fatalf("entry 3 batch roundtrip: %+v", got[2].Batch)
	}

	// Prune the applied prefix; remainder survives a reopen.
	if err := w2.Prune(2); err != nil {
		t.Fatal(err)
	}
	if w2.Depth() != 2 {
		t.Fatalf("depth after prune = %d, want 2", w2.Depth())
	}
	w3, _, err := persist.OpenWAL(iofault.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := w3.Pending(); len(got) != 2 || got[0].Epoch != 3 {
		t.Fatalf("entries after prune+reopen: %+v", got)
	}
	// Appending after a prune continues the sequence on the rewritten file.
	if err := w3.Append(persist.WALEntry{Epoch: 5, Batch: walBatch(0.5)}); err != nil {
		t.Fatal(err)
	}
	// Pruning everything removes the file; the next append recreates it.
	if err := w3.Prune(5); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("fully pruned wal still on disk (stat err %v)", err)
	}
	if err := w3.Append(persist.WALEntry{Epoch: 6, Batch: walBatch(0.6)}); err != nil {
		t.Fatal(err)
	}
	w4, _, err := persist.OpenWAL(iofault.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := w4.Pending(); len(got) != 1 || got[0].Epoch != 6 {
		t.Fatalf("entries after full prune + append: %+v", got)
	}
}

func TestWALTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.ovmidx.wal")
	w, _, err := persist.OpenWAL(iofault.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(1); e <= 2; e++ {
		if err := w.Append(persist.WALEntry{Epoch: e, Batch: walBatch(0.5)}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash mid-append: a partial line with no trailing newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"epoch":3,"ba`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, dropped, err := persist.OpenWAL(iofault.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 torn line", dropped)
	}
	if got := w2.Pending(); len(got) != 2 || got[1].Epoch != 2 {
		t.Fatalf("entries after torn tail: %+v", got)
	}
	// The un-acked epoch 3 slot is reusable after the drop, and the torn
	// bytes are gone from the file: left in place, this append would
	// complete them into a corrupt mid-file line.
	if err := w2.Append(persist.WALEntry{Epoch: 3, Batch: walBatch(0.9)}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(persist.WALEntry{Epoch: 4, Batch: walBatch(0.4)}); err != nil {
		t.Fatal(err)
	}
	w3, dropped, err := persist.OpenWAL(iofault.OS, path)
	if err != nil || dropped != 0 {
		t.Fatalf("reopen after appending past a torn tail: %v dropped=%d", err, dropped)
	}
	if got := w3.Pending(); len(got) != 4 || got[2].Batch[0].Value != 0.9 {
		t.Fatalf("entries after appending past a torn tail: %+v", got)
	}
}

// TestReadWALLeavesTornTail: the read-only parse (ovmd -dump-updates may
// run beside a live daemon) reports a torn tail without cutting it.
func TestReadWALLeavesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.ovmidx.wal")
	good := `{"epoch":1,"batch":[{"op":"set_opinion","candidate":0,"node":1,"value":0.5}]}` + "\n"
	if err := os.WriteFile(path, []byte(good+`{"epoch":2,"ba`), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, goodLen, torn, err := persist.ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !torn || goodLen != int64(len(good)) {
		t.Fatalf("ReadWAL = %d entries, good %d, torn %v; want 1, %d, true", len(entries), goodLen, torn, len(good))
	}
	if info, err := os.Stat(path); err != nil || info.Size() == goodLen {
		t.Fatalf("ReadWAL modified the file (size %d, err %v)", info.Size(), err)
	}
}

// TestWALClose: Close releases the descriptor Append holds between calls;
// the log stays usable and a later Append reopens the file.
func TestWALClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.ovmidx.wal")
	w, _, err := persist.OpenWAL(iofault.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close before any append: %v", err)
	}
	if w.Depth() != 0 {
		t.Fatalf("empty log depth = %d", w.Depth())
	}
	for e := int64(8); e <= 9; e++ {
		if err := w.Append(persist.WALEntry{Epoch: e, Batch: walBatch(0.5)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Pending(); len(got) != 2 || got[1].Epoch != 9 {
		t.Fatalf("pending after close/append cycles: %+v, want epochs 8 and 9", got)
	}
	if entries, _, torn, err := persist.ReadWAL(path); err != nil || torn || len(entries) != 2 {
		t.Fatalf("after close/append cycles: %d entries, torn %v, err %v", len(entries), torn, err)
	}
}

func TestWALMidFileCorruptionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.ovmidx.wal")
	good := `{"epoch":2,"batch":[{"op":"set_opinion","candidate":0,"node":1,"value":0.5}]}`
	if err := os.WriteFile(path, []byte("garbage\n"+good+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := persist.OpenWAL(iofault.OS, path); err == nil || !strings.Contains(err.Error(), "corrupt mid-file") {
		t.Fatalf("mid-file corruption not rejected: %v", err)
	}
	// An epoch gap between entries is corruption too.
	e1 := `{"epoch":1,"batch":[{"op":"set_opinion","candidate":0,"node":1,"value":0.5}]}`
	e3 := `{"epoch":3,"batch":[{"op":"set_opinion","candidate":0,"node":1,"value":0.5}]}`
	if err := os.WriteFile(path, []byte(e1+"\n"+e3+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := persist.OpenWAL(iofault.OS, path); err == nil || !strings.Contains(err.Error(), "consecutive") {
		t.Fatalf("epoch gap not rejected: %v", err)
	}
}

// TestWALPruneTempsSweepable: a prune rewrite uses the WAL path's temp
// pattern, so the startup CleanStaleTemps sweep covers crashed prunes.
func TestWALPruneTempsSweepable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.ovmidx.wal")
	stale := filepath.Join(dir, "idx.ovmidx.wal.tmp-123")
	if err := os.WriteFile(stale, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := persist.CleanStaleTemps(iofault.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != stale {
		t.Fatalf("sweep removed %v, want %v", removed, stale)
	}
}

// TestWALAppendFaultLeavesNoLine sweeps every file operation of a fresh
// log's first two appends with an error and a torn write: an append that
// fails leaves no byte of its line behind, and its epoch appends cleanly
// on the next try.
func TestWALAppendFaultLeavesNoLine(t *testing.T) {
	appendTwo := func(t *testing.T, fsys iofault.FS, path string) {
		t.Helper()
		w, _, err := persist.OpenWAL(fsys, path)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		for e := int64(1); e <= 2; e++ {
			if err := w.Append(persist.WALEntry{Epoch: e, Batch: walBatch(float64(e) / 10)}); err == nil {
				continue
			}
			if entries, _, torn, err := persist.ReadWAL(path); err != nil || torn || len(entries) != int(e-1) {
				t.Fatalf("after a failed append of epoch %d: %d entries, torn %v, err %v", e, len(entries), torn, err)
			}
			if err := w.Append(persist.WALEntry{Epoch: e, Batch: walBatch(float64(e) / 10)}); err != nil {
				t.Fatalf("retrying epoch %d: %v", e, err)
			}
		}
		if entries, _, torn, err := persist.ReadWAL(path); err != nil || torn || len(entries) != 2 || entries[1].Epoch != 2 {
			t.Fatalf("log after two appends: %+v, torn %v, err %v", entries, torn, err)
		}
	}
	rec := iofault.NewFaulty(iofault.OS)
	appendTwo(t, rec, filepath.Join(t.TempDir(), "idx.ovmidx.wal"))
	points := rec.Trace()
	if len(points) == 0 || points[0].Op != iofault.OpOpenAppend {
		t.Fatalf("append trace %v does not start by opening the log", points)
	}
	for _, p := range points {
		for _, act := range []iofault.Action{iofault.ActError, iofault.ActTornWrite} {
			t.Run(fmt.Sprintf("%s#%d/%s", p.Op, p.Occurrence, act), func(t *testing.T) {
				fsys := iofault.NewFaulty(iofault.OS)
				fsys.Inject(p.Op, p.Occurrence, act)
				appendTwo(t, fsys, filepath.Join(t.TempDir(), "idx.ovmidx.wal"))
			})
		}
	}
}
