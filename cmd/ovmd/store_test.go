package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ovm/internal/datasets"
	"ovm/internal/dynamic"
	"ovm/internal/iofault"
	"ovm/internal/persist"
	"ovm/internal/serialize"
	"ovm/internal/service"
)

const (
	testDataset = "world"
	testHorizon = 8
	testTheta   = 512
	testSeed    = int64(5)
)

// buildWorld builds the 120-node test index; each call returns a fresh
// one, so tests never share artifact storage.
func buildWorld(t testing.TB) *serialize.Index {
	t.Helper()
	d, err := datasets.YelpLike(datasets.Options{N: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := service.BuildIndex(d.Sys, service.BuildOptions{
		Target: 0, Horizon: testHorizon, Seed: testSeed,
		SketchTheta: testTheta, IncludeWalks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// writeWorld writes the test index, with updates as its legacy in-file log,
// to a new directory and returns the path.
func writeWorld(t testing.TB, updates []dynamic.Batch) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "world.ovmidx")
	idx := buildWorld(t)
	idx.Updates = updates
	if err := persist.WriteIndexAtomic(iofault.OS, path, idx); err != nil {
		t.Fatal(err)
	}
	return path
}

// mixedBatches is a stream of edge, stubbornness and opinion ops whose
// walk-touching ops hit only nodes 0, 1 and 2, which few walks visit: all
// six together invalidate a few percent of each walk set, so no overlay
// outgrows its share and a store checkpoints only when its log asks.
func mixedBatches() []dynamic.Batch {
	return []dynamic.Batch{
		{{Kind: dynamic.OpAddEdge, From: 0, To: 1, W: 0.8}, {Kind: dynamic.OpSetOpinion, Cand: 0, Node: 33, Value: 0.2}},
		{{Kind: dynamic.OpAddEdge, From: 15, To: 0, W: 1.2}, {Kind: dynamic.OpSetStubbornness, Cand: 0, Node: 2, Value: 0.15}},
		{{Kind: dynamic.OpSetWeight, From: 3, To: 2, W: 2}, {Kind: dynamic.OpSetOpinion, Cand: 0, Node: 33, Value: 0.95}},
		{{Kind: dynamic.OpAddEdge, From: 0, To: 2, W: 0.5}},
		{{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 7, Value: 0.4}, {Kind: dynamic.OpSetStubbornness, Cand: 0, Node: 0, Value: 0.3}},
		{{Kind: dynamic.OpRemoveEdge, From: 0, To: 2}, {Kind: dynamic.OpSetOpinion, Cand: 0, Node: 90, Value: 0.7}},
	}
}

func openTestStore(t testing.TB, fsys iofault.FS, path string, async bool, compact int) *store {
	t.Helper()
	st, err := openStore(fsys, service.Config{AsyncUpdates: async}, storeOpts{index: path, name: testDataset, compact: compact})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// kill ends a store the way a dying process does: its goroutines and its
// descriptor go, and nothing is written on the way out.
func kill(st *store) {
	st.svc.Close()
	// A checkpoint being installed only reads the file: letting it finish
	// changes nothing on disk, and nothing outlives the test.
	st.installs.Wait()
	_ = st.wal.Close()
}

func send(t testing.TB, svc *service.Service, batches []dynamic.Batch) {
	t.Helper()
	for i, b := range batches {
		if _, serr := svc.Update(&service.UpdateRequest{Dataset: testDataset, Ops: b}); serr != nil {
			t.Fatalf("batch %d: %v", i, serr)
		}
	}
}

func waitIdle(t testing.TB, svc *service.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := svc.WaitIdle(ctx, testDataset); serr != nil {
		t.Fatal(serr)
	}
}

// answers is what a client reads back: the RS, RW and IC selections as
// response bytes (seeds, exact value, epoch), without the elapsed time.
func answers(t testing.TB, svc *service.Service) string {
	t.Helper()
	var out bytes.Buffer
	for _, m := range []struct {
		method, score string
		theta         int
	}{{"RS", "plurality", testTheta}, {"RW", "cumulative", 0}, {"IC", "cumulative", 0}} {
		resp, serr := svc.SelectSeeds(&service.SelectSeedsRequest{
			Dataset: testDataset, Method: m.method, Score: service.ScoreSpec{Name: m.score},
			K: 6, Horizon: testHorizon, Target: 0, Seed: testSeed, Theta: m.theta,
		})
		if serr != nil {
			t.Fatal(serr)
		}
		resp.ElapsedMs, resp.Cached = 0, false
		if err := json.NewEncoder(&out).Encode(resp); err != nil {
			t.Fatal(err)
		}
	}
	return out.String()
}

// syncReplay is the reference: the batches applied one at a time, with no
// store, no log and no interruption.
func syncReplay(t testing.TB, batches []dynamic.Batch) string {
	t.Helper()
	svc := service.New(service.Config{})
	defer svc.Close()
	if err := svc.AddIndex(testDataset, buildWorld(t)); err != nil {
		t.Fatal(err)
	}
	send(t, svc, batches)
	return answers(t, svc)
}

func walEntries(t testing.TB, indexPath string) []persist.WALEntry {
	t.Helper()
	entries, _, _, err := persist.ReadWAL(indexPath + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func readIndexFile(t testing.TB, path string) *serialize.Index {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	idx, err := serialize.ReadIndex(f)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func staleTemps(t testing.TB, indexPath string) []string {
	t.Helper()
	temps, err := filepath.Glob(indexPath + "*.tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	return temps
}

// crashIn runs f and reports whether an injected iofault crash ended it.
func crashIn(f func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*iofault.Crash); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	f()
	return false
}

// fileBase is the epoch the index file at path is a checkpoint of.
func fileBase(t testing.TB, path string) int64 {
	t.Helper()
	idx := readIndexFile(t, path)
	if len(idx.Updates) != 0 {
		t.Fatalf("checkpoint carries %d logged batches, want none", len(idx.Updates))
	}
	return idx.BaseEpoch
}

// checkWAL asserts that the WAL continues the file's checkpoint at base up
// to epoch n, entry for entry, and reports whether it still holds entries
// the checkpoint covers.
func checkWAL(t testing.TB, path string, base, n int64) (covered bool) {
	t.Helper()
	next := base + 1
	for _, e := range walEntries(t, path) {
		if e.Epoch <= base {
			covered = true
			continue
		}
		if e.Epoch != next {
			t.Fatalf("WAL entry at epoch %d, want %d: it does not continue the checkpoint at %d", e.Epoch, next, base)
		}
		next++
	}
	if next != n+1 {
		t.Fatalf("WAL reaches epoch %d over a checkpoint at %d, want %d", next-1, base, n)
	}
	return covered
}

// TestCrashPoints kills the store at each point of a batch's life — logged,
// visible, mid-checkpoint, checkpointed but not yet pruned or mapped,
// gracefully stopped — and restarts it. Every batch was acknowledged before
// the kill, so every restart must reach the last promised epoch and answer
// with the bytes of an uninterrupted sync replay.
func TestCrashPoints(t *testing.T) {
	batches := mixedBatches()
	n := len(batches)
	want := syncReplay(t, batches)

	cases := []struct {
		name    string
		async   bool
		compact int
		// die drives the acknowledged batches' store to its death.
		die func(t *testing.T, st *store, fsys *iofault.Faulty)
		// Afterwards: is the index file still the one built (else it is a
		// checkpoint at epoch n), and how many entries does the WAL hold.
		indexUntouched bool
		walLeft        int
		tempsLeft      bool
	}{
		{
			name: "after accept", async: true, compact: 1024,
			die: func(t *testing.T, st *store, _ *iofault.Faulty) {
				kill(st) // whatever the applier had reached
			},
			indexUntouched: true, walLeft: n,
		},
		{
			name: "after swap, no checkpoint", async: true, compact: 1024,
			die: func(t *testing.T, st *store, _ *iofault.Faulty) {
				waitIdle(t, st.svc)
				kill(st)
			},
			indexUntouched: true, walLeft: n,
		},
		{
			name: "sync mode, after swap", async: false, compact: 1024,
			die: func(t *testing.T, st *store, _ *iofault.Faulty) {
				kill(st)
			},
			indexUntouched: true, walLeft: n,
		},
		{
			name: "during the checkpoint temp write", async: true, compact: 1024,
			die: func(t *testing.T, st *store, fsys *iofault.Faulty) {
				waitIdle(t, st.svc)
				fsys.Reset()
				fsys.Inject(iofault.OpWrite, 2, iofault.ActCrash)
				if !crashIn(st.Close) {
					t.Fatal("the checkpoint wrote no third block")
				}
				kill(st)
			},
			indexUntouched: true, walLeft: n, tempsLeft: true,
		},
		{
			name: "checkpoint renamed, WAL not pruned", async: true, compact: 1024,
			die: func(t *testing.T, st *store, fsys *iofault.Faulty) {
				waitIdle(t, st.svc)
				fsys.Reset()
				// The directory sync follows the rename inside the atomic
				// rewrite; the prune comes after it.
				fsys.Inject(iofault.OpSyncDir, 0, iofault.ActCrash)
				if !crashIn(st.Close) {
					t.Fatal("the checkpoint never synced its directory")
				}
				kill(st)
			},
			walLeft: n,
		},
		{
			// A graceful stop's checkpoint is never mapped: this is one taken
			// while serving, killed after the prune, before its file serves.
			name: "checkpoint renamed and pruned, not mapped", async: true, compact: 1024,
			die: func(t *testing.T, st *store, fsys *iofault.Faulty) {
				waitIdle(t, st.svc)
				fsys.Reset()
				fsys.Inject(iofault.OpMap, 0, iofault.ActCrash)
				if !crashIn(func() { st.checkpoint(service.CheckpointLog) }) {
					t.Fatal("the checkpoint never mapped its file")
				}
				kill(st)
			},
		},
		{
			name: "graceful stop", async: true, compact: 1024,
			die: func(t *testing.T, st *store, _ *iofault.Faulty) {
				waitIdle(t, st.svc)
				st.Close()
			},
		},
		{
			name: "graceful stop, -compact-log 0", async: true, compact: 0,
			die: func(t *testing.T, st *store, _ *iofault.Faulty) {
				waitIdle(t, st.svc)
				st.Close()
			},
			indexUntouched: true, walLeft: n,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeWorld(t, nil)
			built, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fsys := iofault.NewFaulty(iofault.OS)
			st := openTestStore(t, fsys, path, tc.async, tc.compact)
			send(t, st.svc, batches)
			tc.die(t, st, fsys)

			now, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if tc.indexUntouched != bytes.Equal(built, now) {
				t.Fatalf("index file untouched = %v, want %v", !tc.indexUntouched, tc.indexUntouched)
			}
			if !tc.indexUntouched {
				if base := fileBase(t, path); base != int64(n) {
					t.Fatalf("checkpoint is at epoch %d, want %d", base, n)
				}
			}
			if got := len(walEntries(t, path)); got != tc.walLeft {
				t.Fatalf("WAL holds %d entries after the kill, want %d", got, tc.walLeft)
			}
			if got := len(staleTemps(t, path)) > 0; got != tc.tempsLeft {
				t.Fatalf("stale temps left = %v, want %v", got, tc.tempsLeft)
			}

			fsys.Reset()
			re := openTestStore(t, fsys, path, tc.async, tc.compact)
			defer kill(re)
			if got := answers(t, re.svc); got != want {
				t.Fatalf("restart diverged from the uninterrupted sync replay:\n got %s\nwant %s", got, want)
			}
			if temps := staleTemps(t, path); len(temps) > 0 {
				t.Fatalf("restart left stale temps: %v", temps)
			}
			// Replaying the log must not log it again, in either mode.
			wantDepth := tc.walLeft
			if !tc.indexUntouched {
				wantDepth = 0 // the checkpoint covers every entry still in the file
			}
			if got := re.logDepth(); got != wantDepth {
				t.Fatalf("log depth after restart = %d, want %d", got, wantDepth)
			}
			if got := len(walEntries(t, path)); got != wantDepth {
				t.Fatalf("WAL holds %d entries after restart, want %d", got, wantDepth)
			}
		})
	}
}

// TestFailedCheckpointKeepsLogAndIndex: a checkpoint that cannot be written
// costs nothing but a retry — the update still becomes visible, the index
// file is the old one, the WAL is whole — and the next run past the
// threshold checkpoints and prunes.
func TestFailedCheckpointKeepsLogAndIndex(t *testing.T) {
	for _, mode := range []struct {
		name  string
		async bool
	}{{"async", true}, {"sync-updates", false}} {
		t.Run(mode.name, func(t *testing.T) { failedCheckpoint(t, mode.async) })
	}
}

func failedCheckpoint(t *testing.T, async bool) {
	batches := mixedBatches()
	path := writeWorld(t, nil)
	built, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fsys := iofault.NewFaulty(iofault.OS)
	st := openTestStore(t, fsys, path, async, 3)
	fsys.Reset()
	fsys.Inject(iofault.OpRename, 0, iofault.ActError)

	// One run per batch: the third brings the log to the threshold.
	for i := 0; i < 3; i++ {
		send(t, st.svc, batches[i:i+1])
		waitIdle(t, st.svc)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(built, now) {
		t.Fatalf("a failed checkpoint changed the index file (read err %v)", err)
	}
	if got := len(walEntries(t, path)); got != 3 {
		t.Fatalf("WAL holds %d entries after a failed checkpoint, want 3", got)
	}
	if temps := staleTemps(t, path); len(temps) > 0 {
		t.Fatalf("failed checkpoint left temps: %v", temps)
	}
	if stats := st.svc.StatsSnapshot(); stats.Checkpoints != 0 || stats.Datasets[0].Epoch != 3 {
		t.Fatalf("after the failed checkpoint: %d checkpoints at epoch %d, want 0 at 3", stats.Checkpoints, stats.Datasets[0].Epoch)
	}

	// The fourth run retries before its swap: the checkpoint is the visible
	// epoch 3, and batch 4 stays in the log on top of it.
	fsys.Reset()
	send(t, st.svc, batches[3:4])
	waitIdle(t, st.svc)
	if idx := readIndexFile(t, path); idx.BaseEpoch != 3 {
		t.Fatalf("retried checkpoint is at epoch %d, want 3", idx.BaseEpoch)
	}
	if got := walEntries(t, path); len(got) != 1 || got[0].Epoch != 4 {
		t.Fatalf("WAL after the retried checkpoint: %+v, want epoch 4 alone", got)
	}
	var metrics bytes.Buffer
	if err := st.svc.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{`ovmd_checkpoints_total{reason="log"} 1` + "\n", `ovmd_stage_duration_seconds_count{stage="checkpoint"} 1` + "\n"} {
		if !strings.Contains(metrics.String(), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	send(t, st.svc, batches[4:])
	waitIdle(t, st.svc)
	kill(st)

	re := openTestStore(t, iofault.OS, path, async, 3)
	defer kill(re)
	if got, want := answers(t, re.svc), syncReplay(t, batches); got != want {
		t.Fatalf("restart diverged from the uninterrupted sync replay:\n got %s\nwant %s", got, want)
	}
}

// TestReplayRegroupsBatches: the live run repairs each batch on its own
// (the writer waits for every epoch), the restart finds them all queued and
// lets the coalescer group them as it likes. Epoch and bytes must not
// depend on the grouping.
func TestReplayRegroupsBatches(t *testing.T) {
	// The benchmark's paced mix: every batch touches the same edge column,
	// so nothing merges on replay either.
	var paced []dynamic.Batch
	for i := 0; i < 6; i++ {
		edge := dynamic.Op{Kind: []dynamic.OpKind{dynamic.OpAddEdge, dynamic.OpSetWeight, dynamic.OpRemoveEdge}[i%3], From: 70, To: 80}
		if edge.Kind != dynamic.OpRemoveEdge {
			edge.W = 0.5 + float64(i)
		}
		paced = append(paced, dynamic.Batch{
			{Kind: dynamic.OpSetOpinion, Cand: 0, Node: int32(10 + i), Value: 0.1 * float64(i+1)},
			{Kind: dynamic.OpSetStubbornness, Cand: 0, Node: int32(20 + i), Value: 0.05 * float64(i+1)},
			edge,
		})
	}
	// A one-op burst: no edges at all, so the replay is one super-batch.
	var burst []dynamic.Batch
	for i := 0; i < 12; i++ {
		burst = append(burst, dynamic.Batch{{Kind: dynamic.OpSetOpinion, Cand: 0, Node: int32(i % 5), Value: float64(i+1) / 20}})
	}
	// Two adds that overflow the column sum pass validation and fail the
	// repair: the batch holds its epoch as a no-op. On replay it sits inside
	// a super-batch that fails with it and is taken apart again.
	poisoned := mixedBatches()
	poisoned[2] = dynamic.Batch{
		{Kind: dynamic.OpAddEdge, From: 30, To: 31, W: math.MaxFloat64},
		{Kind: dynamic.OpAddEdge, From: 30, To: 31, W: math.MaxFloat64},
	}

	for _, tc := range []struct {
		name    string
		batches []dynamic.Batch
		applied []dynamic.Batch // what a sync replay can apply; nil = all
		failed  int64           // batches the repair refuses, live and again on replay
	}{
		{name: "paced mix on one edge", batches: paced},
		{name: "one-op burst", batches: burst},
		{name: "a batch that fails to apply", batches: poisoned,
			applied: append(append([]dynamic.Batch(nil), poisoned[:2]...), poisoned[3:]...), failed: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// No checkpoints: the restart replays every batch from the WAL.
			path := writeWorld(t, nil)
			st := openTestStore(t, iofault.OS, path, true, 0)
			for i := range tc.batches {
				send(t, st.svc, tc.batches[i:i+1])
				waitIdle(t, st.svc)
			}
			live := answers(t, st.svc)
			if got := st.svc.StatsSnapshot().Errors; got != tc.failed {
				t.Fatalf("live run refused %d batches, want %d", got, tc.failed)
			}
			kill(st)

			re := openTestStore(t, iofault.OS, path, true, 0)
			defer kill(re)
			replayed := answers(t, re.svc)
			if replayed != live {
				t.Fatalf("replay diverged from the live run:\n got %s\nwant %s", replayed, live)
			}
			stats := re.svc.StatsSnapshot()
			if epoch := stats.Datasets[0].Epoch; epoch != int64(len(tc.batches)) {
				t.Fatalf("replayed to epoch %d, want %d: one epoch per accepted batch", epoch, len(tc.batches))
			}
			if stats.Errors != tc.failed {
				t.Fatalf("replay refused %d batches, want %d", stats.Errors, tc.failed)
			}
			if tc.applied == nil {
				if want := syncReplay(t, tc.batches); replayed != want {
					t.Fatalf("replay diverged from the sync replay:\n got %s\nwant %s", replayed, want)
				}
				return
			}
			// The sync reference skips the failed batch and so sits one
			// epoch lower; everything else must agree.
			want := syncReplay(t, tc.applied)
			from, to := epochField(len(tc.applied)), epochField(len(tc.batches))
			if want = strings.ReplaceAll(want, from, to); replayed != want {
				t.Fatalf("replay diverged from the sync replay without the failed batch:\n got %s\nwant %s", replayed, want)
			}
		})
	}
}

func epochField(epoch int) string {
	b, _ := json.Marshal(struct {
		Epoch int `json:"epoch"`
	}{epoch})
	return string(b[1 : len(b)-1])
}

// TestLegacyInIndexLogStillLoads: a file written by an earlier daemon
// carries applied batches in its own log section, with the batches after
// them in the WAL — or none there at all. Both replay, both count as log
// depth, and a graceful stop checkpoints them into one base.
func TestLegacyInIndexLogStillLoads(t *testing.T) {
	batches := mixedBatches()
	for _, tc := range []struct {
		name string
		wal  bool // epochs 1..6 in the WAL, else none
	}{{"with a WAL", true}, {"without a WAL", false}} {
		t.Run(tc.name, func(t *testing.T) {
			logged := batches[:2]
			if tc.wal {
				logged = batches
			}
			n := len(logged)
			path := writeWorld(t, batches[:2])
			if tc.wal {
				wal, _, err := persist.OpenWAL(iofault.OS, path+".wal")
				if err != nil {
					t.Fatal(err)
				}
				// Epochs 1 and 2 are duplicates of the in-file log, as a
				// crash between the old daemon's rewrite and its prune left
				// them.
				for i, b := range batches {
					if err := wal.Append(persist.WALEntry{Epoch: int64(i + 1), Batch: b}); err != nil {
						t.Fatal(err)
					}
				}
				if err := wal.Close(); err != nil {
					t.Fatal(err)
				}
			}

			want := syncReplay(t, logged)
			st := openTestStore(t, iofault.OS, path, true, 1024)
			if got := answers(t, st.svc); got != want {
				t.Fatalf("legacy log + WAL diverged from the sync replay:\n got %s\nwant %s", got, want)
			}
			if got := st.logDepth(); got != n {
				t.Fatalf("log depth = %d, want %d (2 in the file, %d in the WAL)", got, n, n-2)
			}
			st.Close()
			if idx := readIndexFile(t, path); idx.BaseEpoch != int64(n) || len(idx.Updates) != 0 {
				t.Fatalf("checkpoint is at epoch %d with %d logged batches, want %d and 0", idx.BaseEpoch, len(idx.Updates), n)
			}
			if _, err := os.Stat(path + ".wal"); !os.IsNotExist(err) {
				t.Fatalf("WAL survived the graceful stop (stat err %v)", err)
			}
		})
	}
}

// TestUnreconcilableWALIsQuarantined: a WAL that does not continue the
// checkpoint's epoch holds acknowledged batches that exist nowhere else.
// It is moved aside whole, never pruned away.
func TestUnreconcilableWALIsQuarantined(t *testing.T) {
	path := writeWorld(t, nil)
	wal, _, err := persist.OpenWAL(iofault.OS, path+".wal")
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(5); e <= 6; e++ {
		if err := wal.Append(persist.WALEntry{Epoch: e, Batch: mixedBatches()[0]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	orphaned, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}

	st := openTestStore(t, iofault.OS, path, true, 1024)
	defer kill(st)
	kept, err := os.ReadFile(path + ".wal.corrupt")
	if err != nil || !bytes.Equal(kept, orphaned) {
		t.Fatalf("quarantined WAL differs from the orphaned one (read err %v)", err)
	}
	if st.logDepth() != 0 {
		t.Fatalf("log depth = %d after the quarantine, want an empty log", st.logDepth())
	}
	if epoch := st.svc.StatsSnapshot().Datasets[0].Epoch; epoch != 0 {
		t.Fatalf("serving epoch %d, want the checkpoint's 0", epoch)
	}
	// The fresh log takes the next batch at the checkpoint's epoch + 1.
	send(t, st.svc, mixedBatches()[:1])
	waitIdle(t, st.svc)
	if got := walEntries(t, path); len(got) != 1 || got[0].Epoch != 1 {
		t.Fatalf("fresh WAL after the quarantine: %+v, want epoch 1 alone", got)
	}
}

// TestUnreadableIndexIsQuarantined: a torn or bit-flipped checkpoint is
// moved aside whole to <path>.corrupt and the store reports errQuarantined,
// on which the daemon starts degraded instead of crash-looping.
func TestUnreadableIndexIsQuarantined(t *testing.T) {
	pristine, err := os.ReadFile(writeWorld(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(pristine)
	flipped[len(flipped)/2] ^= 0x40
	for name, damaged := range map[string][]byte{
		"torn":     pristine[:len(pristine)/2],
		"crc":      flipped,
		"no magic": []byte("not an index at all"),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "world.ovmidx")
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := openStore(iofault.OS, service.Config{}, storeOpts{index: path, name: testDataset})
			if !errors.Is(err, errQuarantined) {
				t.Fatalf("openStore: %v, want errQuarantined", err)
			}
			if kept, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(kept, damaged) {
				t.Fatalf("quarantined file differs from the damaged one (read err %v)", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("damaged index still in place (stat err %v)", err)
			}
		})
	}
}

// TestUnsupportedVersionIsNotCorruption: an intact file of another format
// version — the retired v1/v2, or one from a newer daemon — is one this
// build cannot serve, not a damaged one. Startup fails with the remedy and
// neither the file nor its WAL is touched.
func TestUnsupportedVersionIsNotCorruption(t *testing.T) {
	for _, version := range []uint32{1, 2, 99} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "world.ovmidx")
			// A hand-assembled header, then what a v1 stream began with: the
			// graph's node and edge counts.
			file := binary.LittleEndian.AppendUint32([]byte("OVMIDX"), version)
			file = binary.LittleEndian.AppendUint32(file, 120)
			file = binary.LittleEndian.AppendUint64(file, 700)
			wal := []byte(`{"epoch":1,"batch":[{"op":"add_edge","from":3,"to":11,"w":0.8}]}` + "\n")
			for name, content := range map[string][]byte{path: file, path + ".wal": wal} {
				if err := os.WriteFile(name, content, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, err := openStore(iofault.OS, service.Config{}, storeOpts{index: path, name: testDataset})
			if !errors.Is(err, serialize.ErrUnsupportedVersion) || errors.Is(err, errQuarantined) {
				t.Fatalf("openStore: %v, want ErrUnsupportedVersion and no quarantine", err)
			}
			for _, want := range []string{fmt.Sprintf("format version %d", version), "-build-index"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not say %q", err, want)
				}
			}
			for name, content := range map[string][]byte{path: file, path + ".wal": wal} {
				if got, err := os.ReadFile(name); err != nil || !bytes.Equal(got, content) {
					t.Errorf("%s changed on disk (read err %v)", name, err)
				}
			}
			if moved, _ := filepath.Glob(path + "*.corrupt"); len(moved) != 0 {
				t.Errorf("quarantined %v, want nothing moved", moved)
			}
		})
	}
}

// churnBatches is the benchmark's paced writer in miniature: two
// set_opinion ops, one set_stubbornness and an edge op that cycles
// add_edge, set_weight and remove_edge over the edge it added.
func churnBatches(seed int64, n, count int) []dynamic.Batch {
	r := rand.New(rand.NewSource(seed))
	vec := func(kind dynamic.OpKind) dynamic.Op {
		return dynamic.Op{Kind: kind, Cand: r.Intn(2), Node: int32(r.Intn(n)), Value: r.Float64()}
	}
	var edge [2]int32
	out := make([]dynamic.Batch, count)
	for i := range out {
		b := dynamic.Batch{vec(dynamic.OpSetOpinion), vec(dynamic.OpSetOpinion), vec(dynamic.OpSetStubbornness)}
		switch i % 3 {
		case 0:
			from, to := int32(r.Intn(n)), int32(r.Intn(n-1))
			if to >= from {
				to++
			}
			edge = [2]int32{from, to}
			b = append(b, dynamic.Op{Kind: dynamic.OpAddEdge, From: from, To: to, W: 0.1 + r.Float64()})
		case 1:
			b = append(b, dynamic.Op{Kind: dynamic.OpSetWeight, From: edge[0], To: edge[1], W: 0.1 + r.Float64()})
		case 2:
			b = append(b, dynamic.Op{Kind: dynamic.OpRemoveEdge, From: edge[0], To: edge[1]})
		}
		out[i] = b
	}
	return out
}

// checkpointsBy reads ovmd_checkpoints_total by reason off /metrics.
func checkpointsBy(t testing.TB, svc *service.Service) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := svc.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int)
	for _, line := range strings.Split(buf.String(), "\n") {
		var reason string
		var n int
		if _, err := fmt.Sscanf(line, `ovmd_checkpoints_total{reason=%q} %d`, &reason, &n); err == nil {
			out[reason] = n
		}
	}
	return out
}

// TestCheckpointedStoreAnswersLikeHeapFold: a store whose walk sets fold
// only by checkpoint — every 8 batches, or sooner when an overlay outgrows
// its share (on this small world, most batches), each time rebasing onto
// the file it wrote — and one that never checkpoints and folds on the heap
// answer every byte alike, before and after 64 churn batches, and again
// after a restart.
func TestCheckpointedStoreAnswersLikeHeapFold(t *testing.T) {
	batches := churnBatches(7, 120, 64)
	stores := map[int]*store{}
	for _, compact := range []int{8, 0} {
		stores[compact] = openTestStore(t, iofault.OS, writeWorld(t, nil), true, compact)
	}
	if a, b := answers(t, stores[8].svc), answers(t, stores[0].svc); a != b {
		t.Fatalf("before the batches:\n-compact-log 8 %s\n-compact-log 0 %s", a, b)
	}
	for i := range batches {
		for _, st := range stores {
			send(t, st.svc, batches[i:i+1])
			waitIdle(t, st.svc)
		}
	}
	want := answers(t, stores[0].svc)
	if got := answers(t, stores[8].svc); got != want {
		t.Fatalf("after 64 batches:\n-compact-log 8 %s\n-compact-log 0 %s", got, want)
	}
	if by := checkpointsBy(t, stores[8].svc); by["overlay"] == 0 {
		t.Fatalf("checkpoints by reason %v: no outgrown overlay asked for one", by)
	}
	if by := checkpointsBy(t, stores[0].svc); by["log"]+by["overlay"] != 0 {
		t.Fatalf("-compact-log 0 checkpointed: %v", by)
	}
	path := stores[8].opts.index
	kill(stores[8])
	kill(stores[0])
	re := openTestStore(t, iofault.OS, path, true, 8)
	defer kill(re)
	if got := answers(t, re.svc); got != want {
		t.Fatalf("after a restart:\n got %s\nwant %s", got, want)
	}
}

// TestRemapFailureKeepsPreviousBase: when the file a checkpoint wrote cannot
// be mapped, the dataset keeps serving the base it had — no version is
// built on both files — and answers as before; the checkpoint still stands
// on disk, the WAL is pruned behind it, and a restart maps it.
func TestRemapFailureKeepsPreviousBase(t *testing.T) {
	batches := mixedBatches()
	n := int64(len(batches))
	path := writeWorld(t, nil)
	fsys := iofault.NewFaulty(iofault.OS)
	st := openTestStore(t, fsys, path, true, 2)
	for i := range 64 {
		fsys.Inject(iofault.OpMap, i, iofault.ActError)
	}
	for i := range batches {
		send(t, st.svc, batches[i:i+1])
		waitIdle(t, st.svc)
		if got, want := answers(t, st.svc), syncReplay(t, batches[:i+1]); got != want {
			t.Fatalf("batch %d: answers diverged:\n got %s\nwant %s", i, got, want)
		}
	}
	var mapFailures int
	for _, p := range fsys.Trace() {
		if p.Op == iofault.OpMap {
			mapFailures++
		}
	}
	base := fileBase(t, path)
	if mapFailures == 0 || base == 0 {
		t.Fatalf("%d remaps failed, the file is at epoch %d: no checkpoint was written and refused", mapFailures, base)
	}
	if checkWAL(t, path, base, n) {
		t.Fatal("the WAL was not pruned behind the unmapped checkpoint")
	}
	var metrics bytes.Buffer
	if err := st.svc.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics.String(), "\novmd_index_mappings_open 1\n") {
		t.Fatal("a refused checkpoint left a second mapping open")
	}
	want := answers(t, st.svc)
	kill(st)
	re := openTestStore(t, iofault.OS, path, true, 2)
	defer kill(re)
	if got := answers(t, re.svc); got != want {
		t.Fatalf("restart on the unmapped checkpoint diverged:\n got %s\nwant %s", got, want)
	}
}

// TestFailingCheckpointsKeepHeapBounded: when every checkpoint fails — its
// rename, or the map of the file it wrote — the dataset folds outgrown
// overlays on the heap again and never holds more heap or index bytes
// than a store without checkpoints, instead of growing its overlays toward
// the whole set; and it retries only when its log asks, not on every batch its
// overlay stays outgrown. A failed rename leaves the WAL whole, so from the
// log bound on every batch retries, as before overlays checkpointed; a
// failed map comes after the prune, so the log asks once per -compact-log
// batches.
func TestFailingCheckpointsKeepHeapBounded(t *testing.T) {
	const compact = 8
	batches := churnBatches(11, 120, 64)
	for _, tc := range []struct {
		op          iofault.Op
		maxAttempts int
	}{
		{iofault.OpRename, len(batches) - compact + 2},
		{iofault.OpMap, len(batches)/compact + 2},
	} {
		t.Run(string(tc.op), func(t *testing.T) {
			fsys := iofault.NewFaulty(iofault.OS)
			st := openTestStore(t, fsys, writeWorld(t, nil), true, compact)
			defer kill(st)
			ref := openTestStore(t, iofault.OS, writeWorld(t, nil), true, 0)
			defer kill(ref)
			fsys.Reset()
			for i := range len(batches) {
				fsys.Inject(tc.op, i, iofault.ActError)
			}
			for i := range batches {
				for _, s := range []*store{st, ref} {
					send(t, s.svc, batches[i:i+1])
					waitIdle(t, s.svc)
				}
				// Heap and mapped bytes alike: an overlay that outgrew its
				// share sits on the heap beside the whole mapped base.
				got, want := st.svc.StatsSnapshot().Datasets[0], ref.svc.StatsSnapshot().Datasets[0]
				if got.HeapBytes > want.HeapBytes || got.IndexBytes > want.IndexBytes {
					t.Fatalf("batch %d: %d heap of %d index bytes, a store without checkpoints holds %d of %d",
						i, got.HeapBytes, got.IndexBytes, want.HeapBytes, want.IndexBytes)
				}
			}
			if got, want := answers(t, st.svc), answers(t, ref.svc); got != want {
				t.Fatalf("answers diverged from the heap-fold store:\n got %s\nwant %s", got, want)
			}
			attempts := 0
			for _, p := range fsys.Trace() {
				if p.Op == tc.op {
					attempts++
				}
			}
			if attempts == 0 || attempts > tc.maxAttempts {
				t.Fatalf("%d checkpoints tried over %d batches at -compact-log %d, want 1 to %d", attempts, len(batches), compact, tc.maxAttempts)
			}
		})
	}
}
