package service_test

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ovm/internal/datasets"
	"ovm/internal/dynamic"
	"ovm/internal/iofault"
	"ovm/internal/persist"
	"ovm/internal/postings"
	"ovm/internal/serialize"
	"ovm/internal/service"
	"ovm/internal/walks"
)

// fileWorld writes an index with both walk artifacts, an RS sketch set and
// RW's walk set, over a sparse 2 000-node graph, where churn batches leave
// overlays partial for many batches. It returns the built index and the
// file's path.
func fileWorld(t *testing.T) (*serialize.Index, string) {
	t.Helper()
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := service.BuildIndex(d.Sys, service.BuildOptions{Horizon: tdHorizon, Seed: tdSeed, SketchTheta: 2048, IncludeWalks: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.ovmidx")
	if err := persist.WriteIndexAtomic(iofault.OS, path, idx); err != nil {
		t.Fatal(err)
	}
	return idx, path
}

// filed is a service serving an index file the way ovmd does with
// checkpoints on: the file registered with AddMapped, a checkpoint — export
// and atomic rewrite — before every every-th update's swap, and install —
// map and Rebase — once that update is done.
type filed struct {
	svc     *service.Service
	path    string
	every   int
	updates int
	// exported, when set, sees each export before it is written.
	exported func(*serialize.Index)
}

func openFiled(t *testing.T, path string, every int) *filed {
	t.Helper()
	f := &filed{path: path, every: every}
	f.svc = service.New(service.Config{OnUpdate: func(string, []dynamic.Batch, int64) error {
		f.updates++
		if f.every > 0 && f.updates%f.every == 0 {
			return f.write()
		}
		return nil
	}})
	t.Cleanup(f.svc.Close)
	mi, err := serialize.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.svc.AddMapped("world", mi, true); err != nil {
		t.Fatal(err)
	}
	return f
}

// write exports the visible version and rewrites the file as it.
func (f *filed) write() error {
	idx, serr := f.svc.ExportIndex("world")
	if serr != nil {
		return serr
	}
	if f.exported != nil {
		f.exported(idx)
	}
	return persist.WriteIndexAtomic(iofault.OS, f.path, idx)
}

// install maps the file written last and makes it the dataset's base.
func (f *filed) install() error {
	mi, err := serialize.OpenMapped(f.path)
	if err != nil {
		return err
	}
	return f.svc.Rebase("world", mi)
}

// checkpoint writes and installs a checkpoint while no update runs.
func (f *filed) checkpoint() error {
	if err := f.write(); err != nil {
		return err
	}
	return f.install()
}

// rawPostings is a postings index snapshot as raw CSR arrays, whichever
// backing it has.
func rawPostings(is *walks.IndexSnapshot) postings.CSR {
	if is.Compact != nil {
		return is.Compact.ToCSR()
	}
	return postings.CSR{Off: is.Off, Item: is.Walk, Pos: is.Pos}
}

// sameWalks reports whether two sets store the same walks and postings.
func sameWalks(a, b *walks.Set) bool {
	sa, err := a.Snapshot()
	if err != nil {
		return false
	}
	sb, err := b.Snapshot()
	if err != nil {
		return false
	}
	sa.Mapped, sb.Mapped = false, false
	return reflect.DeepEqual(sa, sb) && reflect.DeepEqual(rawPostings(a.IndexSnapshot()), rawPostings(b.IndexSnapshot()))
}

// TestCheckpointIsTheLiveSets is the oracle of the streaming checkpoint and
// the rebase behind it. At every checkpoint of 64 churn batches:
//   - the file's walk arrays and postings equal each live set's Snapshot and
//     IndexSnapshot as they were exported, base + overlay folded by the
//     reference path;
//   - the version Rebase moves onto the file holds what a fresh load of the
//     file repaired by the same batches holds, and the same as a heap
//     service that never checkpointed, which it answers like;
//   - the dataset's heap falls: only those batches' overlay is left on it.
func TestCheckpointIsTheLiveSets(t *testing.T) {
	idx, path := fileWorld(t)
	f := openFiled(t, path, 8)
	heap := newTestService(t, idx)
	var checked int
	f.exported = func(exp *serialize.Index) {
		live := f.svc.WalkSets("world")
		var snaps []*walks.Snapshot
		var posts []postings.CSR
		for _, set := range live {
			s, err := set.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, s)
			posts = append(posts, rawPostings(set.IndexSnapshot()))
		}
		var buf bytes.Buffer
		if err := serialize.WriteIndexV3(&buf, exp, serialize.V3Options{}); err != nil {
			t.Fatal(err)
		}
		got, err := serialize.ReadIndex(&buf)
		if err != nil {
			t.Fatal(err)
		}
		stored := []struct {
			set *walks.Snapshot
			idx *walks.IndexSnapshot
		}{{got.Sketches[0].Set, got.Sketches[0].Index}, {got.Walks[0].Set, got.Walks[0].Index}}
		for i, a := range stored {
			a.set.Mapped, snaps[i].Mapped = false, false
			if !reflect.DeepEqual(a.set, snaps[i]) {
				t.Fatalf("checkpoint at epoch %d: artifact %d's walk arrays differ from the live set's Snapshot", exp.BaseEpoch, i)
			}
			if !reflect.DeepEqual(rawPostings(a.idx), posts[i]) {
				t.Fatalf("checkpoint at epoch %d: artifact %d's postings differ from the live set's IndexSnapshot", exp.BaseEpoch, i)
			}
		}
		checked++
	}
	batches := churnBatches(11, idx.Sys.N(), 64)
	// A checkpoint is written before its batch's swap and installed after
	// the next batch, so Rebase moves two batches onto the file; the last
	// one is installed at once.
	for i, b := range batches {
		for _, svc := range []*service.Service{f.svc, heap} {
			if _, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: b}); serr != nil {
				t.Fatalf("batch %d: %v", i, serr)
			}
		}
		if !(i > 0 && i%8 == 0 || i == len(batches)-1) {
			continue
		}
		before := f.svc.StatsSnapshot().Datasets[0].HeapBytes
		if err := f.install(); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		file, err := serialize.OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		base, want := int(file.Index.BaseEpoch), i-1
		if i == len(batches)-1 {
			want = i
		}
		if base != want {
			t.Fatalf("batch %d: checkpoint at epoch %d, want %d", i, base, want)
		}
		restored := newTestService(t, file.Index)
		for _, b := range batches[base : i+1] {
			if _, serr := restored.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: b}); serr != nil {
				t.Fatal(serr)
			}
		}
		for a, set := range f.svc.WalkSets("world") {
			if !sameWalks(set, restored.WalkSets("world")[a]) {
				t.Fatalf("batch %d: artifact %d is not the checkpoint plus the batches after it", i, a)
			}
		}
		restored.Close()
		file.Close()
		if after := f.svc.StatsSnapshot().Datasets[0].HeapBytes; after >= before {
			t.Fatalf("batch %d: heap %d bytes after the install, %d before", i, after, before)
		}
		for a, set := range f.svc.WalkSets("world") {
			if !sameWalks(set, heap.WalkSets("world")[a]) {
				t.Fatalf("batch %d: artifact %d differs from the heap service's", i, a)
			}
		}
	}
	if checked != 8 {
		t.Fatalf("%d checkpoints checked, want 8", checked)
	}
	for _, req := range []*service.SelectSeedsRequest{selectReq("RS", "plurality", 2048), selectReq("RW", "cumulative", 0)} {
		a, serr := f.svc.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		b, serr := heap.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		if !reflect.DeepEqual(a.Seeds, b.Seeds) || a.ExactValue != b.ExactValue || !a.FromIndex {
			t.Fatalf("%s: checkpointed service answered %v (%v), heap service %v (%v)", req.Method, a.Seeds, a.ExactValue, b.Seeds, b.ExactValue)
		}
	}
}

// mappingsOpen reads the ovmd_index_mappings_open gauge off /metrics.
func mappingsOpen(t *testing.T, svc *service.Service) string {
	t.Helper()
	var buf bytes.Buffer
	if err := svc.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "ovmd_index_mappings_open "); ok {
			return v
		}
	}
	t.Fatal("/metrics has no ovmd_index_mappings_open")
	return ""
}

// TestOldMappingClosesAfterItsQueries: a checkpoint taken while a query
// computes on the previous file leaves that mapping open until the query
// is done, and closes it then — a reference count, not the garbage
// collector's say.
func TestOldMappingClosesAfterItsQueries(t *testing.T) {
	_, path := fileWorld(t)
	f := &filed{path: path}
	entered, release := make(chan struct{}), make(chan struct{})
	cfg := service.Config{}
	cfg.SetComputeContext(func(ctx context.Context) context.Context {
		entered <- struct{}{}
		<-release
		return ctx
	})
	f.svc = service.New(cfg)
	defer f.svc.Close()
	mi, err := serialize.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.svc.AddMapped("world", mi, true); err != nil {
		t.Fatal(err)
	}
	if got := mappingsOpen(t, f.svc); got != "1" {
		t.Fatalf("%s mappings open after load, want 1", got)
	}
	done := make(chan *service.Error)
	go func() {
		_, serr := f.svc.SelectSeeds(selectReq("RS", "plurality", 2048))
		done <- serr
	}()
	<-entered
	if err := f.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := mappingsOpen(t, f.svc); got != "2" {
		t.Fatalf("%s mappings open while a query holds the old epoch, want 2", got)
	}
	close(release)
	if serr := <-done; serr != nil {
		t.Fatal(serr)
	}
	if got := mappingsOpen(t, f.svc); got != "1" {
		t.Fatalf("%s mappings open once the query finished, want 1", got)
	}
}

// TestCheckpointAllocatesOnlyPostings: writing an overlaid set streams its
// walks from base and overlay and encodes its postings as it goes, so the
// write allocates the compact postings it stores and little else — not the
// flat walk copy, raw postings index and re-encoding a fold would.
func TestCheckpointAllocatesOnlyPostings(t *testing.T) {
	idx, path := fileWorld(t)
	f := openFiled(t, path, 0)
	for i, b := range churnBatches(5, idx.Sys.N(), 24) {
		if _, serr := f.svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: b}); serr != nil {
			t.Fatalf("batch %d: %v", i, serr)
		}
	}
	if heap := f.svc.StatsSnapshot().Datasets[0].HeapBytes; heap == 0 {
		t.Fatal("no overlay to stream")
	}
	exp, serr := f.svc.ExportIndex("world")
	if serr != nil {
		t.Fatal(serr)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := serialize.WriteIndexV3(io.Discard, exp, serialize.V3Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := int64(after.TotalAlloc - before.TotalAlloc)

	var buf bytes.Buffer
	if err := serialize.WriteIndexV3(&buf, exp, serialize.V3Options{}); err != nil {
		t.Fatal(err)
	}
	got, err := serialize.ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var compact, walkBytes int64
	for _, is := range []*walks.IndexSnapshot{got.Sketches[0].Index, got.Walks[0].Index} {
		compact += is.Compact.Bytes()
	}
	for _, s := range []*walks.Snapshot{got.Sketches[0].Set, got.Walks[0].Set} {
		walkBytes += 4 * int64(len(s.Nodes)+len(s.Off))
	}
	if bound := compact + 1<<20; allocated >= bound {
		t.Fatalf("checkpoint allocated %d bytes, want < %d (compact postings %d + 1 MB)", allocated, bound, compact)
	}
	t.Logf("checkpoint allocated %d bytes: compact postings %d, walk arrays %d streamed", allocated, compact, walkBytes)
}

// TestFailedCheckpointFoldsOnTheHeap: once a checkpoint fails the dataset
// folds outgrown overlays on the heap, and a checkpoint exported before
// such a fold still installs: the folded set keeps the walks it owns, the
// others move onto the file, every set equals a heap service's, and the
// new file's repairs keep overlays again.
func TestFailedCheckpointFoldsOnTheHeap(t *testing.T) {
	idx, path := fileWorld(t)
	f := openFiled(t, path, 0)
	heap := newTestService(t, idx)
	batches := churnBatches(13, idx.Sys.N(), 128)
	apply := func(i int) {
		t.Helper()
		for _, svc := range []*service.Service{f.svc, heap} {
			if _, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: batches[i]}); serr != nil {
				t.Fatalf("batch %d: %v", i, serr)
			}
		}
	}
	mapped := func() int64 { return f.svc.StatsSnapshot().Datasets[0].MappedBytes }
	i := 0
	apply(i)
	f.svc.CheckpointFailed("world", 1)
	if err := f.write(); err != nil {
		t.Fatal(err)
	}
	// Until a set folds, its base is the mapped file.
	for start := mapped(); mapped() == start; {
		if i++; i == len(batches) {
			t.Fatal("no walk set folded after the failed checkpoint")
		}
		apply(i)
	}
	if err := f.install(); err != nil {
		t.Fatal(err)
	}
	for a, set := range f.svc.WalkSets("world") {
		if !sameWalks(set, heap.WalkSets("world")[a]) {
			t.Fatalf("after the install: artifact %d differs from the heap service's", a)
		}
	}
	if got := mappingsOpen(t, f.svc); got != "1" {
		t.Fatalf("%s mappings open after the install, want 1", got)
	}
	for !f.svc.OverlayOutgrown("world") {
		if i++; i == len(batches) {
			t.Fatal("no overlay outgrew its share on the installed file")
		}
		apply(i)
	}
	for _, req := range []*service.SelectSeedsRequest{selectReq("RS", "plurality", 2048), selectReq("RW", "cumulative", 0)} {
		a, serr := f.svc.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		b, serr := heap.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		if !reflect.DeepEqual(a.Seeds, b.Seeds) || a.ExactValue != b.ExactValue {
			t.Fatalf("%s: checkpointed service answered %v (%v), heap service %v (%v)", req.Method, a.Seeds, a.ExactValue, b.Seeds, b.ExactValue)
		}
	}
}
