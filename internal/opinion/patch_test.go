package opinion_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ovm/internal/datasets"
	"ovm/internal/dynamic"
	"ovm/internal/obs"
	"ovm/internal/opinion"
)

// patchHorizons are the horizons every patch oracle carries trajectories at.
var patchHorizons = []int{1, 3, 10}

// decodeBatch reads one update batch from b, six bytes per op: kind, two
// 16-bit node picks, a value. The kinds are add_edge, set_weight,
// remove_edge (of a real in-edge), emptying a column (every in-edge of a
// node of in-degree at most 8 removed, so the repair gives it a self-loop),
// and opinion and stubbornness edits on the candidate the kind byte names.
// The batch is valid against sys; it is nil when b spells no op.
func decodeBatch(sys *opinion.System, b []byte) dynamic.Batch {
	n, g := sys.N(), sys.Candidate(0).G
	var batch dynamic.Batch
	removed := map[[2]int32]bool{}
	remove := func(from, to int32) {
		if !removed[[2]int32{from, to}] {
			removed[[2]int32{from, to}] = true
			batch = append(batch, dynamic.Op{Kind: dynamic.OpRemoveEdge, From: from, To: to})
		}
	}
	for ; len(b) >= 6; b = b[6:] {
		kind := b[0]
		a := int32(int(binary.LittleEndian.Uint16(b[1:])) % n)
		c := int32(int(binary.LittleEndian.Uint16(b[3:])) % n)
		x := float64(b[5]) / 255
		if a == c {
			c = (c + 1) % int32(n)
		}
		cand := int(kind/6) % sys.R()
		switch kind % 6 {
		case 0:
			batch = append(batch, dynamic.Op{Kind: dynamic.OpAddEdge, From: a, To: c, W: 0.25 + x})
		case 1:
			batch = append(batch, dynamic.Op{Kind: dynamic.OpSetWeight, From: a, To: c, W: 0.25 + x})
		case 2:
			if src, _ := g.InNeighbors(c); len(src) > 0 {
				remove(src[0], c)
			}
		case 3:
			if src, _ := g.InNeighbors(c); len(src) <= 8 {
				for _, u := range src {
					remove(u, c)
				}
			}
		case 4:
			batch = append(batch, dynamic.Op{Kind: dynamic.OpSetOpinion, Cand: cand, Node: a, Value: x})
		default:
			batch = append(batch, dynamic.Op{Kind: dynamic.OpSetStubbornness, Cand: cand, Node: a, Value: x})
		}
	}
	return batch
}

// patchStep applies batch to sys and checks, for every candidate and every
// carried horizon, that PatchTrajectory over the trajectory carried so far
// equals a fresh Trajectory on the mutated system, Float64bits for bits at
// every row: with no budget, performing exactly the edge steps the test's
// own BFS counts from the touched nodes and reporting as its work those,
// the BFS's out-neighbour reads, and n per row written and for the search;
// with a work limit one below that, giving up having done only the search;
// and with the shipped budget, giving up exactly when a step's touched
// nodes own more than m/PatchDivisor in-edges. A patch that gives up steps
// no edge. It returns the mutated system, whose fresh trajectories it
// leaves in trajs, and how many patches the shipped budget completed and
// gave up; sys unchanged when the repair refuses the batch.
func patchStep(t *testing.T, sys *opinion.System, trajs map[[2]int][][]float64, batch dynamic.Batch, par int) (_ *opinion.System, completed, gaveUp int) {
	t.Helper()
	ctx := context.Background()
	next, cs, err := dynamic.ApplySystem(sys, batch)
	if err != nil {
		return sys, 0, 0
	}
	for q := 0; q < next.R(); q++ {
		c := next.Candidate(q)
		touched := cs.Touched(q)
		// A trajectory's rows do not depend on its horizon.
		fresh, err := opinion.Trajectory(ctx, c, slices.Max(patchHorizons), nil, par)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range patchHorizons {
			want := fresh[:h+1]
			base := trajs[[2]int{q, h}]
			label := fmt.Sprintf("P=%d q=%d t=%d touched=%d batch=%v", par, q, h, len(touched), batch)
			mass, nodes := hopInEdges(c, touched, h)
			var wantEdges, wantNodes int64
			for s := 1; s <= h; s++ {
				wantEdges += mass[s]
				wantNodes += nodes[s]
			}
			reads := reachReads(c, touched, h)
			before := obs.CaptureCosts()
			got, work, err := opinion.PatchTrajectoryBudget(ctx, c, base, touched, math.MaxInt64, par, math.MaxInt64)
			if err != nil {
				t.Fatal(err)
			}
			cost := obs.CaptureCosts().Delta(before)
			if cost["ovm_opinion_edge_steps_total"] != wantEdges || cost["ovm_opinion_frontier_nodes_total"] != wantNodes || cost["ovm_opinion_diffusions_total"] != 1 {
				t.Fatalf("%s: cost %v, want 1 diffusion, %d edge steps, %d frontier nodes", label, cost, wantEdges, wantNodes)
			}
			n := int64(c.G.N())
			search := n + reads
			if want := search + wantEdges + int64(h)*n; work != want {
				t.Fatalf("%s: work %d, want %d: n + %d reads, %d edge steps, %d rows of n", label, work, want, reads, wantEdges, h)
			}
			before = obs.CaptureCosts()
			short, work, err := opinion.PatchTrajectoryBudget(ctx, c, base, touched, work-1, par, math.MaxInt64)
			if err != nil {
				t.Fatal(err)
			}
			if cost := obs.CaptureCosts().Delta(before); short != nil || work != search || cost != nil {
				t.Fatalf("%s: work limit one short: patched %v, work %d, cost %v; want nil, the search's %d, no cost", label, short != nil, work, cost, search)
			}
			if len(got) != h+1 || &got[0][0] != &c.Init[0] {
				t.Fatalf("%s: %d rows, row 0 is the system's Init: %v", label, len(got), len(got) > 0 && &got[0][0] == &c.Init[0])
			}
			for s := range want {
				if at := bitDiff(got[s], want[s]); at >= 0 {
					t.Fatalf("%s: row %d node %d is %v, fresh %v", label, s, at, got[s][at], want[s][at])
				}
			}
			before = obs.CaptureCosts()
			shipped, _, err := opinion.PatchTrajectory(ctx, c, base, touched, math.MaxInt64, par)
			if err != nil {
				t.Fatal(err)
			}
			if cost := obs.CaptureCosts().Delta(before); shipped == nil && cost != nil {
				t.Fatalf("%s: the shipped budget gave up after %v", label, cost)
			}
			over := false
			for s := 1; s <= h; s++ {
				over = over || mass[s] > int64(c.G.M())/opinion.PatchDivisor
			}
			if (shipped == nil) != over {
				t.Fatalf("%s: shipped budget gave up %v, want %v (in-edge mass %v of m = %d)", label, shipped == nil, over, mass, c.G.M())
			}
			if shipped == nil {
				gaveUp++
			} else {
				completed++
			}
			for s := range shipped {
				if at := bitDiff(shipped[s], want[s]); at >= 0 {
					t.Fatalf("%s: shipped budget, row %d node %d is %v, fresh %v", label, s, at, shipped[s][at], want[s][at])
				}
			}
			trajs[[2]int{q, h}] = want
		}
	}
	return next, completed, gaveUp
}

// reachReads is the out-neighbour reads of the test's own search of the
// nodes within t hops of seeds: the out-degrees of the nodes within t−1.
func reachReads(c *opinion.Candidate, seeds []int32, t int) int64 {
	dist := map[int32]int{}
	queue := slices.Clone(seeds)
	for _, v := range seeds {
		dist[v] = 0
	}
	var reads int64
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if dist[v] == t {
			continue
		}
		dst, _ := c.G.OutNeighbors(v)
		reads += int64(len(dst))
		for _, u := range dst {
			if _, seen := dist[u]; !seen {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return reads
}

// seedTrajectories is every candidate's seedless trajectory at every
// carried horizon.
func seedTrajectories(t *testing.T, sys *opinion.System) map[[2]int][][]float64 {
	t.Helper()
	trajs := map[[2]int][][]float64{}
	for q := 0; q < sys.R(); q++ {
		for _, h := range patchHorizons {
			traj, err := opinion.Trajectory(context.Background(), sys.Candidate(q), h, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			trajs[[2]int{q, h}] = traj
		}
	}
	return trajs
}

// TestPatchMatchesTrajectoryBitwise: on the three dataset families of
// TestDiffuseFromMatchesDiffuseBitwise, at P = 1, 2 and 4, random batches of
// every op kind — an emptied column and opinion and stubbornness edits on
// every candidate included — are applied one after another, and each
// candidate's trajectory at horizons 1, 3 and 10 is carried by
// PatchTrajectory from the last one: bit for bit a fresh Trajectory, at the
// edge steps of the touched nodes' reach (see patchStep). The shipped budget
// both completes and gives up on every family.
func TestPatchMatchesTrajectoryBitwise(t *testing.T) {
	for _, name := range []string{"twitter-distancing-like", "dblp-like", "yelp-like"} {
		d, err := datasets.ByName(name, datasets.Options{N: 5000, Seed: 11}) // three node chunks
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 4} {
			r := rand.New(rand.NewSource(int64(17 + par)))
			sys := d.Sys
			trajs := seedTrajectories(t, sys)
			turn, patched, gaveUp := 0, 0, 0
			for i := 0; i < 8; i++ {
				ops := 1 + r.Intn(3)
				if i == 4 {
					ops = 40 // reaches past the budget on every family
				}
				raw := make([]byte, 6*ops)
				r.Read(raw)
				for j := 0; j < len(raw); j += 6 {
					// The kinds in turn, on a random candidate.
					raw[j] = byte(turn%6 + 6*r.Intn(sys.R()))
					turn++
				}
				var c, g int
				sys, c, g = patchStep(t, sys, trajs, decodeBatch(sys, raw), par)
				patched, gaveUp = patched+c, gaveUp+g
			}
			if patched == 0 || gaveUp == 0 {
				t.Errorf("%s P=%d: the shipped budget completed %d patches and gave up %d; the batches must make both", name, par, patched, gaveUp)
			}
		}
	}
}

// FuzzPatchTrajectory drives patchStep with batch sequences decoded from
// fuzz input (a length byte, then that many six-byte ops, per batch) on a
// small twitter-distancing-like system.
func FuzzPatchTrajectory(f *testing.F) {
	d, err := datasets.ByName("twitter-distancing-like", datasets.Options{N: 400, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	op := func(kind byte, a, c uint16, x byte) []byte {
		return []byte{kind, byte(a), byte(a >> 8), byte(c), byte(c >> 8), x}
	}
	f.Add(append([]byte{1}, op(4, 7, 0, 200)...))
	f.Add(append(append([]byte{2}, op(3, 0, 9, 0)...), op(11, 5, 0, 30)...))
	f.Add(append(append(append([]byte{1}, op(0, 3, 7, 90)...), 1), op(2, 0, 7, 0)...))
	f.Add(append(append([]byte{3}, op(1, 30, 31, 10)...), append(op(5, 31, 0, 255), op(10, 40, 0, 0)...)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		sys := d.Sys
		trajs := seedTrajectories(t, sys)
		for batches := 0; len(data) > 0 && batches < 8; batches++ {
			ops := 1 + int(data[0]%4)
			data = data[1:]
			take := min(6*ops, len(data))
			sys, _, _ = patchStep(t, sys, trajs, decodeBatch(sys, data[:take]), 1+batches%2)
			data = data[take:]
		}
	})
}
