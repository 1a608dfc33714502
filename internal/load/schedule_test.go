package load

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"syncstamp/internal/graph"
	"syncstamp/internal/node"
	"syncstamp/internal/vector"
)

// referenceSchedules is the straightforward schedule generator the
// optimized one must reproduce exactly: a fresh rand.NewSource per client
// and a reflection-based stable sort.
func referenceSchedules(cfg Config) [][]event {
	skew := graph.NewSkew(cfg.Servers, cfg.ZipfTheta)
	perWorker := make([][]event, cfg.Workers)
	for c := 0; c < cfg.Clients; c++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*2654435761))
		w := c % cfg.Workers
		at := 0.0
		for i := 0; i < cfg.MessagesPerClient; i++ {
			switch cfg.Arrival {
			case ArrivalUniform:
				at += 2 * rng.Float64()
			default:
				at += rng.ExpFloat64()
			}
			perWorker[w] = append(perWorker[w], event{
				due:    at,
				client: cfg.Servers + c,
				server: skew.Pick(rng.Float64()),
			})
		}
	}
	for _, evs := range perWorker {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	}
	return perWorker
}

// TestSchedulesMatchReference pins the workload itself: across arrival
// processes, skews and worker counts, schedules must emit exactly the
// reference generator's events in exactly its order.
func TestSchedulesMatchReference(t *testing.T) {
	for _, arrival := range []Arrival{ArrivalPoisson, ArrivalUniform} {
		for _, theta := range []float64{0, 0.9, 1.2} {
			for _, workers := range []int{1, 3, 4} {
				cfg := Config{
					Servers:           7,
					Clients:           101,
					MessagesPerClient: 9,
					Arrival:           arrival,
					ZipfTheta:         theta,
					Seed:              int64(workers)*1000 + int64(theta*10),
					Workers:           workers,
				}
				name := fmt.Sprintf("%s/theta%.1f/workers%d", arrival, theta, workers)
				got, want := schedules(cfg), referenceSchedules(cfg)
				if len(got) != len(want) {
					t.Fatalf("%s: %d worker lists, want %d", name, len(got), len(want))
				}
				for w := range want {
					if len(got[w]) != len(want[w]) {
						t.Fatalf("%s worker %d: %d events, want %d", name, w, len(got[w]), len(want[w]))
					}
					for i := range want[w] {
						if got[w][i] != want[w][i] {
							t.Fatalf("%s worker %d event %d: %+v, want %+v", name, w, i, got[w][i], want[w][i])
						}
					}
				}
			}
		}
	}
}

// spillDigest hashes a tree's shard spill files, concatenated in leaf
// order.
func spillDigest(t *testing.T, dir string, leaves int) string {
	t.Helper()
	h := sha256.New()
	for leaf := 0; leaf < leaves; leaf++ {
		b, err := os.ReadFile(node.SpillPath(dir, leaf))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLoadSpillBytesPinned pins a deterministic (Workers: 1) run's spill
// files byte for byte. The digest was computed at commit 258e0c7, before
// the batched collector handoff, the reflection-free journal encoder and
// the re-seeded schedule generator, so it holds all three to producing
// the exact bytes the straightforward implementations did.
func TestLoadSpillBytesPinned(t *testing.T) {
	const (
		leaves = 4
		want   = "bbd1f3061ad7fa156203ab0b4f375e7cdcc10f0967127c8d99f51740e3ad8951"
	)
	dir := t.TempDir()
	res, err := Run(Config{
		Servers:           16,
		Clients:           600,
		MessagesPerClient: 5,
		ZipfTheta:         0.9,
		Seed:              5,
		Workers:           1,
		Tree:              node.TreeConfig{Leaves: leaves, SpillDir: dir, SegmentRecords: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.OK {
		t.Fatalf("clean run rejected: %v", res.Verdict.Problems)
	}
	if got := spillDigest(t, dir, leaves); got != want {
		t.Fatalf("spill files hash to %s, want %s", got, want)
	}
}

// TestRendezvousAllocFree pins the drive loop's per-request cost: once the
// collector tree's batches, segment arenas and spill buffers are warm, a
// rendezvous and its two Ingests allocate nothing — in the driver or in
// the leaves draining behind it.
func TestRendezvousAllocFree(t *testing.T) {
	cfg := Config{Servers: 8, Clients: 64, MessagesPerClient: 64, ZipfTheta: 0.9, Seed: 3, Workers: 1}
	topo := NewTopology(cfg.Servers, cfg.Clients)
	tree, err := node.NewCollectorTree(topo, node.TreeConfig{Leaves: 4, SpillDir: t.TempDir(), SegmentRecords: 512})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]clientState, cfg.Clients)
	servers := make([]serverState, cfg.Servers)
	for i := range clients {
		clients[i].v = vector.New(topo.D())
	}
	for i := range servers {
		servers[i].v = vector.New(topo.D())
	}
	evs := schedules(cfg)[0]
	i := 0
	drive := func() {
		e := evs[i%len(evs)]
		i++
		rendezvous(topo, &clients[e.client-cfg.Servers], &servers[e.server], tree, e)
	}
	for i < len(evs) { // warm: every process seen, every segment buffer grown
		drive()
	}
	if allocs := testing.AllocsPerRun(len(evs), drive); allocs != 0 {
		t.Errorf("warm rendezvous + 2×Ingest allocates %.0f objects per request, want 0", allocs)
	}
	v, err := tree.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Fatalf("run rejected: %v", v.Problems)
	}
}
