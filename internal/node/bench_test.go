package node

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"syncstamp/internal/check"
	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/vector"
)

// benchMatching builds a P-pair matching topology split across two nodes:
// even processes (the senders) on node 0, odd (the receivers) on node 1.
func benchMatching(pairs int) (*decomp.Decomposition, []int) {
	g := graph.New(2 * pairs)
	for i := 0; i < pairs; i++ {
		g.AddEdge(2*i, 2*i+1)
	}
	placement := make([]int, 2*pairs)
	for p := range placement {
		placement[p] = p % 2
	}
	return decomp.Best(g), placement
}

// runPair runs one node per transport over the matching topology and fails
// tb on any node error, returning each node's RunInfo.
func runPair(tb testing.TB, cfg Config, transports []Transport, programs map[int]func(*Process) error) []*RunInfo {
	tb.Helper()
	nodes := make([]*Node, len(transports))
	for i := range nodes {
		c := cfg
		c.Node = i
		n, err := New(c, transports[i])
		if err != nil {
			tb.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
	}
	infos := make([]*RunInfo, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			infos[i], errs[i] = nodes[i].Run(programs)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			tb.Fatalf("node %d: %v", i, err)
		}
	}
	return infos
}

// benchPrograms is the closed-loop pairs workload (perfbench's pairs-tcp
// shape): every pair ping-pongs rounds times concurrently over the single
// inter-node connection.
func benchPrograms(pairs, rounds int) map[int]func(*Process) error {
	programs := make(map[int]func(*Process) error, 2*pairs)
	for i := 0; i < pairs; i++ {
		sender, receiver := 2*i, 2*i+1
		programs[sender] = func(p *Process) error {
			for k := 0; k < rounds; k++ {
				if _, err := p.Send(receiver); err != nil {
					return err
				}
			}
			return nil
		}
		programs[receiver] = func(p *Process) error {
			for k := 0; k < rounds; k++ {
				if _, err := p.RecvFrom(sender); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return programs
}

// BenchmarkLoopRendezvous measures the full remote rendezvous round trip —
// SYN encode, pipe, merge, ACK, adopt — over the in-memory Loop transport
// through the coalescing writer; ns/op is per message.
func BenchmarkLoopRendezvous(b *testing.B) {
	const pairs = 8
	dec, placement := benchMatching(pairs)
	rounds := b.N/pairs + 1
	b.ReportAllocs()
	b.ResetTimer()
	runPair(b, Config{Placement: placement, Dec: dec}, loopTransports(2), benchPrograms(pairs, rounds))
	b.StopTimer()
}

// BenchmarkJournalAppendGroupCommit drives b.N appends through a journal
// from 8 concurrent goroutines; ns/op is per committed record.
func BenchmarkJournalAppendGroupCommit(b *testing.B) {
	const workers = 8
	path := filepath.Join(b.TempDir(), "bench.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	rec := JournalRecord{Kind: journalInternal, Proc: 1, Note: "bench"}
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w < b.N%workers {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := j.Append(rec); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	b.StopTimer()
	st := j.Stats()
	b.ReportMetric(float64(st.Appends)/float64(st.Syncs), "records/fsync")
	if err := os.Remove(path); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJournalAppendBatch measures the collector's spill commit: one
// AppendBatch of a 4096-record segment with 16-component stamps — encode,
// one Write, one fsync; ns/op is per segment.
func BenchmarkJournalAppendBatch(b *testing.B) {
	j, _, err := OpenJournal(filepath.Join(b.TempDir(), "bench.spill"))
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	recs := benchSegment(4096, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.AppendBatch(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectorTreeIngest drives client-server rendezvous through a
// 4-leaf spilling collector tree, the load driver's shape: each op merges
// a client and a server clock and ingests both halves from one reused
// stamp, so ns/op is per rendezvous (two Ingests), verification and spill
// included.
func BenchmarkCollectorTreeIngest(b *testing.B) {
	const servers, clients = 16, 256
	dec := decomp.Best(graph.ClientServer(servers, clients, false))
	tree, err := NewCollectorTree(check.NewDecompTopology(dec), TreeConfig{Leaves: 4, SpillDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	clocks := make([]vector.V, servers+clients)
	for p := range clocks {
		clocks[p] = vector.New(dec.D())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, c := i%servers, servers+(i*7)%clients
		g, _ := dec.GroupOf(s, c)
		stamp := clocks[c]
		stamp.Max(clocks[s])
		stamp[g]++
		copy(clocks[s], stamp)
		_ = tree.Ingest(s, csp.Record{Kind: csp.RecordRecv, Peer: c, Stamp: stamp})
		_ = tree.Ingest(c, csp.Record{Kind: csp.RecordSend, Peer: s, Stamp: stamp})
	}
	v, err := tree.Finish()
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if !v.OK {
		b.Fatalf("tree rejected the run: %v", v.Problems)
	}
}

// TestNodeHotPathAllocBudget pins the per-message allocation count of the
// full distributed rendezvous path: goroutine handoffs, journal-free
// protocol work, log growth, and each run's setup amortized over its
// messages. A warm remote rendezvous allocates exactly the two stamps the
// logs keep (TestRemoteRendezvousAllocs); with log growth and setup this
// measures 2.5–2.6 per message on a 2-vCPU x86-64 host with Go 1.24, with
// or without -race, and the budget sits just above that, so a single new
// allocation per message on the hot path (a per-send channel or timer, a
// heap-allocated frame, a decoded vector kept instead of copied) fails the
// test rather than silently regressing throughput.
func TestNodeHotPathAllocBudget(t *testing.T) {
	const (
		pairs    = 4
		rounds   = 200
		budget   = 3.0
		messages = pairs * rounds
	)
	dec, placement := benchMatching(pairs)
	programs := benchPrograms(pairs, rounds)

	// Warm run to populate connection state, then measure.
	run := func() {
		runPair(t, Config{Placement: placement, Dec: dec}, loopTransports(2), programs)
	}
	run()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perMsg := float64(after.Mallocs-before.Mallocs) / float64(messages)
	if perMsg > budget {
		t.Fatalf("distributed rendezvous allocates %.1f objects per message, budget %.0f", perMsg, budget)
	}
	t.Logf("distributed rendezvous: %.1f allocs per message (budget %.0f)", perMsg, budget)
}
