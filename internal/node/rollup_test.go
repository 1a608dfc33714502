package node

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/core"
	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/obs"
	tssync "syncstamp/internal/sync"
	"syncstamp/internal/vector"
)

// TestCollectorTreeRollupEqualsLeafTotals pins the rollup acceptance
// criterion at the tree level: the root's merged registry must equal the sum
// of the per-leaf shard registries — which count exactly what the verdict
// counts, so equality is checkable without trusting the rollup path itself.
func TestCollectorTreeRollupEqualsLeafTotals(t *testing.T) {
	in := genSeed(t)
	logs := oracleLogs(t, in)
	records := 0
	for _, l := range logs {
		records += len(l)
	}
	dir := t.TempDir()
	tree, err := NewCollectorTree(check.NewDecompTopology(in.Dec),
		TreeConfig{Leaves: 3, SpillDir: dir, SegmentRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	feedTree(tree, logs)
	v, err := tree.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Fatalf("clean run rejected: %v", v.Problems)
	}
	roll := tree.Rollup()
	if got := roll.Counters[obs.MetricShardRecords]; got != int64(records) {
		t.Errorf("%s = %d, want %d (every ingested record, summed over leaves)",
			obs.MetricShardRecords, got, records)
	}
	if got := roll.Counters[obs.MetricShardSegments]; got != v.SegmentsSpilled {
		t.Errorf("%s = %d, verdict counts %d", obs.MetricShardSegments, got, v.SegmentsSpilled)
	}
	if got := roll.Counters[obs.MetricShardSpillBytes]; got != v.SpillBytes {
		t.Errorf("%s = %d, verdict counts %d", obs.MetricShardSpillBytes, got, v.SpillBytes)
	}
}

// TestCollectTreeClusterRollup runs a real 2-node cluster: node 1's METRICS
// report and the collector leaves' shard registries must all land in node
// 0's rollup, with exact counter sums, merged histograms, and the node's own
// live registry (its /metrics view) equal to RunInfo.Rollup.
func TestCollectTreeClusterRollup(t *testing.T) {
	leakCheck(t)
	g := graph.Path(2)
	dec := decomp.Best(g)
	dir := t.TempDir()
	transports := loopTransports(2)
	edges := []int64{10, 100}
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	for i, r := range regs {
		r.Counter("rollup_test_total").Add(int64(5 + 2*i)) // 5 and 7
		h := r.Histogram("rollup_test_lat", edges)
		h.Observe(int64(i))              // bucket <=10 on both nodes
		h.Observe(int64(1000 * (i + 1))) // overflow bucket on both
	}

	var verdict *TreeVerdict
	var info0 *RunInfo
	var collectErr error
	results := make([]clusterResult, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{Node: i, Placement: []int{0, 1}, Dec: dec, Obs: &obs.Obs{Metrics: regs[i]}}
			n, err := New(cfg, transports[i])
			if err != nil {
				results[i].err = err
				return
			}
			defer n.Close()
			info, err := n.Run(pingPong(10))
			results[i] = clusterResult{info: info, err: err}
			if err != nil {
				return
			}
			if i == 0 {
				info0 = info
				verdict, collectErr = n.CollectTree(info, 10*time.Second, TreeConfig{
					Leaves: 2, SpillDir: dir, SegmentRecords: 8,
				})
			} else {
				results[i].err = n.SendReport(0, info)
			}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
	}
	if collectErr != nil {
		t.Fatal(collectErr)
	}
	if !verdict.OK {
		t.Fatalf("cluster run rejected: %v", verdict.Problems)
	}
	if info0.Rollup == nil {
		t.Fatal("RunInfo.Rollup not populated by CollectTree")
	}
	roll := *info0.Rollup

	// Exact counter equality: the custom counter sums across nodes, and the
	// leaf shard counters sum to the verdict's totals.
	if got := roll.Counters["rollup_test_total"]; got != 12 {
		t.Errorf("rollup_test_total = %d, want 12 (5 from node 0 + 7 from node 1)", got)
	}
	if got := roll.Counters[obs.MetricShardRecords]; got != verdict.Records {
		t.Errorf("%s = %d, verdict counts %d", obs.MetricShardRecords, got, verdict.Records)
	}
	if got := roll.Counters[obs.MetricShardSegments]; got != verdict.SegmentsSpilled {
		t.Errorf("%s = %d, verdict counts %d", obs.MetricShardSegments, got, verdict.SegmentsSpilled)
	}
	if got := roll.Counters[obs.MetricShardSpillBytes]; got != verdict.SpillBytes {
		t.Errorf("%s = %d, verdict counts %d", obs.MetricShardSpillBytes, got, verdict.SpillBytes)
	}
	// Both nodes ran the same program halves, so the per-node frame counters
	// merged into a cluster total that covers every message twice (each
	// rendezvous is observed by its sender and its receiver).
	if got := roll.Counters[obs.MetricRendezvous]; got != 2*verdict.Messages {
		t.Errorf("%s = %d, want %d (both ends of %d messages)",
			obs.MetricRendezvous, got, 2*verdict.Messages, verdict.Messages)
	}

	// Merged histogram: bucket-wise sums of the two nodes' observations.
	h, ok := roll.Histograms["rollup_test_lat"]
	if !ok {
		t.Fatal("rollup_test_lat missing from the rollup")
	}
	if h.Count != 4 || h.Sum != 0+1+1000+2000 {
		t.Errorf("merged histogram count=%d sum=%d, want count=4 sum=3001", h.Count, h.Sum)
	}
	if want := []int64{2, 0, 2}; !reflect.DeepEqual(h.Counts, want) {
		t.Errorf("merged histogram buckets %v, want %v", h.Counts, want)
	}

	// The rollup was folded into node 0's live registry, so its /metrics
	// endpoint now serves the identical cluster view.
	if live := regs[0].Snapshot(); !reflect.DeepEqual(live, roll) {
		t.Errorf("node 0's live registry diverges from RunInfo.Rollup:\n%+v\n%+v", live, roll)
	}
}

// TestAsyncClusterRollup runs a 2-node async-mode cluster and pins the
// synchronizer's observability contract: the spurious-retransmit counter in
// the root rollup is exactly the sum over the nodes' registries, each
// per-peer RTT histogram lands in the rollup with precisely the sample
// count its owner's estimator accepted (so RunInfo p50/p99 and /metrics
// quantiles come from the same data), and the health gauges report every
// peer healthy after a clean run.
func TestAsyncClusterRollup(t *testing.T) {
	leakCheck(t)
	g := graph.Path(2)
	dec := decomp.Best(g)
	transports := loopTransports(2)
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	rec := &RecoveryConfig{
		OnPeerLoss:      PeerLossWait,
		RetransmitMin:   2 * time.Millisecond,
		RetransmitMax:   20 * time.Millisecond,
		ReconnectWindow: 5 * time.Second,
		Async:           &tssync.Config{Seed: 7},
	}
	var info0 *RunInfo
	var collectErr error
	results := make([]clusterResult, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{Node: i, Placement: []int{0, 1}, Dec: dec,
				Recovery: rec, Obs: &obs.Obs{Metrics: regs[i]}}
			n, err := New(cfg, transports[i])
			if err != nil {
				results[i].err = err
				return
			}
			defer n.Close()
			info, err := n.Run(pingPong(10))
			results[i] = clusterResult{info: info, err: err}
			if err != nil {
				return
			}
			if i == 0 {
				info0 = info
				_, collectErr = n.Collect(info, 10*time.Second)
			} else {
				results[i].err = n.SendReport(0, info)
			}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
	}
	if collectErr != nil {
		t.Fatal(collectErr)
	}
	if info0.Rollup == nil {
		t.Fatal("RunInfo.Rollup not populated by Collect")
	}
	roll := *info0.Rollup

	info1 := results[1].info
	// Root rollup == Σ leaf registries, exactly — for the async counters too.
	if got, want := roll.Counters[obs.MetricSpuriousRetransmits], info0.Spurious+info1.Spurious; got != want {
		t.Errorf("%s = %d in the rollup, RunInfos sum to %d", obs.MetricSpuriousRetransmits, got, want)
	}
	if got, want := roll.Counters[obs.MetricSuspicions], info0.Suspicions+info1.Suspicions; got != want {
		t.Errorf("%s = %d in the rollup, RunInfos sum to %d", obs.MetricSuspicions, got, want)
	}
	// Each node owns one per-peer RTT histogram (node 0 watches peer 1 and
	// vice versa); the rollup must carry each with exactly the accepted
	// sample count its estimator reports.
	for i, info := range []*RunInfo{info0, info1} {
		peer := 1 - i
		st, ok := info.PeerRTT[peer]
		if !ok {
			t.Fatalf("node %d RunInfo has no RTT stats for peer %d", i, peer)
		}
		if st.Samples == 0 {
			t.Fatalf("node %d accepted no RTT samples over 20 rendezvous", i)
		}
		if st.SRTTNS <= 0 || st.RTONS <= 0 || st.P50NS <= 0 || st.P99NS <= 0 {
			t.Fatalf("node %d peer %d RTT stats not populated: %+v", i, peer, st)
		}
		h, ok := roll.Histograms[obs.PeerMetric(obs.MetricPeerRTTNS, peer)]
		if !ok {
			t.Fatalf("rollup lacks %s", obs.PeerMetric(obs.MetricPeerRTTNS, peer))
		}
		if h.Count != st.Samples {
			t.Errorf("rollup %s count = %d, node %d estimator accepted %d samples",
				obs.PeerMetric(obs.MetricPeerRTTNS, peer), h.Count, i, st.Samples)
		}
		if got := info.PeerHealth[peer]; got != "healthy" {
			t.Errorf("node %d sees peer %d as %q after a clean run", i, peer, got)
		}
		if gauge, ok := roll.Gauges[obs.PeerMetric(obs.MetricPeerHealth, peer)]; !ok || gauge != 0 {
			t.Errorf("rollup health gauge for peer %d = %d (present=%v), want 0/healthy", peer, gauge, ok)
		}
	}
	// The rollup was folded into node 0's live registry: /metrics serves the
	// same async totals.
	if live := regs[0].Snapshot(); !reflect.DeepEqual(live, roll) {
		t.Errorf("node 0's live registry diverges from RunInfo.Rollup")
	}
}

// TestAsyncPeerRTTOmitsUnsampledPeers pins that RunInfo.PeerRTT reports
// only estimators that measured something. In a one-directional run node 0
// sends and node 1 only receives, so node 1's estimator for node 0 never
// takes a sample and still holds the initial guess: it must be absent from
// node 1's PeerRTT (PeerHealth still lists the peer), while node 0's entry
// carries the samples its sends produced.
func TestAsyncPeerRTTOmitsUnsampledPeers(t *testing.T) {
	leakCheck(t)
	const rounds = 20
	cfg := Config{
		Placement: []int{0, 1},
		Dec:       decomp.Best(graph.Path(2)),
		Recovery: &RecoveryConfig{
			OnPeerLoss:      PeerLossWait,
			RetransmitMin:   2 * time.Millisecond,
			RetransmitMax:   20 * time.Millisecond,
			ReconnectWindow: 5 * time.Second,
			Async:           &tssync.Config{Seed: 7},
		},
	}
	programs := map[int]func(*Process) error{
		0: func(p *Process) error {
			for k := 0; k < rounds; k++ {
				if _, err := p.Send(1); err != nil {
					return err
				}
			}
			return nil
		},
		1: func(p *Process) error {
			for k := 0; k < rounds; k++ {
				if _, err := p.RecvFrom(0); err != nil {
					return err
				}
			}
			return nil
		},
	}
	infos := runPair(t, cfg, loopTransports(2), programs)
	sender, receiver := infos[0], infos[1]
	if st, ok := sender.PeerRTT[1]; !ok || st.Samples == 0 {
		t.Fatalf("sender's PeerRTT[1] = %+v (present=%v), want an entry with samples", st, ok)
	}
	if st, ok := receiver.PeerRTT[0]; ok {
		t.Fatalf("receiver reports an RTT estimate it never measured: %+v", st)
	}
	if len(receiver.PeerRTT) != 0 {
		t.Fatalf("receiver's PeerRTT = %+v, want empty", receiver.PeerRTT)
	}
	for i, info := range infos {
		if got := info.PeerHealth[1-i]; got != "healthy" {
			t.Errorf("node %d PeerHealth[%d] = %q, want healthy", i, 1-i, got)
		}
	}
}

// TestFlightDumpRoundTrip pins the dump file format: write, read, equal —
// node ids, notes, and seqs included.
func TestFlightDumpRoundTrip(t *testing.T) {
	events := []obs.Event{
		{Node: 0, Proc: 0, Peer: 1, Seq: 0, Phase: obs.PhaseAdopt, Stamp: vector.V{1, 1}},
		{Node: 1, Proc: 1, Peer: 0, Seq: 0, Phase: obs.PhaseMerge, Stamp: vector.V{1, 1}},
		{Node: 1, Proc: 1, Peer: -1, Seq: 1, Phase: obs.PhaseInternal, Stamp: vector.V{1, 1}, Note: "checkpoint"},
		{Node: 0, Proc: 0, Peer: 1, Seq: 1, Phase: obs.PhaseSyn, Stamp: vector.V{2, 1}},
	}
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	if err := WriteFlightDump(path, events); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file survived the publish: %v", err)
	}
	got, err := ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip:\n%+v\n%+v", got, events)
	}
}

// TestRunWritesFlightDumpAndReplays drives a 2-node cluster with the flight
// recorder on: every node must publish its end-of-run dump, and the merged
// dumps must replay-verify against the sequential oracle — the flight
// recorder is a faithful (bounded) record of the computation, not just a
// debugging convenience.
func TestRunWritesFlightDumpAndReplays(t *testing.T) {
	leakCheck(t)
	g := graph.Path(2)
	dec := decomp.Best(g)
	dir := t.TempDir()
	transports := loopTransports(2)
	results := make([]clusterResult, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{
				Node: i, Placement: []int{0, 1}, Dec: dec,
				FlightRecorder: 256,
				FlightDump:     filepath.Join(dir, "flight"+string(rune('0'+i))+".jsonl"),
			}
			n, err := New(cfg, transports[i])
			if err != nil {
				results[i].err = err
				return
			}
			defer n.Close()
			info, err := n.Run(pingPong(5))
			results[i] = clusterResult{info: info, err: err}
		}(i)
	}
	wg.Wait()
	var merged []obs.Event
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
		events, err := ReadFlightDump(filepath.Join(dir, "flight"+string(rune('0'+i))+".jsonl"))
		if err != nil {
			t.Fatalf("node %d dump: %v", i, err)
		}
		if len(events) == 0 {
			t.Fatalf("node %d published an empty dump", i)
		}
		merged = append(merged, events...)
	}
	res, err := csp.Reconstruct(dec, csp.LogsFromEvents(dec.N(), merged))
	if err != nil {
		t.Fatalf("reconstructing from flight dumps: %v", err)
	}
	if res.Trace.NumMessages() != 10 {
		t.Fatalf("dumps reconstruct %d messages, run carried 10", res.Trace.NumMessages())
	}
	seq, err := core.StampTrace(res.Trace, dec)
	if err != nil {
		t.Fatal(err)
	}
	for m := range seq {
		if !vector.Eq(seq[m], res.Stamps[m]) {
			t.Fatalf("message %d: flight stamp %v, sequential stamp %v", m, res.Stamps[m], seq[m])
		}
	}
}
