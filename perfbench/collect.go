package main

import (
	"fmt"
	"os"
	"time"

	"syncstamp/internal/load"
	"syncstamp/internal/node"
	"syncstamp/internal/obs"
)

// The clients-collect workload: unpaced load.Run over a 16-server pool with
// Zipf-0.9 popularity, one deterministic worker, streaming into a 4-leaf
// spilling collector tree that keeps no logs.
const (
	collectServers = 16
	collectLeaves  = 4
	collectZipf    = 0.9
)

// collectSize is one trial's clients and messages per client.
func collectSize(quick bool) (clients, perClient int) {
	if quick {
		return 512, 2
	}
	return 8192, 8
}

// latencyEdges are 16 log-linear histogram edges per power of two from
// 64 ns to about 268 ms (≤ 4.4% bucket width), registered in the load
// driver's registry so its per-request latencies read back finer than the
// runtime's default edges. More edges would slow obs.Histogram.Observe,
// which scans them linearly on the measured path.
var latencyEdges = logEdges(16, 6, 28)

func collectTrial(e *env, rec *recorder) (*trial, error) {
	clients, perClient := collectSize(e.quick)
	msgs := clients * perClient
	t := &trial{msgs: msgs, e2e: map[string]float64{}}
	root := rec.open("trial", 0)
	if rec != nil {
		t.layer = map[string]float64{}
	}

	// Set-up: a fresh spill directory and the driver's registry.
	setupStart := time.Now()
	setup := rec.open("setup", root.id)
	dir, err := e.trialDir()
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	reg := obs.NewRegistry()
	reg.Histogram(obs.MetricLoadLatencyNS, latencyEdges)
	cfg := load.Config{
		Servers:           collectServers,
		Clients:           clients,
		MessagesPerClient: perClient,
		ZipfTheta:         collectZipf,
		Seed:              e.trialSeed(),
		Workers:           1,
		Tree:              node.TreeConfig{Leaves: collectLeaves, SpillDir: dir},
		Registry:          reg,
	}
	t.e2e["setup_s"] = time.Since(setupStart).Seconds()
	rec.done(setup)

	// Measured region: the whole load.Run — schedules, drive loop, and the
	// collector tree's Finish with its verdict.
	var rt0 rtSample
	if rec != nil {
		rt0 = sampleRuntime()
	}
	runSpan := rec.open("load.run", root.id)
	start := time.Now()
	res, err := load.Run(cfg)
	t.wallS = time.Since(start).Seconds()
	t.e2e["mem_peak_mb"] = peakRSSMB()
	rec.done(runSpan)
	if rec != nil {
		runtimeLayer(rt0, sampleRuntime(), msgs, t.layer)
	}
	if err != nil {
		t.failed, t.runErr = msgs, fmt.Errorf("load run: %w", err)
		return t, nil
	}

	// Output check: the streaming verdict must be clean and complete.
	v := res.Verdict
	if !v.OK || len(v.Problems) > 0 || v.Shards != collectLeaves || res.Messages != int64(msgs) || v.Messages != int64(msgs) {
		t.failed = msgs
	}

	lat := reg.Histogram(obs.MetricLoadLatencyNS, nil).Snapshot()
	d := bucketed(lat.Edges, lat.Counts)
	t.setLatency(d.quantile(0.50), d.quantile(0.99))
	t.e2e["wire_bytes_per_msg"] = float64(v.SpillBytes) / float64(msgs)
	if rec == nil {
		return t, nil
	}

	L := t.layer
	L["decomp.d"] = collectServers
	L["load.drive_s"] = res.Elapsed.Seconds()
	L["collector.finish_s"] = t.wallS - res.Elapsed.Seconds()
	L["collector.segments_spilled"] = float64(v.SegmentsSpilled)
	L["collector.spill_bytes_per_msg"] = float64(v.SpillBytes) / float64(msgs)
	L["collector.max_resident_records"] = float64(v.MaxResident)
	L["collector.shards_verified"] = float64(v.Shards)
	// Each leaf spills through its own node.Journal: every segment is one
	// AppendBatch, one Write and one fsync, and every record is spilled.
	if v.SegmentsSpilled > 0 {
		L["journal.appends_per_sync"] = float64(v.Records) / float64(v.SegmentsSpilled)
	}
	L["journal.syncs_per_kmsg"] = 1000 * float64(v.SegmentsSpilled) / float64(msgs)
	for leaf := 0; leaf < collectLeaves; leaf++ {
		if st, err := os.Stat(node.SpillPath(dir, leaf)); err == nil {
			L["journal.bytes_per_msg"] += float64(st.Size()) / float64(msgs)
		}
	}
	rec.done(root)
	t.spans = rec.finish()
	L["trace.spans_per_trial"] = float64(len(t.spans))
	return t, nil
}
