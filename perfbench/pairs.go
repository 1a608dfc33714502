package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"syncstamp/internal/core"
	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/fault"
	"syncstamp/internal/graph"
	"syncstamp/internal/node"
	tssync "syncstamp/internal/sync"
	"syncstamp/internal/wire"
)

// pairConfig shapes a pair workload: P matching channel pairs on a 2-node
// localhost TCP cluster, sender p=2i on node 0 and receiver 2i+1 on node 1,
// each pair a closed loop of Send/RecvFrom rounds.
type pairConfig struct {
	rounds int     // per-pair messages in one full-size trial
	loss   float64 // per-frame drop probability on every link (fault.New)
	async  bool    // RecoveryConfig.Async with the shipped defaults
}

var (
	pairsTCP   = pairConfig{rounds: 1000}
	lossyAsync = pairConfig{rounds: 250, loss: 0.05, async: true}
)

const pairs = 32

// trialRounds is the per-pair message count of one trial. Trials are sized
// by message count, not duration: RunInfo.Logs retains every record, so a
// longer trial is a different (slower) workload.
func (c pairConfig) trialRounds(quick bool) int {
	if quick {
		return 40
	}
	return c.rounds
}

// matching is the pair workloads' topology: channel 2i–2i+1 for each pair.
func matching() *graph.Graph {
	g := graph.New(2 * pairs)
	for i := 0; i < pairs; i++ {
		g.AddEdge(2*i, 2*i+1)
	}
	return g
}

// pairInputs is the seeded part of a pair workload: after which rounds
// each sender logs an internal event.
func pairInputs(seed int64, rounds int) [][]bool {
	rng := rand.New(rand.NewSource(seed))
	marks := make([][]bool, pairs)
	for i := range marks {
		marks[i] = make([]bool, rounds)
		for k := rng.Intn(4); k > 0; k-- {
			marks[i][rng.Intn(rounds)] = true
		}
	}
	return marks
}

// pairTrial returns the trial function of a pair workload.
func pairTrial(cfg pairConfig) func(*env, *recorder) (*trial, error) {
	return func(e *env, rec *recorder) (*trial, error) { return runPairs(e, cfg, rec, true) }
}

// prepareLossy records a clean run of the lossy-async inputs — same
// programs, no faults, no recovery — whose stamps every lossy trial must
// reproduce.
func prepareLossy(e *env) error {
	logs, err := cleanLogs(e)
	if err != nil {
		return err
	}
	e.reference = logs
	return nil
}

func cleanLogs(e *env) ([][]csp.Record, error) {
	t, err := runPairs(e, pairConfig{rounds: lossyAsync.rounds}, nil, false)
	if err != nil {
		return nil, err
	}
	if t.runErr != nil {
		return nil, fmt.Errorf("clean reference run: %w", t.runErr)
	}
	return t.logs, nil
}

// runPairs runs one trial. check=false skips the output checks and keeps
// the logs instead (the clean reference run).
func runPairs(e *env, cfg pairConfig, rec *recorder, check bool) (*trial, error) {
	rounds := cfg.trialRounds(e.quick)
	nprocs := 2 * pairs
	msgs := pairs * rounds
	marks := pairInputs(e.seed, rounds)
	t := &trial{msgs: msgs, e2e: map[string]float64{}}
	root := rec.open("trial", 0)
	if rec != nil {
		t.layer = map[string]float64{}
	}

	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()

	// Set-up: topology, decomposition, transports, nodes.
	setupStart := time.Now()
	setup := rec.open("setup", root.id)
	g := matching()
	bestStart := time.Now()
	dec := decomp.Best(g)
	best := time.Since(bestStart)
	rec.timed("decomp.best", setup.id, bestStart, best)
	placement := make([]int, nprocs)
	for p := range placement {
		placement[p] = p % 2
	}

	// Run spans are opened before the nodes exist so connections accepted
	// during set-up already hang under their node.
	var runSpans [2]span
	if rec != nil {
		for i := range runSpans {
			runSpans[i] = span{id: rec.newID(), parent: root.id, name: "node.run", proc: -1, round: -1}
		}
	}

	var tcps [2]*node.TCPTransport
	addrs := make([]string, 2)
	for i := range tcps {
		s := rec.open("transport.listen", setup.id)
		tt, err := node.NewTCPTransport("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		rec.done(s)
		cleanup = append(cleanup, func() { _ = tt.Close() })
		tcps[i], addrs[i] = tt, tt.Addr()
	}
	var plan *fault.Plan
	if cfg.loss > 0 {
		plan = &fault.Plan{Seed: e.trialSeed(), Links: []fault.LinkFault{{From: -1, To: -1, Drop: cfg.loss}}}
		if err := plan.Validate(); err != nil {
			return nil, err
		}
	}
	var transports [2]node.Transport
	for i, tt := range tcps {
		tt.SetPeers(addrs)
		var tr node.Transport = tt
		if rec != nil {
			tr = &tracedTransport{inner: tt, rec: rec, parent: runSpans[i].id}
		}
		if plan != nil {
			tr = fault.New(tr, plan, i)
		}
		transports[i] = tr
	}

	var recoveries [2]*node.RecoveryConfig
	if cfg.async {
		for i := range recoveries {
			recoveries[i] = &node.RecoveryConfig{
				OnPeerLoss:      node.PeerLossWait,
				ReconnectWindow: 10 * time.Second,
				Async:           &tssync.Config{Seed: e.trialSeed()},
			}
		}
	}

	nodes := make([]*node.Node, 2)
	for i := range nodes {
		s := rec.open("node.new", setup.id)
		nd, err := node.New(node.Config{Node: i, Placement: placement, Dec: dec, Recovery: recoveries[i]}, transports[i])
		if err != nil {
			return nil, err
		}
		rec.done(s)
		nodes[i] = nd
		cleanup = append(cleanup, nd.Close)
	}
	t.e2e["setup_s"] = time.Since(setupStart).Seconds()
	rec.done(setup)

	// Programs. Every Send is timed by the benchmark itself; traced trials
	// also time every RecvFrom and keep both as spans keyed by (process,
	// round), buffered per goroutine.
	sendNS := make([][]int64, pairs)
	recvNS := make([]int64, pairs)
	programs := [2]map[int]func(*node.Process) error{{}, {}}
	for i := 0; i < pairs; i++ {
		i, sender, receiver := i, 2*i, 2*i+1
		sendNS[i] = make([]int64, rounds)
		programs[0][sender] = func(p *node.Process) error {
			lat, mark := sendNS[i], marks[i]
			var buf []span
			if rec != nil {
				buf = make([]span, 0, rounds)
			}
			for k := 0; k < rounds; k++ {
				start := time.Now()
				if _, err := p.Send(receiver); err != nil {
					return err
				}
				d := time.Since(start)
				lat[k] = int64(d)
				if rec != nil {
					s := rec.rel(start)
					buf = append(buf, span{parent: runSpans[0].id, name: "node.send", start: s, end: s + int64(d), proc: int32(sender), round: int32(k)})
				}
				if mark[k] {
					p.Internal("bench-tick")
				}
			}
			rec.addBuffered(buf)
			return nil
		}
		programs[1][receiver] = func(p *node.Process) error {
			var buf []span
			var wait int64
			if rec != nil {
				buf = make([]span, 0, rounds)
			}
			for k := 0; k < rounds; k++ {
				var start time.Time
				if rec != nil {
					start = time.Now()
				}
				if _, err := p.RecvFrom(sender); err != nil {
					return err
				}
				if rec != nil {
					end := time.Now()
					wait += int64(end.Sub(start))
					buf = append(buf, span{parent: runSpans[1].id, name: "node.recv", start: rec.rel(start), end: rec.rel(end), proc: int32(receiver), round: int32(k)})
				}
			}
			recvNS[i] = wait
			rec.addBuffered(buf)
			return nil
		}
	}

	// Measured region: both nodes' Run, from the first call to the last
	// return.
	infos := make([]*node.RunInfo, 2)
	errs := make([]error, 2)
	var rt0 rtSample
	if rec != nil {
		rt0 = sampleRuntime()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runStart := time.Now()
			infos[i], errs[i] = nodes[i].Run(programs[i])
			if rec != nil {
				runSpans[i].start, runSpans[i].end = rec.rel(runStart), rec.rel(time.Now())
			}
		}(i)
	}
	wg.Wait()
	t.wallS = time.Since(start).Seconds()
	t.e2e["mem_peak_mb"] = peakRSSMB()
	if rec != nil {
		runtimeLayer(rt0, sampleRuntime(), msgs, t.layer)
		rec.add(runSpans[:]...)
	}
	for _, nd := range nodes {
		nd.Close()
	}
	if err := errors.Join(errs...); err != nil {
		t.failed, t.runErr = msgs, err
		return t, nil
	}

	// Output checks, after timing.
	logs := make([][]csp.Record, nprocs)
	for _, info := range infos {
		for p, l := range info.Logs {
			logs[p] = l
		}
	}
	if !check {
		t.logs = logs
	} else {
		cs := rec.open("check.oracle", root.id)
		t.failed = checkStamps(dec, logs, msgs)
		if e.reference != nil {
			t.failed = max(t.failed, diffLogs(e.reference, logs))
		}
		rec.done(cs)
	}

	lat := make([]float64, 0, msgs)
	for _, l := range sendNS {
		for _, v := range l {
			lat = append(lat, float64(v))
		}
	}
	sort.Float64s(lat)
	t.setLatency(sortedQuantile(lat, 0.50), sortedQuantile(lat, 0.99))

	var frames wire.Stats
	var over core.Overhead
	for _, info := range infos {
		frames.Merge(info.Frames)
		over.Merge(info.Overhead)
	}
	nFrames, nBytes := frames.Total()
	t.e2e["wire_bytes_per_msg"] = float64(nBytes) / float64(msgs)
	if rec == nil {
		return t, nil
	}

	// Per-layer metrics of a traced trial.
	L := t.layer
	fm := float64(msgs)
	L["node.run_s"] = t.wallS
	for _, l := range sendNS {
		for _, d := range l {
			L["node.send_busy_s"] += float64(d) / 1e9
		}
	}
	for _, w := range recvNS {
		L["node.recv_wait_s"] += float64(w) / 1e9
	}
	L["decomp.d"] = float64(dec.D())
	L["decomp.best_s"] = best.Seconds()
	var retrans, spurious, dedup, suspicions int64
	var rtts, rtos []float64
	for _, info := range infos {
		retrans += info.Retransmits
		spurious += info.Spurious
		dedup += info.Deduped
		suspicions += info.Suspicions
		for _, r := range info.PeerRTT {
			rtts = append(rtts, float64(r.SRTTNS)/1e3)
			rtos = append(rtos, float64(r.RTONS)/1e3)
		}
	}
	L["node.dedup_per_kmsg"] = 1000 * float64(dedup) / fm
	writes := rec.writes.Load()
	L["transport.writes_per_msg"] = float64(writes) / fm
	L["transport.reads_per_msg"] = float64(rec.reads.Load()) / fm
	if writes > 0 {
		L["transport.frames_per_write"] = float64(nFrames) / float64(writes)
	}
	L["transport.write_s"] = float64(rec.writeNS.Load()) / 1e9
	L["transport.dial_s"] = float64(rec.dialNS.Load()) / 1e9
	L["wire.frames_per_msg"] = float64(nFrames) / fm
	for _, k := range []wire.Kind{wire.KindHello, wire.KindSyn, wire.KindAck, wire.KindBye} {
		L["wire.frames_per_msg."+strings.ToLower(k.String())] = float64(frames.Frames[k]) / fm
	}
	L["wire.vector_bytes_per_msg"] = float64(over.WireBytes) / fm
	L["wire.dense_bytes_per_msg"] = float64(over.DenseBytes) / fm
	L["sync.retransmits_per_kmsg"] = 1000 * float64(retrans) / fm
	if retrans > 0 {
		L["sync.spurious_frac"] = float64(spurious) / float64(retrans)
	}
	L["sync.srtt_us"] = median(rtts)
	L["sync.rto_us"] = median(rtos)
	L["sync.suspicions"] = float64(suspicions)
	rec.done(root)
	t.spans = rec.finish()
	L["trace.spans_per_trial"] = float64(len(t.spans))
	return t, nil
}
