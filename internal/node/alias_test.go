package node

import (
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/fault"
	"syncstamp/internal/graph"
	"syncstamp/internal/obs"
	tssync "syncstamp/internal/sync"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// aliasRun runs complete4 — four processes on two nodes, so every process
// has local and remote partners — for rounds rounds in which each of the
// six pairs exchanges a request and a reply. Every stamp Send or RecvFrom
// returns is deep-copied the moment it returns; the result holds, per
// process, the returned stamps and their copies, plus each node's RunInfo.
func aliasRun(t *testing.T, rounds int, cfg Config, transports []Transport) (got, want [][]vector.V, infos []*RunInfo) {
	t.Helper()
	g := graph.Complete(4)
	placement := []int{0, 1, 0, 1}
	got = make([][]vector.V, 4)
	want = make([][]vector.V, 4)
	keep := func(p *Process, stamp vector.V) {
		got[p.ID()] = append(got[p.ID()], stamp)
		want[p.ID()] = append(want[p.ID()], stamp.Clone())
	}
	exchange := func(p *Process, peer int, first bool) error {
		for i := 0; i < 2; i++ {
			if (i == 0) == first {
				stamp, err := p.Send(peer)
				if err != nil {
					return err
				}
				keep(p, stamp)
			} else {
				m, err := p.RecvFrom(peer)
				if err != nil {
					return err
				}
				keep(p, m.Stamp)
			}
		}
		return nil
	}
	programs := make(map[int]func(*Process) error, 4)
	for me := 0; me < 4; me++ {
		programs[me] = eachRound(rounds, func(p *Process) error {
			// The six unordered pairs in lexicographic order; the lower
			// process sends first.
			for lo := 0; lo < 4; lo++ {
				for hi := lo + 1; hi < 4; hi++ {
					if lo != p.ID() && hi != p.ID() {
						continue
					}
					peer := lo + hi - p.ID()
					if err := exchange(p, peer, p.ID() == lo); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	cfg.Placement, cfg.Dec = placement, decomp.Best(g)
	infos = runPair(t, cfg, transports, programs)
	return got, want, infos
}

// TestStampAliasSafety pins that the runtime never writes into a stamp it
// has handed out. The remote path decodes into reused frames, copies SYN
// vectors into per-sender receive slots, builds SYNs from a reused buffer
// and adopts in place, so a stamp that aliased any of those would change
// after Send or RecvFrom returned it. Every returned stamp and
// every RunInfo.Logs record must still equal the copy taken at return
// time — fail-stop, flush-per-frame, and async at 5% loss with a link
// reset, where retransmissions, dedup re-ACKs from the merge cache and a
// session resume all run.
func TestStampAliasSafety(t *testing.T) {
	cases := []struct {
		name       string
		cfg        Config
		transports func() []Transport
		lossy      bool
	}{
		{"failstop", Config{}, func() []Transport { return loopTransports(2) }, false},
		{"nocoalesce", Config{NoCoalesce: true}, func() []Transport { return loopTransports(2) }, false},
		{"async-loss5", Config{
			RendezvousTimeout: 20 * time.Second,
			Recovery: &RecoveryConfig{
				OnPeerLoss:      PeerLossWait,
				RetransmitMin:   2 * time.Millisecond,
				RetransmitMax:   20 * time.Millisecond,
				ReconnectWindow: 5 * time.Second,
				Async:           &tssync.Config{RTTInit: 5 * time.Millisecond, RTOMin: time.Millisecond, RTOMax: 100 * time.Millisecond, Seed: 3},
			},
		}, func() []Transport {
			plan := &fault.Plan{Seed: 3, Links: []fault.LinkFault{{From: -1, To: -1, Drop: 0.05, ResetAfter: []int{150}}}}
			loop := loopTransports(2)
			return []Transport{fault.New(loop[0], plan, 0), fault.New(loop[1], plan, 1)}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakCheck(t)
			got, want, infos := aliasRun(t, 40, tc.cfg, tc.transports())
			for p := range got {
				log := infos[[]int{0, 1, 0, 1}[p]].Logs[p]
				if len(log) != len(want[p]) {
					t.Fatalf("process %d logged %d records, returned %d stamps", p, len(log), len(want[p]))
				}
				for i := range want[p] {
					if !vector.Eq(got[p][i], want[p][i]) {
						t.Fatalf("process %d: stamp %d returned as %v changed to %v after return", p, i, want[p][i], got[p][i])
					}
					if !vector.Eq(log[i].Stamp, want[p][i]) {
						t.Fatalf("process %d: log record %d holds %v, the rendezvous returned %v", p, i, log[i].Stamp, want[p][i])
					}
				}
			}
			if !tc.lossy {
				return
			}
			var retransmits, deduped, reconnects int64
			for _, info := range infos {
				retransmits += info.Retransmits
				deduped += info.Deduped
				reconnects += info.Reconnects
			}
			if retransmits == 0 || deduped == 0 || reconnects == 0 {
				t.Fatalf("lossy run exercised too little: %d retransmits, %d deduped, %d reconnects; want all > 0", retransmits, deduped, reconnects)
			}
		})
	}
}

// TestCausalTicksPerRendezvous pins the causal-latency histogram on the
// distributed runtime: every completed Send, local or remote, observes
// StampSum(stamp) − StampSum(pre), where pre is the sender's clock when
// the send began — its previous stamp, since only rendezvous move a clock.
// Remote sends read pre from the reused send buffer, so the expectation
// is rebuilt from the logs independently.
func TestCausalTicksPerRendezvous(t *testing.T) {
	leakCheck(t)
	g := graph.Path(4)
	placement := []int{0, 1, 1, 2} // 1–2 is local, 0–1 and 2–3 remote
	programs := map[int]func(*Process) error{
		0: eachRound(10, func(p *Process) error { return chain(p, send(1), recv(1)) }),
		1: eachRound(10, func(p *Process) error { return chain(p, recv(0), send(2), recv(2), send(0)) }),
		2: eachRound(10, func(p *Process) error { return chain(p, recv(1), send(3), recv(3), send(1)) }),
		3: eachRound(10, func(p *Process) error { return chain(p, recv(2), send(2)) }),
	}
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()}
	infos := make([]*RunInfo, 3)
	errs := make([]error, 3)
	transports := loopTransports(3)
	dec := decomp.Best(g)
	var wg sync.WaitGroup
	for i := range infos {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := New(Config{Node: i, Placement: placement, Dec: dec, Obs: &obs.Obs{Metrics: regs[i]}}, transports[i])
			if err != nil {
				errs[i] = err
				return
			}
			defer n.Close()
			infos[i], errs[i] = n.Run(programs)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	local, remote := 0, 0
	for i, info := range infos {
		expect := obs.NewRegistry().Histogram(obs.MetricCausalTicks, obs.TickEdges)
		for p, log := range info.Logs {
			var prev int64
			for _, r := range log {
				if r.Kind == csp.RecordInternal {
					continue
				}
				sum := obs.StampSum(r.Stamp)
				if r.Kind == csp.RecordSend {
					expect.Observe(sum - prev)
					if placement[r.Peer] == placement[p] {
						local++
					} else {
						remote++
					}
				}
				prev = sum
			}
		}
		gotH := regs[i].Snapshot().Histograms[obs.MetricCausalTicks]
		wantH := expect.Snapshot()
		if !reflect.DeepEqual(gotH, wantH) {
			t.Errorf("node %d: %s = %+v, want %+v", i, obs.MetricCausalTicks, gotH, wantH)
		}
	}
	if local == 0 || remote == 0 {
		t.Fatalf("run had %d local and %d remote sends; the test needs both", local, remote)
	}
}

// TestRemoteRendezvousAllocs pins a warm remote rendezvous at exactly the
// two stamps the logs keep: the receiver's merged stamp and the clone of
// the ACK's vector the sender adopts. Frames decode into reused scratch,
// SYN vectors land in the receiver's slot for their sender, the SYN is
// built from the sender's reused buffer, and every frame is encoded into
// the connection's pending bytes — none of it allocates.
func TestRemoteRendezvousAllocs(t *testing.T) {
	leakCheck(t)
	const warm, runs = 1000, 200
	dec, placement := benchMatching(1)
	step := make(chan struct{})
	done := make(chan error)
	programs := map[int]func(*Process) error{
		0: func(p *Process) error {
			for range step {
				_, err := p.Send(1)
				done <- err
			}
			return nil
		},
		1: func(p *Process) error {
			// AllocsPerRun calls its function once more than runs.
			for k := 0; k < warm+1+runs; k++ {
				if _, err := p.RecvFrom(0); err != nil {
					return err
				}
			}
			return nil
		},
	}
	rendezvous := func() {
		step <- struct{}{}
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	measured := make(chan float64, 1)
	go func() {
		defer close(step)
		for k := 0; k < warm; k++ {
			rendezvous()
		}
		measured <- testing.AllocsPerRun(runs, rendezvous)
	}()
	runPair(t, Config{Placement: placement, Dec: dec}, loopTransports(2), programs)
	if allocs := <-measured; allocs != 2 {
		t.Fatalf("warm remote rendezvous allocates %.0f objects, want 2 (the receiver's merged stamp and the sender's adopted ACK stamp)", allocs)
	}
}

// TestReadLoopRejectsBogusSender pins the read loop's check on a SYN's
// sender, which indexes the receive slots and the dedup cache: a sender out
// of range, or one hosted on the receiving node itself, is a protocol
// violation that fails the node instead of indexing out of bounds or
// sharing a local process's slot.
func TestReadLoopRejectsBogusSender(t *testing.T) {
	dec := decomp.Best(graph.Path(3))
	for _, from := range []int{0, 3, 1 << 20} {
		n, err := New(Config{Node: 0, Placement: []int{0, 1, 0}, Dec: dec}, NewLoop(2).Transport(0))
		if err != nil {
			t.Fatal(err)
		}
		client, server := net.Pipe()
		pc := &peerConn{n: n, node: 1, c: server, dec: wire.NewDecoder(server, dec.D()), enc: wire.NewEncoder(server, dec.D())}
		n.readersWG.Add(1)
		go n.readLoop(pc)
		syn := &wire.Frame{Kind: wire.KindSyn, From: from, To: 2, Seq: 1, Vec: vector.New(dec.D())}
		if err := wire.NewEncoder(client, dec.D()).Encode(syn); err != nil {
			t.Fatal(err)
		}
		n.readersWG.Wait()
		if err := n.failure(); err == nil || !strings.Contains(err.Error(), "not a remote process") {
			t.Errorf("SYN from sender %d: node failure %v, want a protocol violation", from, err)
		}
		client.Close()
		server.Close()
		n.Close()
	}
}
