package node

import (
	"fmt"
	"sync/atomic"
	"time"

	"syncstamp/internal/obs"
	tssync "syncstamp/internal/sync"
	"syncstamp/internal/wire"
)

// Asynchronous-substrate mode (RecoveryConfig.Async): the α-style
// synchronizer from internal/sync threaded through the runtime. Loss stops
// being an injected fault and becomes the operating assumption: every
// SYN/ACK toward a peer piggybacks a cumulative safe counter (the round
// acknowledgment of the synchronizer), the retransmission timer adapts to a
// per-peer Jacobson RTT estimate instead of the fixed min/max backoff, and
// a per-peer health FSM (healthy → degraded → suspect → excluded) lets the
// OnPeerLoss policy act on suspicion — an unresponsive peer — rather than
// waiting for a connection to die.
//
// The mode changes when frames move, never what the stamps say: under every
// async schedule the collected trace must equal the synchronous oracle's.
// That is also why none of the state here reaches the tracer or the flight
// recorder — retransmission timing is wall-clock nondeterminism, and the
// exported event streams are contractually byte-identical across runs. The
// synchronizer surfaces through metrics and RunInfo only.

// RTTStats is RunInfo's per-peer view of the RTT estimator and the health
// monitor in async mode. P50NS/P99NS are quantile upper bounds from the
// peer's RTT histogram (zero with obs disabled); the rest comes from the
// estimator and monitor directly.
type RTTStats struct {
	SRTTNS     int64
	RTONS      int64
	P50NS      int64
	P99NS      int64
	Samples    int64
	Spurious   int64
	Suspicions int64
}

// asyncOn reports whether the synchronizer is active.
func (n *Node) asyncOn() bool { return n.coord != nil }

// initAsync builds the synchronizer state after the Node's sizes are known.
// Called from New, before any connection exists.
func (n *Node) initAsync() {
	cfg := *n.rec.Async
	// The synchronizer's jitter seed doubles as the per-node identity salt,
	// so two nodes of one run never share a jitter stream.
	cfg.Seed = cfg.Seed*1_000_003 + int64(n.cfg.Node)
	n.coord = tssync.NewCoordinator(cfg, n.nodes, n.cfg.Node)
	n.safeTx = make([]atomic.Uint64, n.nodes)
	n.safeRx = make([]uint64, n.nodes)
	n.suspectWatch = make([]bool, n.nodes)
	if r := n.cfg.Obs.Registry(); r != nil {
		n.peerRTT = make([]*obs.Histogram, n.nodes)
		n.peerHealth = make([]*obs.Gauge, n.nodes)
		for j := 0; j < n.nodes; j++ {
			if j == n.cfg.Node {
				continue
			}
			n.peerRTT[j] = r.Histogram(obs.PeerMetric(obs.MetricPeerRTTNS, j), obs.LatencyEdges)
			n.peerHealth[j] = r.Gauge(obs.PeerMetric(obs.MetricPeerHealth, j))
		}
	}
}

// safeFor returns the safe counter to piggyback on a frame toward a peer
// node: the count of rendezvous this node has fully committed with it.
func (n *Node) safeFor(peer int) uint64 {
	if !n.asyncOn() || peer < 0 || peer >= len(n.safeTx) {
		return 0
	}
	return n.safeTx[peer].Load()
}

// noteSafe advances the safe counter toward a peer node by one committed
// rendezvous. The new value rides every subsequent SYN/ACK to that peer.
func (n *Node) noteSafe(peer int) {
	if !n.asyncOn() || peer < 0 || peer >= len(n.safeTx) {
		return
	}
	n.safeTx[peer].Add(1)
}

// noteAlive is the synchronizer's receive hook, called by the read loop for
// every frame a peer delivers: the frame itself is liveness evidence, and a
// SYN/ACK's Safe field advances our view of the peer's committed rounds.
// Evidence heals the health FSM (suspect → healthy on a late ACK); the
// healed state is mirrored into the health gauge.
func (n *Node) noteAlive(peer int, f *wire.Frame) {
	if !n.asyncOn() {
		return
	}
	if f.Kind == wire.KindSyn || f.Kind == wire.KindAck {
		n.mu.Lock()
		if f.Safe > n.safeRx[peer] {
			n.safeRx[peer] = f.Safe
		}
		n.mu.Unlock()
	}
	p := n.coord.Peer(peer)
	if p == nil {
		return
	}
	if st, changed := p.OnEvidence(); changed {
		n.setHealthGauge(peer, st)
	}
}

// noteTimeout is the synchronizer's timeout hook, called by a parked sender
// each time a retransmission interval expires unanswered, with its
// exchange's streak. A transition into suspect arms the degradation policy.
func (n *Node) noteTimeout(peer int, s *tssync.Streak) {
	p := n.coord.Peer(peer)
	if p == nil {
		return
	}
	st, changed := p.OnTimeout(s)
	if !changed {
		return
	}
	n.setHealthGauge(peer, st)
	if st == tssync.Suspect {
		n.noteSuspect(peer)
	}
}

// noteSuspect reacts to a peer turning suspect: count it, then let the
// degradation policy have it. Abort fails the run on suspicion itself;
// Wait and Exclude grant the peer the reconnect window to produce liveness
// evidence, enforced by a watchdog goroutine.
func (n *Node) noteSuspect(peer int) {
	n.suspicions.Add(1)
	n.ins.Suspicions.Add(1)
	if n.rec.OnPeerLoss == PeerLossAbort {
		n.fail(fmt.Errorf("node %d: node %d suspect after repeated unanswered retransmissions", n.cfg.Node, peer))
		return
	}
	n.mu.Lock()
	skip := n.suspectWatch[peer] || n.excluded[peer]
	if !skip {
		n.suspectWatch[peer] = true
	}
	n.mu.Unlock()
	if skip || n.stopped() {
		return
	}
	n.recoveryWG.Add(1)
	go n.watchSuspect(peer)
}

// watchSuspect grants a suspect peer the reconnect window, then applies the
// peer-loss policy if no liveness evidence healed it: exclude removes the
// peer from the run (its components freeze, parked rendezvous wake with
// ErrPeerLost), wait fails the run — the same window semantics recoverPeer
// applies to hard connection loss, now driven purely by unresponsiveness.
func (n *Node) watchSuspect(peer int) {
	defer n.recoveryWG.Done()
	timer := time.NewTimer(n.rec.ReconnectWindow)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-n.stop:
		n.mu.Lock()
		n.suspectWatch[peer] = false
		n.mu.Unlock()
		return
	}
	n.mu.Lock()
	n.suspectWatch[peer] = false
	n.mu.Unlock()
	p := n.coord.Peer(peer)
	if p == nil || p.State() != tssync.Suspect || n.stopped() || n.isExcluded(peer) {
		return // healed, already excluded, or the run is over
	}
	switch n.rec.OnPeerLoss {
	case PeerLossExclude:
		p.Exclude()
		n.setHealthGauge(peer, tssync.Excluded)
		n.excludePeer(peer)
	default:
		n.fail(fmt.Errorf("node %d: node %d suspect for %v with no liveness evidence", n.cfg.Node, peer, n.rec.ReconnectWindow))
	}
}

// setHealthGauge mirrors a health state into the peer's /metrics gauge.
func (n *Node) setHealthGauge(peer int, st tssync.State) {
	if n.peerHealth == nil || peer < 0 || peer >= len(n.peerHealth) {
		return
	}
	n.peerHealth[peer].Set(int64(st))
}

// asyncInfo fills RunInfo's synchronizer fields at end of run.
func (n *Node) asyncInfo(info *RunInfo) {
	if !n.asyncOn() {
		return
	}
	info.Spurious = n.spurious.Load()
	info.Suspicions = n.suspicions.Load()
	info.PeerRTT = make(map[int]RTTStats, n.nodes-1)
	info.PeerHealth = make(map[int]string, n.nodes-1)
	for j := 0; j < n.nodes; j++ {
		p := n.coord.Peer(j)
		if p == nil {
			continue
		}
		hs := p.Monitor().Stats()
		info.PeerHealth[j] = hs.State.String()
		n.setHealthGauge(j, hs.State)
		es := p.Estimator().Stats()
		if es.Samples == 0 {
			// Never measured — this node sent the peer nothing, or every
			// exchange was retransmitted (Karn). The estimator still holds
			// its initial guess, which is not an RTT of this link.
			continue
		}
		st := RTTStats{
			SRTTNS:     es.SRTT.Nanoseconds(),
			RTONS:      es.RTO.Nanoseconds(),
			Samples:    es.Samples,
			Spurious:   es.Spurious,
			Suspicions: hs.Suspicions,
		}
		if n.peerRTT != nil && n.peerRTT[j] != nil {
			hsnap := n.peerRTT[j].Snapshot()
			st.P50NS = hsnap.Quantile(0.50)
			st.P99NS = hsnap.Quantile(0.99)
		}
		info.PeerRTT[j] = st
	}
}
