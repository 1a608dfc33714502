// Package node hosts processes of a synchronous computation behind a real
// transport, speaking the internal/wire rendezvous protocol between nodes.
// It is the distributed counterpart of internal/csp: the same program shape
// (func(*Process) error), the same Figure 5 clock discipline, the same
// per-process rendezvous logs — but processes are placed on nodes, nodes
// exchange length-prefixed frames over a Transport (TCP in production, an
// in-memory loop in tests), and the piggybacked vectors travel
// delta-compressed with exact overhead accounting.
//
// # Rendezvous over the wire
//
// A send to a process on another node is a two-phase exchange:
//
//	(1) the sender piggybacks its current vector on a SYN frame;
//	(2) the receiving process performs the Figure 5 merge (componentwise
//	    max, increment the channel's group component), which yields the
//	    message timestamp;
//	(3) the receiver returns the agreed stamp on an ACK frame and the
//	    sender adopts it (core.Clock.Adopt) — equivalent to the symmetric
//	    merge, since the stamp dominates the sender's vector.
//
// A send to a process on the same node takes the identical path over an
// in-memory reply channel, so local and remote rendezvous are
// indistinguishable to programs.
//
// # Topology of a run
//
// Placement maps every process to its node. Nodes form a full data mesh:
// the higher-numbered node dials the lower, and each connection opens with
// a HELLO handshake carrying the node id, its hosted processes, and a
// digest of the edge decomposition plus placement — nodes configured with
// different topologies refuse to talk. After its programs finish, a node
// streams its rendezvous logs to a collector node, which reconstructs the
// global computation with csp.Reconstruct.
package node

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"syncstamp/internal/core"
	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/obs"
	tssync "syncstamp/internal/sync"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// ErrStopped is returned by Send/Recv when the node has been stopped or the
// run aborted (a peer failure, a deadline, or an explicit Stop).
var ErrStopped = errors.New("node: stopped")

// Default timeouts applied when Config leaves them zero.
const (
	DefaultHandshakeTimeout  = 10 * time.Second
	DefaultRendezvousTimeout = 10 * time.Second
)

// Config describes one node's slice of a distributed run. All nodes of a
// run must agree on Placement and Dec — the HELLO digest enforces it.
type Config struct {
	// Node is this node's index in [0, nodes).
	Node int
	// Placement maps each process to the node hosting it. Its length must
	// equal Dec.N(), and every node index up to the maximum must host at
	// least one process.
	Placement []int
	// Dec is the edge decomposition all clocks run under.
	Dec *decomp.Decomposition
	// HandshakeTimeout bounds connection establishment (dial retries
	// included) and the HELLO exchange. Zero means the default.
	HandshakeTimeout time.Duration
	// RendezvousTimeout bounds how long a Send waits for its ACK (or local
	// reply). Exceeding it aborts the run: a synchronous computation cannot
	// proceed past a lost rendezvous partner. Zero means the default.
	RendezvousTimeout time.Duration
	// Obs is the node's observability surface. Nil disables it; the
	// rendezvous hot paths then cost nothing extra.
	Obs *obs.Obs
	// FlightRecorder, when positive, turns on the always-on flight
	// recorder: a fixed ring of that many recent rendezvous/internal
	// events, recorded on the same obs hooks the tracer uses but bounded,
	// so it is cheap enough to leave on in production. The ring is dumped
	// to FlightDump on the first failure, on a peer loss, at end of run,
	// and on demand (SIGQUIT / the /debug/flight?dump=1 endpoint). When
	// Obs is nil a minimal surface is created to host the ring.
	FlightRecorder int
	// FlightDump is the file the flight recorder dumps to — a journal-style
	// JSONL of the ring's events in deterministic stamp order, written
	// atomically (temp file, fsync, rename) so a reader never sees a torn
	// dump. Empty keeps the ring in memory only (still served over
	// /debug/flight).
	FlightDump string
	// Recovery, when non-nil, enables the loss-tolerant protocol:
	// retransmission, dedup, reconnection, degradation policy, and
	// (optionally) crash-recovery journaling. Nil keeps the original
	// fail-stop semantics: any connection error aborts the run.
	Recovery *RecoveryConfig
}

// inbound is one rendezvous request parked in a process's mailbox: the
// sender's pre-merge vector, awaiting the receiver's merge. A local sender
// parks on its reply slot; a remote sender parks on the ACK frame the
// receiver's node sends back.
type inbound struct {
	from  int
	seq   uint64
	vec   vector.V
	reply chan reply // the local sender's reply slot; nil for remote senders
}

// reply is one answer on a sender's reply slot: the agreed stamp, tagged
// with the sequence number of the send it answers. The slot is reused by
// every Send of the process, so the tag is what tells a live answer from a
// stale one.
type reply struct {
	seq uint64
	vec vector.V
}

// peerConn is one established data connection to a peer node. A sender
// encodes its frame straight into the connection's pending byte buffer and
// returns at once; the connection's writer goroutine swaps that buffer out
// and hands it to the transport (see writeLoop). The decoder is owned by
// the connection's reader goroutine.
type peerConn struct {
	n     *Node
	node  int
	epoch int // HELLO epoch; reconnects carry strictly larger ones
	c     net.Conn
	dec   *wire.Decoder

	// mu guards the encoder (its delta baselines and accounting), the
	// pending bytes and the writer's lifecycle. A sender wakes the writer
	// only when pend goes from empty to non-empty, under mu; shut closes
	// wake under the same lock, so a signal never races the close.
	mu    sync.Mutex
	enc   *wire.Encoder
	pend  []byte        // encoded frames awaiting the writer
	marks []flushMark   // write boundaries inside pend, ascending
	wake  chan struct{} // capacity 1
	shut  bool          // no further sends; the writer drains and exits
	err   error         // first write error; sticky, later sends fail fast

	// Owned by the writer goroutine: the buffers it last wrote, handed back
	// as the next pend and marks; done is closed when the writer exits.
	out      []byte
	outMarks []flushMark
	done     chan struct{}
}

// flushMark ends a transport write at offset end of the pending bytes: the
// end of a BYE frame, whose sender waits on done for that write's outcome.
type flushMark struct {
	end  int
	done chan error
}

// errConnClosed is a send on a connection whose writer has been shut.
var errConnClosed = errors.New("node: connection closed")

func newPeerConn(n *Node, node, epoch int, c net.Conn, enc *wire.Encoder, dec *wire.Decoder) *peerConn {
	return &peerConn{n: n, node: node, epoch: epoch, c: c, enc: enc, dec: dec,
		wake: make(chan struct{}, 1), done: make(chan struct{})}
}

// send encodes one frame into the pending buffer for the writer and
// returns without waiting for the transport. Once it returns nothing
// queued refers to f or its vector, so the caller may reuse both at once.
// It fails when f does not encode (nothing is queued then) or the
// connection is already known to be dead: a previous write failed, or the
// connection was shut.
func (pc *peerConn) send(f *wire.Frame) error {
	return pc.enqueue(f, nil)
}

// sendFlushed queues one frame and waits until the writer has handed it to
// the transport, returning that write's outcome. BYE uses it: the
// end-of-run bookkeeping (byeFailed) must know whether the announcement
// left the node.
func (pc *peerConn) sendFlushed(f *wire.Frame) error {
	ch := make(chan error, 1)
	if err := pc.enqueue(f, ch); err != nil {
		return err
	}
	return <-ch
}

func (pc *peerConn) enqueue(f *wire.Frame, flushed chan error) error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.err != nil {
		return pc.err
	}
	if pc.shut {
		return errConnClosed
	}
	idle := len(pc.pend) == 0
	if err := pc.encode(f); err != nil {
		return err // nothing was queued; the stream is intact
	}
	if flushed != nil {
		pc.marks = append(pc.marks, flushMark{end: len(pc.pend), done: flushed})
	}
	if idle {
		select {
		case pc.wake <- struct{}{}:
		default: // a wake is already pending
		}
	}
	return nil
}

// encode appends one frame to the pending buffer and charges the node's
// live wire-traffic counters (no-ops with obs disabled). Caller holds mu.
func (pc *peerConn) encode(f *wire.Frame) error {
	if pc.n.asyncOn() && (f.Kind == wire.KindSyn || f.Kind == wire.KindAck) {
		// Async mode piggybacks the synchronizer's cumulative safe counter on
		// every rendezvous frame toward this peer, read when the frame is
		// queued, so a retransmission carries the value current at its own
		// queueing.
		f.Safe = pc.n.safeFor(pc.node)
	}
	before := len(pc.pend)
	buf, err := pc.enc.Append(pc.pend, f)
	if err != nil {
		return err
	}
	pc.pend = buf
	if k := int(f.Kind); k < len(pc.n.wireBytes) {
		pc.n.wireFrames[k].Add(1)
		pc.n.wireBytes[k].Add(int64(len(buf) - before))
	}
	return nil
}

// stop shuts the writer: queued frames are still written, later sends
// fail. Idempotent.
func (pc *peerConn) stop() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if !pc.shut {
		pc.shut = true
		close(pc.wake)
	}
}

// close aborts the connection: the writer is shut and the transport
// stream closed under it, so a write in progress fails promptly.
func (pc *peerConn) close() {
	pc.stop()
	_ = pc.c.Close()
}

// drain shuts the writer and waits until every queued frame has been
// written (or has failed) and the writer has exited.
func (pc *peerConn) drain() {
	pc.stop()
	<-pc.done
}

// writeLoop is the connection's writer goroutine. Each wake means the
// pending buffer went non-empty; the writer takes everything encoded so
// far and writes it, so a burst of concurrent SYNs/ACKs from independent
// channel pairs shares one transport write while a lone frame still goes
// out without waiting for company. After shut it writes what was queued
// before the close and exits.
//
// The one yield per wake is what makes batches form. The channel send that
// wakes the writer puts it in the waking P's runnext slot, so it runs
// before the processes readied alongside it and every write would carry
// exactly one frame (measured on pairs-tcp: 1.00 frames per write and about
// half the throughput). Yielding once moves the writer behind them; they
// queue their frames, and the next write takes them all. With nothing else
// runnable the yield returns at once.
func (pc *peerConn) writeLoop() {
	defer pc.n.writersWG.Done()
	defer close(pc.done)
	for range pc.wake {
		runtime.Gosched()
		pc.writePending()
	}
	pc.writePending()
}

// writePending swaps out the pending bytes and writes them: one transport
// write up to each flush mark — whose waiter learns that write's outcome —
// and one for the rest. A BYE's mark matters because the peer may hang up
// the moment it reads the BYE, and frames queued behind it must not turn a
// delivered BYE into a failed one. After a write error the stream is
// unusable: the remaining bytes are discarded and every waiter gets the
// error.
func (pc *peerConn) writePending() {
	pc.mu.Lock()
	buf, marks, err := pc.pend, pc.marks, pc.err
	pc.pend, pc.marks = pc.out[:0], pc.outMarks[:0]
	pc.mu.Unlock()
	start := 0
	for _, m := range marks {
		if err == nil {
			_, err = pc.c.Write(buf[start:m.end])
		}
		start = m.end
		m.done <- err // buffered; the waiter is parked on it
	}
	if err == nil && start < len(buf) {
		_, err = pc.c.Write(buf[start:])
	}
	pc.out, pc.outMarks = buf, marks
	if err != nil {
		pc.writeFailed(err)
	}
}

// writeFailed records the connection's first write error, after which
// sends fail fast. Fail-stop mode aborts the run, as a failed send
// always has; recovery mode closes the stream so the reader sees the loss
// and drives the reconnect.
func (pc *peerConn) writeFailed(err error) {
	pc.mu.Lock()
	first := pc.err == nil
	if first {
		pc.err = err
	}
	pc.mu.Unlock()
	if !first || pc.n.stopped() {
		return
	}
	if pc.n.rec == nil {
		pc.n.fail(fmt.Errorf("node %d: connection to node %d: %w", pc.n.cfg.Node, pc.node, err))
		return
	}
	_ = pc.c.Close()
}

// overhead snapshots the encoder's piggyback accounting.
func (pc *peerConn) overhead() core.Overhead {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.enc.Overhead
}

// stats snapshots the encoder's per-kind frame accounting.
func (pc *peerConn) stats() wire.Stats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.enc.Stats
}

// reportConn is an inbound log-report stream awaiting Collect.
type reportConn struct {
	node  int
	procs []int
	c     net.Conn
	dec   *wire.Decoder
}

// Node hosts the processes placed on one node and the connections to its
// peers. Create with New, drive with Run, and release with Close.
type Node struct {
	cfg    Config
	nodes  int
	local  []int // processes hosted here, ascending
	digest uint64
	tr     Transport

	stop     chan struct{}
	stopOnce sync.Once

	failMu  sync.Mutex
	failErr error

	mu         sync.Mutex
	conns      []*peerConn   // indexed by peer node; nil until connected
	waiters    []chan reply  // indexed by local sender process; nil unless a send is parked
	waiterSeq  []uint64      // sequence number each parked sender expects its ACK to echo
	retired    []*peerConn   // replaced or dead connections, kept for accounting
	epochs     []int         // highest HELLO epoch used/seen per peer
	excluded   []bool        // peers removed from the run (PeerLossExclude)
	byeSeen    []bool        // peers that announced completion
	byeFailed  []bool        // peers our own BYE provably did not reach
	recovering []bool        // peers with a recoverPeer goroutine in flight
	byeSent    bool          // this node announced completion
	exclCh     chan struct{} // closed+replaced on each exclusion (broadcast)

	mailboxes []chan inbound // indexed by process; nil for remote processes
	rxSlots   []vector.V     // receive slot per remote sender process; see rxVec

	// Recovery state (rec nil means fail-stop).
	rec        *RecoveryConfig
	dedup      []dedupEntry // per sender process, guarded by mu
	restored   map[int]*resumeState
	baseEpoch  int
	peerEvent  chan struct{}
	recoveryWG sync.WaitGroup

	// Asynchronous-substrate state (coord nil means the synchronizer is
	// off; see async.go). safeTx counts committed rendezvous toward each
	// peer node (piggybacked on outgoing SYN/ACK); safeRx (guarded by mu)
	// is the highest safe counter seen from each peer; suspectWatch
	// (guarded by mu) marks peers with a suspicion watchdog in flight.
	coord        *tssync.Coordinator
	safeTx       []atomic.Uint64
	safeRx       []uint64
	suspectWatch []bool
	peerRTT      []*obs.Histogram
	peerHealth   []*obs.Gauge

	retransmits atomic.Int64
	reconnects  atomic.Int64
	deduped     atomic.Int64
	spurious    atomic.Int64
	suspicions  atomic.Int64

	reports   chan *reportConn
	regCh     chan int      // handshake completions from the accept loop
	connDone  chan struct{} // closed once the connect phase stops counting
	acceptWG  sync.WaitGroup
	readersWG sync.WaitGroup
	writersWG sync.WaitGroup
	startOnce sync.Once

	// Observability: the surface, its resolved instruments, the per-kind
	// wire-traffic counters, and the dropped-frame count (kept even with
	// obs disabled, so RunInfo can always report it).
	obsv       *obs.Obs
	ins        obs.Instruments
	wireFrames [wire.KindMax]*obs.Counter
	wireBytes  [wire.KindMax]*obs.Counter
	dropped    atomic.Int64

	// rollup accumulates peer nodes' METRICS snapshots during a collect
	// (created lazily, guarded by mu); dumpMu serializes flight dumps.
	rollup *obs.Registry
	dumpMu sync.Mutex
}

// New validates the configuration and returns an idle node. The transport
// is adopted: Close closes it.
func New(cfg Config, tr Transport) (*Node, error) {
	if cfg.Dec == nil {
		return nil, errors.New("node: nil decomposition")
	}
	if len(cfg.Placement) != cfg.Dec.N() {
		return nil, fmt.Errorf("node: placement covers %d processes, decomposition has %d", len(cfg.Placement), cfg.Dec.N())
	}
	nodes := cfg.Node + 1
	for p, host := range cfg.Placement {
		if host < 0 {
			return nil, fmt.Errorf("node: process %d placed on negative node %d", p, host)
		}
		if host+1 > nodes {
			nodes = host + 1
		}
	}
	if cfg.Node < 0 {
		return nil, fmt.Errorf("node: negative node index %d", cfg.Node)
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if cfg.RendezvousTimeout <= 0 {
		cfg.RendezvousTimeout = DefaultRendezvousTimeout
	}
	if cfg.Recovery != nil {
		rc := *cfg.Recovery // normalized copy; the caller's struct stays untouched
		if rc.RetransmitMin <= 0 {
			rc.RetransmitMin = DefaultRetransmitMin
		}
		if rc.RetransmitMax < rc.RetransmitMin {
			rc.RetransmitMax = DefaultRetransmitMax
		}
		if rc.RetransmitMax < rc.RetransmitMin {
			rc.RetransmitMax = rc.RetransmitMin
		}
		if rc.ReconnectWindow <= 0 {
			rc.ReconnectWindow = cfg.HandshakeTimeout
		}
		if rc.Async != nil {
			ac := *rc.Async
			if err := ac.Validate(); err != nil {
				return nil, fmt.Errorf("node: %w", err)
			}
			rc.Async = &ac
		}
		cfg.Recovery = &rc
	}
	n := &Node{
		cfg:        cfg,
		nodes:      nodes,
		digest:     wire.Digest(cfg.Dec, cfg.Placement),
		tr:         tr,
		stop:       make(chan struct{}),
		conns:      make([]*peerConn, nodes),
		waiters:    make([]chan reply, cfg.Dec.N()),
		waiterSeq:  make([]uint64, cfg.Dec.N()),
		epochs:     make([]int, nodes),
		excluded:   make([]bool, nodes),
		byeSeen:    make([]bool, nodes),
		byeFailed:  make([]bool, nodes),
		recovering: make([]bool, nodes),
		exclCh:     make(chan struct{}),
		mailboxes:  make([]chan inbound, cfg.Dec.N()),
		rxSlots:    make([]vector.V, cfg.Dec.N()),
		reports:    make(chan *reportConn, nodes),
		regCh:      make(chan int, nodes),
		connDone:   make(chan struct{}),
		rec:        cfg.Recovery,
		dedup:      make([]dedupEntry, cfg.Dec.N()),
		restored:   make(map[int]*resumeState),
		peerEvent:  make(chan struct{}, 1),
	}
	for p, host := range cfg.Placement {
		if host == cfg.Node {
			n.local = append(n.local, p)
			// One slot per potential sender keeps any valid computation's
			// senders from blocking on mailbox insertion.
			n.mailboxes[p] = make(chan inbound, cfg.Dec.N())
		}
	}
	n.obsv = cfg.Obs
	if cfg.FlightRecorder > 0 {
		if n.obsv == nil {
			// A minimal surface: no metrics, no tracer — just the ring.
			n.obsv = &obs.Obs{}
			n.cfg.Obs = n.obsv
		}
		if n.obsv.Flight == nil {
			n.obsv.Flight = obs.NewFlight(cfg.FlightRecorder)
		}
		n.obsv.Flight.SetDumpHook(func() { n.DumpFlight() })
	}
	n.ins = obs.NewInstruments(n.cfg.Obs.Registry(), cfg.Dec.N())
	if r := n.cfg.Obs.Registry(); r != nil {
		for _, k := range wire.Kinds() {
			fn, bn := obs.FrameMetrics(k.String())
			n.wireFrames[k] = r.Counter(fn)
			n.wireBytes[k] = r.Counter(bn)
		}
	}
	if n.rec != nil && n.rec.Async != nil {
		n.initAsync()
	}
	return n, nil
}

// Local returns the processes hosted on this node, ascending.
func (n *Node) Local() []int { return append([]int(nil), n.local...) }

// Stop aborts the run: parked Sends and Recvs return ErrStopped, readers
// and the accept loop unblock. Idempotent.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stop)
		_ = n.tr.Close()
		n.mu.Lock()
		conns := append([]*peerConn(nil), n.conns...)
		n.mu.Unlock()
		for _, pc := range conns {
			if pc != nil {
				pc.close()
			}
		}
	})
}

// Close stops the node and waits for its goroutines to drain.
func (n *Node) Close() {
	n.Stop()
	n.acceptWG.Wait()
	n.recoveryWG.Wait()
	n.readersWG.Wait()
	n.writersWG.Wait()
}

// fail records the first abort cause and stops the node. The first failure
// also dumps the flight recorder — the post-mortem is written while the
// evidence is fresh, before teardown races can rotate events out of the
// ring.
func (n *Node) fail(err error) {
	n.failMu.Lock()
	first := n.failErr == nil
	if first {
		n.failErr = err
	}
	n.failMu.Unlock()
	if first {
		n.DumpFlight()
	}
	n.Stop()
}

func (n *Node) failure() error {
	n.failMu.Lock()
	defer n.failMu.Unlock()
	return n.failErr
}

func (n *Node) stopped() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

// start launches the accept loop (first Run or Collect does it).
func (n *Node) start() {
	n.startOnce.Do(func() {
		n.acceptWG.Add(1)
		go n.acceptLoop()
	})
}

// acceptLoop owns Transport.Accept, performing the HELLO handshake inline
// and dispatching each stream by role: data connections get a reader
// goroutine, report streams are parked for Collect.
func (n *Node) acceptLoop() {
	defer n.acceptWG.Done()
	for {
		c, err := n.tr.Accept()
		if err != nil {
			return // transport closed (Stop or Close)
		}
		if err := n.handleAccept(c); err != nil {
			_ = c.Close()
			if !n.stopped() {
				n.fail(err)
			}
			return
		}
	}
}

// handleAccept completes the server side of the HELLO handshake.
func (n *Node) handleAccept(c net.Conn) error {
	_ = c.SetDeadline(time.Now().Add(n.cfg.HandshakeTimeout))
	dec := wire.NewDecoder(c, n.cfg.Dec.D())
	f, err := dec.Decode()
	if err != nil {
		return fmt.Errorf("node %d: handshake read: %w", n.cfg.Node, err)
	}
	if f.Kind != wire.KindHello {
		return fmt.Errorf("node %d: handshake opened with %v, want HELLO", n.cfg.Node, f.Kind)
	}
	if f.Digest != n.digest {
		return fmt.Errorf("node %d: node %d has topology digest %#x, ours is %#x (mismatched decomposition or placement)", n.cfg.Node, f.Node, f.Digest, n.digest)
	}
	if f.Node < 0 || f.Node >= n.nodes || f.Node == n.cfg.Node {
		return fmt.Errorf("node %d: handshake from implausible node %d", n.cfg.Node, f.Node)
	}
	switch f.Role {
	case wire.RoleData:
		enc := wire.NewEncoder(c, n.cfg.Dec.D())
		enc.SelfContained = n.rec != nil
		hello := &wire.Frame{Kind: wire.KindHello, Role: wire.RoleData, Node: n.cfg.Node, Procs: n.local, Digest: n.digest, Epoch: f.Epoch}
		if err := enc.Encode(hello); err != nil {
			return fmt.Errorf("node %d: handshake reply to node %d: %w", n.cfg.Node, f.Node, err)
		}
		_ = c.SetDeadline(time.Time{})
		if err := n.register(newPeerConn(n, f.Node, f.Epoch, c, enc, dec)); err != nil {
			return err
		}
		// Announce to the connect phase if it is still counting peers; a
		// reconnect accepted after the mesh is up has no one to tell.
		select {
		case n.regCh <- f.Node:
		case <-n.connDone:
		case <-n.stop:
		}
		return nil
	case wire.RoleReport:
		_ = c.SetDeadline(time.Time{})
		select {
		case n.reports <- &reportConn{node: f.Node, procs: f.Procs, c: c, dec: dec}:
			return nil
		case <-n.stop:
			return ErrStopped
		}
	default:
		return fmt.Errorf("node %d: handshake with unknown role %d", n.cfg.Node, f.Role)
	}
}

// register records an established data connection and starts its reader
// and writer. A connection with a strictly higher HELLO epoch replaces the
// existing one (session resume after a peer loss this side has not noticed
// yet); equal or lower epochs are duplicates and refused, and so is any
// connection after Stop, which would otherwise escape its teardown.
func (n *Node) register(pc *peerConn) error {
	n.mu.Lock()
	stopped := n.stopped()
	old := n.conns[pc.node]
	dup := old != nil && pc.epoch <= old.epoch
	var announce bool
	if !stopped && !dup {
		// Joined by Close; added under mu so a Stop racing this registration
		// either sees the connection or makes the check above refuse it.
		n.readersWG.Add(1)
		n.writersWG.Add(1)
		n.conns[pc.node] = pc
		if pc.epoch > n.epochs[pc.node] {
			n.epochs[pc.node] = pc.epoch
		}
		if old != nil {
			n.retired = append(n.retired, old)
		}
		announce = n.byeSent
	}
	n.mu.Unlock()
	if stopped {
		return ErrStopped
	}
	if dup {
		return fmt.Errorf("node %d: duplicate connection from node %d", n.cfg.Node, pc.node)
	}
	if old != nil {
		old.close()
	}
	if pc.epoch > 0 {
		n.reconnects.Add(1)
		n.ins.Reconnects.Add(1)
	}
	go n.readLoop(pc)
	go pc.writeLoop()
	if announce {
		// Our run already finished; the resumed session must still learn it
		// (and a BYE the dead session swallowed is re-announced here, which
		// settles the debt holding our own end-of-run barrier open).
		if err := pc.sendFlushed(&wire.Frame{Kind: wire.KindBye}); err == nil {
			n.mu.Lock()
			n.byeFailed[pc.node] = false
			n.mu.Unlock()
			n.notePeerEvent()
		} else {
			n.noteByeFailed(pc.node, pc)
		}
	}
	return nil
}

// dialPeer completes the client side of the HELLO handshake with a
// lower-numbered node. epoch 0 is a first connection; reconnects carry
// strictly larger epochs so the acceptor can replace a stale session.
func (n *Node) dialPeer(j, epoch int) error {
	deadline := time.Now().Add(n.cfg.HandshakeTimeout)
	c, err := n.tr.Dial(j, deadline)
	if err != nil {
		return fmt.Errorf("node %d: %w", n.cfg.Node, err)
	}
	_ = c.SetDeadline(deadline)
	enc := wire.NewEncoder(c, n.cfg.Dec.D())
	enc.SelfContained = n.rec != nil
	hello := &wire.Frame{Kind: wire.KindHello, Role: wire.RoleData, Node: n.cfg.Node, Procs: n.local, Digest: n.digest, Epoch: epoch}
	if err := enc.Encode(hello); err != nil {
		_ = c.Close()
		return fmt.Errorf("node %d: handshake with node %d: %w", n.cfg.Node, j, err)
	}
	dec := wire.NewDecoder(c, n.cfg.Dec.D())
	f, err := dec.Decode()
	if err != nil {
		_ = c.Close()
		return fmt.Errorf("node %d: handshake reply from node %d: %w", n.cfg.Node, j, err)
	}
	if f.Kind != wire.KindHello || f.Node != j {
		_ = c.Close()
		return fmt.Errorf("node %d: handshake reply from node %d carried %v/node %d", n.cfg.Node, j, f.Kind, f.Node)
	}
	if f.Digest != n.digest {
		_ = c.Close()
		return fmt.Errorf("node %d: node %d has topology digest %#x, ours is %#x (mismatched decomposition or placement)", n.cfg.Node, j, f.Digest, n.digest)
	}
	_ = c.SetDeadline(time.Time{})
	return n.register(newPeerConn(n, j, epoch, c, enc, dec))
}

// connect establishes the full data mesh: dial every lower node, await a
// dial from every higher one.
func (n *Node) connect() error {
	n.start()
	n.mu.Lock()
	epoch := n.baseEpoch // 0, or the restart stride after a journal Restore
	n.mu.Unlock()
	for j := 0; j < n.cfg.Node; j++ {
		if err := n.dialPeer(j, epoch); err != nil {
			return err
		}
	}
	want := n.nodes - 1 - n.cfg.Node
	timer := time.NewTimer(n.cfg.HandshakeTimeout)
	defer timer.Stop()
	for have := 0; have < want; {
		select {
		case <-n.regCh:
			have++
		case <-n.stop:
			if err := n.failure(); err != nil {
				return err
			}
			return ErrStopped
		case <-timer.C:
			return fmt.Errorf("node %d: %d of %d higher peers connected within %v", n.cfg.Node, have, want, n.cfg.HandshakeTimeout)
		}
	}
	close(n.connDone)
	return nil
}

// readLoop demultiplexes one data connection: SYNs go to the target
// process's mailbox, ACKs release the parked sender, BYE announces the
// peer's clean completion. Any protocol violation or transport error while
// the run is live aborts the node.
//
// Every frame is decoded into one scratch frame, so nothing the decoder
// produces outlives the next read: a delivered SYN's vector is copied into
// its sender's receive slot (rxVec), and an ACK's into the one clone the
// sender adopts and logs.
func (n *Node) readLoop(pc *peerConn) {
	defer n.readersWG.Done()
	var f wire.Frame
	for {
		if err := pc.dec.DecodeInto(&f); err != nil {
			if n.stopped() {
				return
			}
			if n.rec != nil {
				// Loss-tolerant mode: the connection died, the run need not.
				n.peerLost(pc, err)
				return
			}
			n.fail(fmt.Errorf("node %d: connection to node %d: %w", n.cfg.Node, pc.node, err))
			return
		}
		n.noteAlive(pc.node, &f)
		switch f.Kind {
		case wire.KindSyn:
			if f.To < 0 || f.To >= len(n.mailboxes) || n.mailboxes[f.To] == nil {
				n.fail(fmt.Errorf("node %d: SYN from node %d targets process %d, not hosted here", n.cfg.Node, pc.node, f.To))
				return
			}
			if f.From < 0 || f.From >= len(n.cfg.Placement) || n.cfg.Placement[f.From] == n.cfg.Node {
				n.fail(fmt.Errorf("node %d: SYN from node %d claims sender %d, not a remote process", n.cfg.Node, pc.node, f.From))
				return
			}
			var vec vector.V
			if n.rec != nil {
				var reack bool
				if vec, reack = n.dedupCheck(&f); vec == nil {
					if reack {
						// The merge committed but its ACK was lost: answer
						// the retransmission from the cache, idempotently.
						// Inline: send only encodes the frame for the
						// writer, so the read loop, this connection's only
						// drain, never blocks on it.
						_ = pc.send(&f)
					}
					continue
				}
			} else {
				vec = n.rxVec(&f, false)
			}
			select {
			case n.mailboxes[f.To] <- inbound{from: f.From, seq: f.Seq, vec: vec}:
			case <-n.stop:
				return
			}
		case wire.KindAck:
			// Delivery happens under mu, where registerWaiter empties the
			// sender's reused reply slot: an ACK can land in the slot only
			// while the send it answers is registered, so no stale ACK ever
			// sits ahead of the live one.
			n.mu.Lock()
			delivered := false
			if f.To >= 0 && f.To < len(n.waiters) && n.waiters[f.To] != nil && n.waiterSeq[f.To] == f.Seq {
				select {
				case n.waiters[f.To] <- reply{seq: f.Seq, vec: f.Vec.Clone()}:
					delivered = true
				default: // unreachable: the slot was emptied at registration
				}
				n.waiters[f.To] = nil
			}
			n.mu.Unlock()
			if !delivered {
				// A sender whose rendezvous deadline expired has already
				// cleared its waiter, and a duplicate ACK's sender has moved
				// on to another sequence number — both are legitimate races,
				// not protocol violations: count and keep reading.
				n.noteDropped()
			}
		case wire.KindBye:
			n.mu.Lock()
			n.byeSeen[pc.node] = true
			n.mu.Unlock()
			n.notePeerEvent()
			if n.rec != nil {
				// Keep draining: at-least-once delivery means retransmissions,
				// duplicates, and reorder stragglers can trail the peer's BYE,
				// and a parked writer on the far side needs them consumed (and
				// lost-ACK retransmissions still answered from the dedup
				// cache). The loop ends when the connection is torn down.
				continue
			}
			return
		default:
			// HELLO or INTERNAL frames do not belong on an established data
			// stream; count and drop them rather than killing the run.
			n.noteDropped()
		}
	}
}

// rxVec returns the vector a delivered SYN carries into its receiver's
// mailbox. The read loop's scratch frame is overwritten by the next read,
// so the vector is copied into the receive slot of its sender process —
// one d-vector per remote sender, allocated on that sender's first SYN —
// and Merge only borrows it from there.
//
// A slot is never overwritten while a mailbox entry still refers to it:
//   - the sender's next SYN is sent only after the ACK for this one;
//   - that ACK is queued only after complete has merged this one;
//   - a retransmitted duplicate is dropped by dedupCheck before any copy
//     is made.
//
// The one exception is a send its sender abandoned with ErrPeerLost under
// recovery: its successor can arrive while the abandoned request is still
// parked, so dedupCheck passes busy and that SYN gets a copy of its own.
func (n *Node) rxVec(f *wire.Frame, busy bool) vector.V {
	if busy {
		return f.Vec.Clone()
	}
	slot := n.rxSlots[f.From]
	if slot == nil {
		slot = vector.New(len(f.Vec))
		n.rxSlots[f.From] = slot
	}
	copy(slot, f.Vec)
	return slot
}

// noteDropped records one discarded frame, both for RunInfo and /metrics.
func (n *Node) noteDropped() {
	n.dropped.Add(1)
	n.ins.DroppedFrames.Add(1)
}

// DroppedFrames reports how many frames the read loops have discarded so
// far (late ACKs after a rendezvous timeout, unexpected kinds).
func (n *Node) DroppedFrames() int64 { return n.dropped.Load() }

// registerWaiter parks a sender on its reply slot: the next ACK addressed
// to proc and echoing seq lands on ch. Must be called before the SYN is
// queued, or the ACK could race past. A reply left in the slot by an
// abandoned send is discarded and counted as dropped; it is emptied under
// mu, the lock the read loop delivers under, so nothing stale can arrive
// after it.
func (n *Node) registerWaiter(proc int, seq uint64, ch chan reply) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropStale(ch)
	n.waiters[proc] = ch
	n.waiterSeq[proc] = seq
}

// dropStale empties a reply slot of an answer to an abandoned send,
// counting it as dropped.
func (n *Node) dropStale(ch chan reply) {
	select {
	case <-ch:
		n.noteDropped()
	default:
	}
}

func (n *Node) clearWaiter(proc int) {
	n.mu.Lock()
	n.waiters[proc] = nil
	n.mu.Unlock()
}

// connTo returns the data connection to a peer node.
func (n *Node) connTo(node int) (*peerConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if node < 0 || node >= len(n.conns) || n.conns[node] == nil {
		return nil, fmt.Errorf("node %d: no connection to node %d", n.cfg.Node, node)
	}
	return n.conns[node], nil
}

// RunInfo is the local outcome of a completed run.
type RunInfo struct {
	// Logs holds each hosted process's rendezvous log, keyed by process.
	Logs map[int][]csp.Record
	// Overhead is the exact piggyback accounting over this node's data
	// connections (local rendezvous cost no wire bytes and are excluded).
	Overhead core.Overhead
	// Frames is the node's sent wire traffic by frame kind, header bytes
	// included.
	Frames wire.Stats
	// Dropped counts frames the read loops discarded: late ACKs arriving
	// after a rendezvous timeout and frame kinds unexpected on a data
	// connection.
	Dropped int64
	// Retransmits counts SYN frames re-sent after a backoff interval
	// expired without the ACK (recovery mode only).
	Retransmits int64
	// Reconnects counts data connections re-established after a peer loss.
	Reconnects int64
	// Deduped counts duplicate SYN frames the receive path suppressed.
	Deduped int64
	// Excluded lists the peer nodes removed from the run under
	// PeerLossExclude, ascending. Empty on a fully healthy run.
	Excluded []int
	// JournalAppends and JournalSyncs count committed journal records and
	// the fsync batches that made them durable (recovery mode with a
	// journal only; both zero otherwise). Syncs well below Appends is group
	// commit doing its job.
	JournalAppends int64
	JournalSyncs   int64
	// SegmentsSpilled, SpillBytes, and ShardsVerified account the sharded
	// collector tree (CollectTree only; all zero after a plain Collect):
	// verified segments spilled to disk, their byte volume, and the shard
	// summaries that reached the root.
	SegmentsSpilled int64
	SpillBytes      int64
	ShardsVerified  int64
	// Rollup is the cluster-wide metrics view the collector assembled
	// (Collect/CollectTree on the collector node only; nil elsewhere):
	// every reporting node's registry snapshot and every collector-tree
	// leaf's shard registry, merged into this node's own metrics — counters
	// and gauges add, histograms merge bucket-wise. The same totals are
	// folded into the node's live registry, so /metrics serves the merged
	// cluster view.
	Rollup *obs.Snapshot
	// Spurious and Suspicions are async-mode totals (zero otherwise):
	// retransmissions the Eifel-style detector proved unnecessary, and
	// transitions of any peer's health FSM into the suspect state.
	Spurious   int64
	Suspicions int64
	// PeerRTT and PeerHealth are async mode's per-peer synchronizer view,
	// keyed by peer node id: the RTT estimator and histogram quantiles, and
	// the health FSM's final state name. PeerHealth lists every peer;
	// PeerRTT only those whose estimator took at least one sample. Nil
	// outside async mode.
	PeerRTT    map[int]RTTStats
	PeerHealth map[int]string
}

// FrameMap renders a wire accounting as the obs.Meta frame table, omitting
// kinds that never appeared.
func FrameMap(s wire.Stats) map[string]obs.FrameStats {
	m := make(map[string]obs.FrameStats)
	for _, k := range wire.Kinds() {
		if s.Frames[k] == 0 {
			continue
		}
		m[k.String()] = obs.FrameStats{Frames: s.Frames[k], Bytes: s.Bytes[k]}
	}
	return m
}

// Run connects the data mesh, executes one program per hosted process (a
// missing or nil entry means "immediately done"), and waits for every
// hosted program and every peer node to finish. It returns the hosted
// processes' rendezvous logs and the wire-overhead account. Any program
// error, peer failure, or deadline aborts the whole run.
func (n *Node) Run(programs map[int]func(*Process) error) (*RunInfo, error) {
	if err := n.connect(); err != nil {
		n.fail(err)
		return nil, err
	}
	procs := make([]*Process, len(n.local))
	errs := make([]error, len(n.local))
	var wg sync.WaitGroup
	for i, p := range n.local {
		procs[i] = newProcess(n, p)
		if st := n.restored[p]; st != nil {
			// Resume from the journal: the clock, log, and send sequence
			// counter continue where the previous incarnation committed.
			procs[i].clock, procs[i].log, procs[i].seq = st.clock, st.log, st.seq
		} else {
			procs[i].clock = core.NewClock(p, n.cfg.Dec)
		}
		prog := programs[p]
		if prog == nil {
			continue
		}
		wg.Add(1)
		go func(i int, proc *Process, prog func(*Process) error) {
			defer wg.Done()
			if err := prog(proc); err != nil {
				errs[i] = err
				n.fail(fmt.Errorf("node %d: process %d: %w", n.cfg.Node, proc.id, err))
			}
		}(i, procs[i], prog)
	}
	wg.Wait()

	// Announce completion; peers' readers exit on our BYE, ours exit on
	// theirs. Without recovery, waiting for the readers is the run's global
	// barrier; with it, readers die and are replaced across reconnects, so
	// the barrier is instead "every peer said BYE or was excluded" (a
	// reconnect registered after this point re-announces, see register).
	if !n.stopped() {
		n.mu.Lock()
		n.byeSent = true
		conns := append([]*peerConn(nil), n.conns...)
		n.mu.Unlock()
		for j, pc := range conns {
			if j == n.cfg.Node {
				continue
			}
			if pc == nil {
				if n.rec != nil {
					// The peer is mid-reconnect: our BYE has no connection to
					// travel on. Recovery re-announces it on the resumed
					// session; until then the peer may be parked on our BYE.
					n.noteByeFailed(j, nil)
				}
				continue
			}
			if err := pc.sendFlushed(&wire.Frame{Kind: wire.KindBye}); err != nil && !n.stopped() {
				if n.rec == nil {
					n.fail(fmt.Errorf("node %d: closing connection to node %d: %w", n.cfg.Node, pc.node, err))
					continue
				}
				// The connection died under our BYE; the peer never saw it
				// and its end-of-run barrier is now waiting on us. Mark the
				// debt so our own barrier holds until a resumed session
				// re-announces (register clears the debt).
				n.noteByeFailed(j, pc)
			}
		}
	}
	if n.rec != nil {
		n.awaitPeersDone()
	} else {
		n.readersWG.Wait()
	}

	info := &RunInfo{Logs: make(map[int][]csp.Record, len(n.local))}
	n.mu.Lock()
	conns := append(append([]*peerConn(nil), n.conns...), n.retired...)
	n.mu.Unlock()
	// Join the writers before closing: whatever they still hold queued (a
	// late re-ACK under recovery) is written or has failed, and the
	// accounting below is final.
	for _, pc := range conns {
		if pc != nil {
			pc.drain()
		}
	}
	for _, pc := range conns {
		if pc == nil {
			continue
		}
		info.Overhead.Merge(pc.overhead())
		info.Frames.Merge(pc.stats())
		_ = pc.c.Close()
	}
	info.Dropped = n.dropped.Load()
	info.Retransmits = n.retransmits.Load()
	info.Reconnects = n.reconnects.Load()
	info.Deduped = n.deduped.Load()
	info.Excluded = n.excludedList()
	n.asyncInfo(info)
	if n.rec != nil && n.rec.Journal != nil {
		js := n.rec.Journal.Stats()
		info.JournalAppends = js.Appends
		info.JournalSyncs = js.Syncs
		if r := n.cfg.Obs.Registry(); r != nil {
			r.Gauge(obs.MetricJournalAppends).Set(js.Appends)
			r.Gauge(obs.MetricJournalSyncs).Set(js.Syncs)
		}
	}
	for i, p := range n.local {
		info.Logs[p] = procs[i].log
	}
	// End-of-run dump: after a journal Restore re-primed the ring, this
	// dump holds the incarnation's complete committed history — the
	// post-mortem a kill -9'd predecessor could never write.
	n.DumpFlight()

	// Root cause: prefer a program's own error over the ErrStopped echoes
	// of its neighbors, mirroring csp.Wait.
	pick := -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		if pick == -1 || (errors.Is(errs[pick], ErrStopped) && !errors.Is(err, ErrStopped)) {
			pick = i
		}
	}
	if pick >= 0 && !errors.Is(errs[pick], ErrStopped) {
		return info, fmt.Errorf("node %d: process %d: %w", n.cfg.Node, n.local[pick], errs[pick])
	}
	if err := n.failure(); err != nil {
		return info, err
	}
	if pick >= 0 {
		return info, fmt.Errorf("node %d: process %d: %w", n.cfg.Node, n.local[pick], errs[pick])
	}
	return info, nil
}
