package node

import (
	"fmt"
	"time"

	"syncstamp/internal/core"
	"syncstamp/internal/csp"
	"syncstamp/internal/obs"
	tssync "syncstamp/internal/sync"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// Message is one received rendezvous: who sent it and the agreed timestamp.
// The wire protocol carries no application payload — timestamps are the
// subject of the system; payload transport is the application's concern.
type Message struct {
	From  int
	Stamp vector.V
}

// Process is the handle a program uses to communicate. Each Process is
// owned by exactly one goroutine; its methods must not be called
// concurrently.
type Process struct {
	id    int
	n     *Node
	clock *core.Clock
	log   []csp.Record
	// seq numbers this process's sends (local and remote alike), starting
	// at 1. It is what makes retransmission and receiver-side dedup sound:
	// Send blocks until its ACK, so at most one sequence number is ever
	// outstanding per sender. A journal Restore resumes the counter, so a
	// replayed send reuses its crashed incarnation's number and is answered
	// idempotently.
	seq uint64
	// stash holds rendezvous requests taken off the mailbox while waiting
	// for a specific sender in RecvFrom; their senders stay parked.
	stash []inbound
	// ack is the reply slot every Send of this process parks on: a local
	// receiver answers on it directly, the read loop for a remote one.
	// Answers carry the seq they answer, and a stale one is discarded.
	ack chan reply
	// timer and retry are the rendezvous deadline and the retransmission
	// interval, likewise reused by every Send (see rearm).
	timer *time.Timer
	retry *time.Timer
	// pre and syn are the remote-send buffers. Send copies the clock into
	// pre without allocating and builds its SYN in syn; a retransmission
	// re-encodes the same frame, and pre does not change while Send blocks.
	// Nothing refers to either once a send has queued: the frame is encoded
	// into the connection's pending bytes at that moment.
	pre vector.V
	syn wire.Frame
}

// newProcess returns the handle for process id with its reusable send
// slots; the caller fills in the clock and any resumed state.
func newProcess(n *Node, id int) *Process {
	return &Process{id: id, n: n, ack: make(chan reply, 1), timer: stoppedTimer(), retry: stoppedTimer()}
}

func stoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// rearm restarts a reusable timer for d. go.mod selects the pre-1.23 timer
// semantics, where a timer that fired unobserved keeps the value in its
// channel across Stop and Reset; it is drained here so the channel reports
// only this arming.
func rearm(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// nextSeq allocates the next send sequence number.
func (p *Process) nextSeq() uint64 {
	p.seq++
	return p.seq
}

// ID returns the process index.
func (p *Process) ID() int { return p.id }

// Clock returns a snapshot of the process's current vector.
func (p *Process) Clock() vector.V { return p.clock.Current() }

// Send performs a rendezvous with process q: it blocks until q has received
// the message, then returns the agreed timestamp. The rendezvous deadline
// bounds the wait; exceeding it aborts the run (a synchronous computation
// cannot outlive a lost partner).
func (p *Process) Send(q int) (vector.V, error) {
	if q == p.id {
		return nil, fmt.Errorf("node: process %d sending to itself", p.id)
	}
	if q < 0 || q >= len(p.n.cfg.Placement) {
		return nil, fmt.Errorf("node: destination %d out of range [0,%d)", q, len(p.n.cfg.Placement))
	}
	n := p.n
	rearm(p.timer, n.cfg.RendezvousTimeout)
	defer p.timer.Stop()

	target := n.cfg.Placement[q]
	remote := target != n.cfg.Node
	var pre vector.V
	if remote {
		p.pre = p.clock.AppendCurrent(p.pre[:0])
		pre = p.pre
	} else {
		// A local receiver merges straight from the request, possibly after
		// this send was aborted, so it gets a snapshot of its own.
		pre = p.clock.Current()
	}
	n.obsv.Rendezvous(n.cfg.Node, p.id, q, obs.PhaseSyn, pre)
	t0 := n.obsv.Now()
	seq := p.nextSeq()
	if !remote {
		n.dropStale(p.ack)
		in := inbound{from: p.id, seq: seq, vec: pre, reply: p.ack}
		select {
		case n.mailboxes[q] <- in:
		case <-n.stop:
			return nil, ErrStopped
		case <-p.timer.C:
			err := fmt.Errorf("node: process %d -> %d: rendezvous deadline %v exceeded", p.id, q, n.cfg.RendezvousTimeout)
			n.fail(err)
			return nil, err
		}
		n.ins.SendBlockNS.Observe(n.obsv.Now() - t0)
	} else {
		n.registerWaiter(p.id, seq, p.ack)
		p.syn = wire.Frame{Kind: wire.KindSyn, From: p.id, To: q, Seq: seq, Vec: pre}
		if err := n.sendToPeer(target, &p.syn); err != nil {
			if n.rec == nil {
				n.clearWaiter(p.id)
				if n.stopped() {
					return nil, ErrStopped
				}
				err = fmt.Errorf("node: process %d -> %d: %w", p.id, q, err)
				n.fail(err)
				return nil, err
			}
			// Recovery mode: the link may be down mid-reconnect; the
			// retransmission ticks below cover the lost first transmission.
		}
		n.ins.SendBlockNS.Observe(n.obsv.Now() - t0)
	}

	// With recovery on a remote send, two more wake-ups join the wait: the
	// retransmission backoff (re-send the self-contained SYN; dedup on the
	// far side makes this idempotent) and the exclusion broadcast (the
	// partner's node was removed from the run). In async mode the fixed
	// min/max backoff is replaced by the synchronizer's adaptive interval:
	// the peer's Jacobson RTO, doubled per attempt and jittered. Until the
	// peer's estimator has a sample that interval comes from the configured
	// guess, so the send also waits on the estimator's priming broadcast and
	// restarts its timer from the first measured RTO (RFC 6298 §5.3).
	var retryC <-chan time.Time
	var exclC chan struct{}
	var primedC <-chan struct{}
	var backoff time.Duration
	var peer *tssync.Peer
	var attempts int
	var streak tssync.Streak
	var sendWall, lastWall time.Time
	if remote && n.rec != nil {
		if n.asyncOn() {
			peer = n.coord.Peer(target)
		}
		if peer != nil {
			// Taken before the interval is computed: a sample landing in
			// between still closes the channel and corrects the timer.
			primedC = peer.Estimator().Unprimed()
			sendWall = time.Now()
			lastWall = sendWall
			backoff = peer.RetryIn(0)
		} else {
			backoff = n.rec.RetransmitMin
		}
		rearm(p.retry, backoff)
		defer p.retry.Stop()
		retryC = p.retry.C
		exclC = n.exclusionCh()
	}

	t1 := n.obsv.Now()
	for {
		select {
		case r := <-p.ack:
			if r.seq != seq {
				// An answer to an earlier, abandoned send: never adopted.
				n.noteDropped()
				continue
			}
			stamp := r.vec
			n.ins.SynAckNS.Observe(n.obsv.Now() - t1)
			if peer != nil {
				// Feed the estimator. Karn's rule and the Eifel-style spurious
				// check live in OnAck; an accepted sample is the full
				// first-transmission round trip.
				now := time.Now()
				sampled, spurious := peer.OnAck(now.Sub(sendWall), now.Sub(lastWall), attempts)
				if spurious {
					n.spurious.Add(1)
					n.ins.Spurious.Add(1)
				}
				if sampled && n.peerRTT != nil && n.peerRTT[target] != nil {
					n.peerRTT[target].Observe(now.Sub(sendWall).Nanoseconds())
				}
			}
			if err := p.clock.Adopt(stamp, q); err != nil {
				err = fmt.Errorf("node: process %d -> %d: %w", p.id, q, err)
				p.n.fail(err)
				return nil, err
			}
			if err := n.journalCommit(JournalRecord{Kind: journalSend, Proc: p.id, Peer: q, Seq: seq, Stamp: stamp}); err != nil {
				return nil, err
			}
			if remote {
				// The rendezvous is committed on our side; the next frame to
				// this peer advertises it as safe.
				n.noteSafe(target)
			}
			n.obsv.Rendezvous(n.cfg.Node, p.id, q, obs.PhaseAdopt, stamp)
			n.ins.Rendezvous.Add(1)
			n.ins.Proc(p.id).Add(1)
			if n.ins.CausalTicks != nil {
				n.ins.CausalTicks.Observe(obs.StampSum(stamp) - obs.StampSum(pre))
			}
			p.log = append(p.log, csp.Record{Kind: csp.RecordSend, Peer: q, Stamp: stamp})
			return stamp, nil
		case <-n.stop:
			if remote {
				n.clearWaiter(p.id)
			}
			return nil, ErrStopped
		case <-p.timer.C:
			if remote {
				n.clearWaiter(p.id)
			}
			err := fmt.Errorf("node: process %d -> %d: rendezvous deadline %v exceeded", p.id, q, n.cfg.RendezvousTimeout)
			n.fail(err)
			return nil, err
		case <-exclC:
			if n.isExcluded(target) {
				n.clearWaiter(p.id)
				return nil, fmt.Errorf("node: process %d -> %d: %w", p.id, q, ErrPeerLost)
			}
			exclC = n.exclusionCh() // some other peer was excluded; re-arm
		case <-primedC:
			// Another exchange with this peer primed the estimator: the
			// timer, armed from the guess, now runs from the measured RTO,
			// less the time already waited (a non-positive rest fires now).
			primedC = nil
			rearm(p.retry, peer.RetryIn(attempts)-time.Since(lastWall))
		case <-retryC:
			if n.isExcluded(target) {
				n.clearWaiter(p.id)
				return nil, fmt.Errorf("node: process %d -> %d: %w", p.id, q, ErrPeerLost)
			}
			// Best effort: during a reconnect there is no connection to
			// write to; the next tick retries on the restored session.
			_ = n.sendToPeer(target, &p.syn)
			n.retransmits.Add(1)
			n.ins.Retransmits.Add(1)
			if peer != nil {
				attempts++
				lastWall = time.Now()
				n.noteTimeout(target, &streak)
				backoff = peer.RetryIn(attempts)
				n.ins.BackoffNS.Observe(int64(backoff))
			} else {
				n.ins.BackoffNS.Observe(int64(backoff))
				backoff *= 2
				if backoff > n.rec.RetransmitMax {
					backoff = n.rec.RetransmitMax
				}
			}
			p.retry.Reset(backoff)
		}
	}
}

// Recv blocks for the next incoming rendezvous from any peer, completes it,
// and returns the message. Requests stashed by earlier RecvFrom calls are
// delivered first, in arrival order.
func (p *Process) Recv() (Message, error) {
	var in inbound
	if len(p.stash) > 0 {
		in = p.stash[0]
		copy(p.stash, p.stash[1:])
		p.stash = p.stash[:len(p.stash)-1]
	} else {
		t0 := p.n.obsv.Now()
		select {
		case in = <-p.n.mailboxes[p.id]:
		case <-p.n.stop:
			return Message{}, ErrStopped
		}
		p.n.ins.RecvBlockNS.Observe(p.n.obsv.Now() - t0)
	}
	return p.complete(in)
}

// RecvFrom blocks for the next rendezvous from the specific process from,
// leaving requests from other senders pending (their senders remain
// parked, exactly as with one rendezvous channel per process pair).
// Replaying the per-process projections of a synchronous computation with
// RecvFrom is deadlock-free; with the any-source Recv it need not be.
func (p *Process) RecvFrom(from int) (Message, error) {
	for i, in := range p.stash {
		if in.from == from {
			p.stash = append(p.stash[:i], p.stash[i+1:]...)
			return p.complete(in)
		}
	}
	// Under recovery, a wait on a specific remote sender must also wake if
	// that sender's node gets excluded — otherwise the receiver would park
	// until the rendezvous deadline for a partner that is never coming.
	var exclC chan struct{}
	if p.n.rec != nil && from >= 0 && from < len(p.n.cfg.Placement) && p.n.cfg.Placement[from] != p.n.cfg.Node {
		if p.n.isExcluded(p.n.cfg.Placement[from]) {
			return Message{}, fmt.Errorf("node: process %d recvfrom %d: %w", p.id, from, ErrPeerLost)
		}
		exclC = p.n.exclusionCh()
	}
	t0 := p.n.obsv.Now()
	for {
		var in inbound
		select {
		case in = <-p.n.mailboxes[p.id]:
		case <-p.n.stop:
			return Message{}, ErrStopped
		case <-exclC:
			if p.n.isExcluded(p.n.cfg.Placement[from]) {
				return Message{}, fmt.Errorf("node: process %d recvfrom %d: %w", p.id, from, ErrPeerLost)
			}
			exclC = p.n.exclusionCh()
			continue
		}
		if in.from == from {
			p.n.ins.RecvBlockNS.Observe(p.n.obsv.Now() - t0)
			return p.complete(in)
		}
		p.stash = append(p.stash, in)
	}
}

// complete performs the receiver's half of the rendezvous: the Figure 5
// merge yields the stamp, which goes back to the sender — over the reply
// channel for a local sender, on an ACK frame for a remote one.
func (p *Process) complete(in inbound) (Message, error) {
	stamp, err := p.clock.Merge(in.vec, in.from)
	if err != nil {
		err = fmt.Errorf("node: process %d receiving from %d: %w", p.id, in.from, err)
		p.n.fail(err)
		return Message{}, err
	}
	p.n.obsv.Rendezvous(p.n.cfg.Node, p.id, in.from, obs.PhaseMerge, stamp)
	// Write-ahead: the merge is journaled (and fsynced) before any ACK can
	// leave the node, so a crash after this point re-ACKs from the restored
	// dedup cache instead of merging twice.
	if err := p.n.journalCommit(JournalRecord{Kind: journalRecv, Proc: p.id, Peer: in.from, Seq: in.seq, Stamp: stamp}); err != nil {
		return Message{}, err
	}
	if in.reply != nil {
		// Buffered, and emptied by the sender before it posted the request:
		// the sender is parked on it and this never blocks.
		in.reply <- reply{seq: in.seq, vec: stamp}
	} else {
		if p.n.rec != nil {
			p.n.noteMerged(in.from, in.seq, p.id, stamp)
		}
		// The merge is journaled: the rendezvous is committed on our side,
		// so the ACK itself already carries the advanced safe counter.
		p.n.noteSafe(p.n.cfg.Placement[in.from])
		pc, err := p.n.connTo(p.n.cfg.Placement[in.from])
		if err == nil {
			err = pc.send(&wire.Frame{Kind: wire.KindAck, From: p.id, To: in.from, Seq: in.seq, Vec: stamp})
		}
		if err != nil {
			if p.n.stopped() {
				return Message{}, ErrStopped
			}
			if p.n.rec == nil {
				err = fmt.Errorf("node: process %d acking %d: %w", p.id, in.from, err)
				p.n.fail(err)
				return Message{}, err
			}
			// The ACK died with the connection; the sender's retransmission
			// will be answered from the dedup cache once the session resumes.
		}
	}
	p.n.obsv.Rendezvous(p.n.cfg.Node, p.id, in.from, obs.PhaseAck, stamp)
	p.n.ins.Rendezvous.Add(1)
	p.n.ins.Proc(p.id).Add(1)
	p.log = append(p.log, csp.Record{Kind: csp.RecordRecv, Peer: in.from, Stamp: stamp})
	return Message{From: in.from, Stamp: stamp}, nil
}

// Internal records an internal event carrying note (Section 5). Its full
// (prev, succ, c) stamp is resolved at reconstruction time, when the next
// message, if any, is known. Note travels the wire as a string.
func (p *Process) Internal(note string) {
	// Journal failures fail the run via journalCommit; the in-memory record
	// is still appended so the log stays consistent with the clock.
	_ = p.n.journalCommit(JournalRecord{Kind: journalInternal, Proc: p.id, Note: note})
	p.log = append(p.log, csp.Record{Kind: csp.RecordInternal, Note: note})
	p.n.ins.InternalEvents.Add(1)
	// Guarded so the clock snapshot (a clone) only happens when tracing.
	if o := p.n.obsv; o != nil && o.Tracer != nil {
		o.Internal(p.n.cfg.Node, p.id, p.clock.Current(), note)
	}
}
