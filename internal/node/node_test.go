package node

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"syncstamp/internal/core"
	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/vector"
)

// leakCheck fails the test if the goroutine count does not return to
// (roughly) its value at registration time. Registered as a cleanup so it
// runs after every node's Close.
func leakCheck(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		for {
			if runtime.NumGoroutine() <= base+2 {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<18)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d at start, %d after run\n%s", base, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// clusterResult is one node's outcome inside runCluster.
type clusterResult struct {
	info *RunInfo
	err  error
}

// runCluster runs one node per placement value over the given transports,
// has every non-zero node report its logs to node 0, and returns node 0's
// reconstruction alongside each node's run outcome.
func runCluster(dec *decomp.Decomposition, placement []int, transports []Transport,
	programs map[int]func(*Process) error, cfg Config) (*csp.Result, []clusterResult, error) {
	nodes := len(transports)
	results := make([]clusterResult, nodes)
	var collected *csp.Result
	var collectErr error
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.Node = i
			c.Placement = placement
			c.Dec = dec
			n, err := New(c, transports[i])
			if err != nil {
				results[i].err = err
				return
			}
			defer n.Close()
			info, err := n.Run(programs)
			results[i] = clusterResult{info: info, err: err}
			if err != nil {
				return
			}
			if i == 0 {
				collected, collectErr = n.Collect(info, 10*time.Second)
			} else {
				results[i].err = n.SendReport(0, info)
			}
		}(i)
	}
	wg.Wait()
	return collected, results, collectErr
}

// loopTransports builds a Loop fabric and hands out one transport per node.
func loopTransports(nodes int) []Transport {
	l := NewLoop(nodes)
	ts := make([]Transport, nodes)
	for i := range ts {
		ts[i] = l.Transport(i)
	}
	return ts
}

// tcpTransports binds one localhost TCP transport per node and tells each
// the others' addresses.
func tcpTransports(t *testing.T, nodes int) []Transport {
	t.Helper()
	tcp := make([]*TCPTransport, nodes)
	addrs := make([]string, nodes)
	for i := range tcp {
		tr, err := NewTCPTransport("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tcp[i] = tr
		addrs[i] = tr.Addr()
	}
	ts := make([]Transport, nodes)
	for i, tr := range tcp {
		tr.SetPeers(addrs)
		ts[i] = tr
	}
	return ts
}

// pingPong is a 2-process program set: 0 sends to 1, 1 replies, repeated.
func pingPong(rounds int) map[int]func(*Process) error {
	return map[int]func(*Process) error{
		0: func(p *Process) error {
			for i := 0; i < rounds; i++ {
				if _, err := p.Send(1); err != nil {
					return err
				}
				if _, err := p.RecvFrom(1); err != nil {
					return err
				}
			}
			return nil
		},
		1: func(p *Process) error {
			for i := 0; i < rounds; i++ {
				if _, err := p.RecvFrom(0); err != nil {
					return err
				}
				if _, err := p.Send(0); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// verifyAgainstSequential checks the reconstructed run against the
// sequential Figure 5 replay, stamp for stamp.
func verifyAgainstSequential(t *testing.T, res *csp.Result, dec *decomp.Decomposition, wantMessages int) {
	t.Helper()
	if got := res.Trace.NumMessages(); got != wantMessages {
		t.Fatalf("reconstructed %d messages, want %d", got, wantMessages)
	}
	seq, err := core.StampTrace(res.Trace, dec)
	if err != nil {
		t.Fatal(err)
	}
	for m := range seq {
		if !vector.Eq(seq[m], res.Stamps[m]) {
			t.Fatalf("message %d: distributed stamp %v, sequential stamp %v", m, res.Stamps[m], seq[m])
		}
	}
}

func TestLoopPingPong(t *testing.T) {
	leakCheck(t)
	g := graph.Path(2)
	dec := decomp.Best(g)
	res, results, err := runCluster(dec, []int{0, 1}, loopTransports(2), pingPong(10), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
	}
	verifyAgainstSequential(t, res, dec, 20)
	// Every rendezvous crossed the wire: exactly one SYN and one ACK each,
	// and the delta codec must not cost more than dense would.
	total := results[0].info.Overhead
	total.Merge(results[1].info.Overhead)
	if total.Frames != 2*20 {
		t.Fatalf("accounted %d vector frames for 20 remote messages", total.Frames)
	}
	if total.WireBytes > total.DenseBytes {
		t.Fatalf("delta codec cost %d bytes, dense would cost %d", total.WireBytes, total.DenseBytes)
	}
}

// TestLoopTriangleMixedPlacement exercises local and remote rendezvous in
// one run: a triangle with two processes co-located.
func TestLoopTriangleMixedPlacement(t *testing.T) {
	leakCheck(t)
	g := graph.Triangle()
	dec := decomp.Best(g)
	programs := map[int]func(*Process) error{
		0: func(p *Process) error {
			if _, err := p.Send(1); err != nil {
				return err
			}
			if _, err := p.RecvFrom(2); err != nil {
				return err
			}
			p.Internal("done-0")
			return nil
		},
		1: func(p *Process) error {
			if _, err := p.RecvFrom(0); err != nil {
				return err
			}
			if _, err := p.Send(2); err != nil {
				return err
			}
			return nil
		},
		2: func(p *Process) error {
			if _, err := p.RecvFrom(1); err != nil {
				return err
			}
			if _, err := p.Send(0); err != nil {
				return err
			}
			return nil
		},
	}
	// Processes 0 and 2 share node 0, so the 2->0 message is local while
	// 0->1 and 1->2 cross the wire.
	res, results, err := runCluster(dec, []int{0, 1, 0}, loopTransports(2), programs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
	}
	verifyAgainstSequential(t, res, dec, 3)
	if len(res.Internal) != 1 {
		t.Fatalf("reconstructed %d internal events, want 1", len(res.Internal))
	}
}

func TestTCPPingPong(t *testing.T) {
	leakCheck(t)
	g := graph.Path(2)
	dec := decomp.Best(g)
	res, results, err := runCluster(dec, []int{0, 1}, tcpTransports(t, 2), pingPong(25), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
	}
	verifyAgainstSequential(t, res, dec, 50)
}

// TestStopUnblocksParkedOps parks a receiver (no sender exists) and a
// sender (no receiver exists) and checks Stop releases both with
// ErrStopped.
func TestStopUnblocksParkedOps(t *testing.T) {
	leakCheck(t)
	g := graph.Path(3)
	dec := decomp.Best(g)
	l := NewLoop(1)
	n, err := New(Config{Node: 0, Placement: []int{0, 0, 0}, Dec: dec}, l.Transport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	opErrs := make(chan error, 2)
	go func() {
		time.Sleep(50 * time.Millisecond)
		n.Stop()
	}()
	_, err = n.Run(map[int]func(*Process) error{
		0: func(p *Process) error {
			_, err := p.Recv() // nobody ever sends to 0
			opErrs <- err
			return err
		},
		2: func(p *Process) error {
			_, err := p.Send(1) // process 1 never receives
			opErrs <- err
			return err
		},
	})
	if err == nil {
		t.Fatal("Run succeeded though both programs were parked forever")
	}
	for i := 0; i < 2; i++ {
		if opErr := <-opErrs; !errors.Is(opErr, ErrStopped) {
			t.Fatalf("parked operation returned %v, want ErrStopped", opErr)
		}
	}
}

// TestRendezvousDeadline: a sender whose partner never calls Recv must be
// released with a deadline error, aborting the run on both nodes.
func TestRendezvousDeadline(t *testing.T) {
	leakCheck(t)
	g := graph.Path(2)
	dec := decomp.Best(g)
	cfg := Config{RendezvousTimeout: 100 * time.Millisecond}
	programs := map[int]func(*Process) error{
		0: func(p *Process) error {
			_, err := p.Send(1) // process 1 never receives
			return err
		},
		// Process 1 deliberately runs no program.
	}
	_, results, _ := runCluster(dec, []int{0, 1}, loopTransports(2), programs, cfg)
	if results[0].err == nil {
		t.Fatal("sender's node succeeded though the rendezvous could never complete")
	}
	if !strings.Contains(results[0].err.Error(), "rendezvous deadline") {
		t.Fatalf("sender's node failed with %v, want a rendezvous deadline error", results[0].err)
	}
}

// TestPeerDeathAbortsRun kills the receiver's node mid-rendezvous: the
// sender's node must detect the dead connection and release the parked
// send, rather than hang or leak.
func TestPeerDeathAbortsRun(t *testing.T) {
	leakCheck(t)
	g := graph.Path(3)
	dec := decomp.Best(g)
	l := NewLoop(2)
	placement := []int{0, 1, 1}

	n0, err := New(Config{Node: 0, Placement: placement, Dec: dec}, l.Transport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n1, err := New(Config{Node: 1, Placement: placement, Dec: dec}, l.Transport(1))
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()

	// Node 0 hosts the victim: process 0 waits for process 2 (which never
	// sends), so process 1's SYN sits unanswered — a rendezvous in flight.
	n0done := make(chan struct{})
	go func() {
		defer close(n0done)
		_, _ = n0.Run(map[int]func(*Process) error{
			0: func(p *Process) error {
				_, err := p.RecvFrom(2)
				return err
			},
		})
	}()
	go func() {
		time.Sleep(100 * time.Millisecond)
		n0.Stop() // the "kill": connections drop without a BYE
	}()

	_, err = n1.Run(map[int]func(*Process) error{
		1: func(p *Process) error {
			_, err := p.Send(0)
			return err
		},
	})
	if err == nil {
		t.Fatal("sender's node succeeded though its peer died mid-rendezvous")
	}
	<-n0done
}

// TestDigestMismatchRefused: nodes configured with different placements
// must refuse the handshake.
func TestDigestMismatchRefused(t *testing.T) {
	leakCheck(t)
	g := graph.Path(2)
	dec := decomp.Best(g)
	l := NewLoop(2)

	n0, err := New(Config{Node: 0, Placement: []int{0, 1}, Dec: dec, HandshakeTimeout: time.Second}, l.Transport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n1, err := New(Config{Node: 1, Placement: []int{1, 0}, Dec: dec, HandshakeTimeout: time.Second}, l.Transport(1))
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()

	errs := make(chan error, 2)
	go func() {
		_, err := n0.Run(map[int]func(*Process) error{0: nil})
		errs <- err
	}()
	go func() {
		_, err := n1.Run(map[int]func(*Process) error{0: nil})
		errs <- err
	}()
	sawDigest := false
	for i := 0; i < 2; i++ {
		err := <-errs
		if err == nil {
			t.Fatal("a node completed its run despite mismatched placements")
		}
		if strings.Contains(err.Error(), "topology digest") {
			sawDigest = true
		}
	}
	if !sawDigest {
		t.Fatal("neither node reported the topology digest mismatch")
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.Path(2)
	dec := decomp.Best(g)
	if _, err := New(Config{Node: 0, Placement: []int{0}, Dec: dec}, NewLoop(1).Transport(0)); err == nil {
		t.Fatal("accepted a placement shorter than the process count")
	}
	if _, err := New(Config{Node: 0, Placement: []int{0, -1}, Dec: dec}, NewLoop(1).Transport(0)); err == nil {
		t.Fatal("accepted a negative placement entry")
	}
	if _, err := New(Config{Node: 0, Placement: []int{0, 1}, Dec: nil}, NewLoop(1).Transport(0)); err == nil {
		t.Fatal("accepted a nil decomposition")
	}
}

// TestStaleAckNeverAdopted pins the reused reply slot's seq tag. Process 0
// sends to remote process 1 twice; a forged answer to the first send lands
// in process 0's slot twice over — once before the second Send registers
// (emptied at registration) and once while it is parked (discarded by the
// seq check). Both are counted as dropped frames, neither is adopted, and
// the second Send adopts the stamp its own ACK carries: the run matches the
// sequential oracle.
func TestStaleAckNeverAdopted(t *testing.T) {
	leakCheck(t)
	dec := decomp.Best(graph.Path(2))
	placement := []int{0, 1}
	ts := loopTransports(2)
	nodes := make([]*Node, 2)
	for i := range nodes {
		n, err := New(Config{Node: i, Placement: placement, Dec: dec}, ts[i])
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
	}
	// A dominating stamp: adopting it would silently corrupt every later
	// stamp of process 0 rather than fail.
	bogus := vector.New(dec.D())
	for i := range bogus {
		bogus[i] = 1000
	}
	stale := reply{seq: 1, vec: bogus}
	sender := make(chan *Process, 1)
	waitFor := func(cond func() bool) error {
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				return errors.New("timed out")
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	programs := map[int]func(*Process) error{
		0: func(p *Process) error {
			sender <- p
			if _, err := p.Send(1); err != nil {
				return err
			}
			p.ack <- stale // left over before the next Send
			_, err := p.Send(1)
			return err
		},
		1: func(p *Process) error {
			if _, err := p.RecvFrom(0); err != nil {
				return err
			}
			// The second SYN in our mailbox means the sender is registered
			// on its slot: land the stale answer ahead of the real one, and
			// ACK only once the sender has discarded it.
			if err := waitFor(func() bool { return len(nodes[1].mailboxes[1]) > 0 }); err != nil {
				return fmt.Errorf("second SYN: %w", err)
			}
			(<-sender).ack <- stale
			if err := waitFor(func() bool { return nodes[0].DroppedFrames() == 2 }); err != nil {
				return fmt.Errorf("stale answers dropped %d of 2: %w", nodes[0].DroppedFrames(), err)
			}
			_, err := p.RecvFrom(0)
			return err
		},
	}
	infos := make([]*RunInfo, 2)
	errs := make([]error, 2)
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
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if got := infos[0].Dropped; got != 2 {
		t.Fatalf("node 0 dropped %d frames, want the 2 stale answers", got)
	}
	res, err := csp.Reconstruct(dec, [][]csp.Record{infos[0].Logs[0], infos[1].Logs[1]})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstSequential(t, res, dec, 2)
}
