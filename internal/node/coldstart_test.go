package node

import (
	"sync"
	"testing"
	"time"

	"syncstamp/internal/decomp"
	"syncstamp/internal/fault"
	"syncstamp/internal/graph"
	tssync "syncstamp/internal/sync"
)

// TestAsyncColdStartRearm pins the cold-start re-arm: a send whose first
// SYN is lost before the peer's estimator has any sample parks on a timer
// armed from the initial guess, and must restart that timer from the first
// measured RTO instead of sitting out the guess. Node 0 hosts two senders
// toward node 1; the plan drops the first SYN on the link, the other pair's
// ACK primes the shared estimator, and the stalled sender must finish well
// inside the guess's minimum wait — RTTInit 1 s gives an RTO of 3 s,
// jittered to at least 1.5 s.
func TestAsyncColdStartRearm(t *testing.T) {
	leakCheck(t)
	g := graph.New(4)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	dec := decomp.Best(g)
	placement := []int{0, 0, 1, 1}
	loop := loopTransports(2)
	plan := &fault.Plan{Seed: 1, Links: []fault.LinkFault{{From: 0, To: 1, DropFrames: []int{0}}}}
	ft := fault.New(loop[0], plan, 0)
	transports := []Transport{ft, loop[1]}
	rec := &RecoveryConfig{
		OnPeerLoss:      PeerLossWait,
		RetransmitMin:   2 * time.Millisecond,
		RetransmitMax:   20 * time.Millisecond,
		ReconnectWindow: 5 * time.Second,
		Async:           &tssync.Config{RTTInit: time.Second, RTOMax: 10 * time.Second, Seed: 1},
	}

	var sendDur [2]time.Duration
	send := func(to int) func(*Process) error {
		return func(p *Process) error {
			t0 := time.Now()
			_, err := p.Send(to)
			sendDur[p.ID()] = time.Since(t0)
			return err
		}
	}
	recv := func(p *Process) error {
		_, err := p.Recv()
		return err
	}
	programs := []map[int]func(*Process) error{
		{0: send(2), 1: send(3)},
		{2: recv, 3: recv},
	}

	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range programs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := New(Config{Node: i, Placement: placement, Dec: dec, Recovery: rec}, transports[i])
			if err != nil {
				errs[i] = err
				return
			}
			defer n.Close()
			_, errs[i] = n.Run(programs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if got := ft.Stats().Dropped; got != 1 {
		t.Fatalf("injector dropped %d frames, want the first SYN only", got)
	}
	const bound = 500 * time.Millisecond
	for proc, d := range sendDur {
		if d >= bound {
			t.Errorf("process %d: Send took %v, want under %v (the guess alone parks it at least 1.5s)", proc, d, bound)
		}
	}
}
