package fault_test

import (
	"fmt"
	"testing"
	"time"

	"syncstamp/internal/decomp"
	"syncstamp/internal/fault"
	"syncstamp/internal/graph"
	"syncstamp/internal/node"
)

// lossyPairs is the lossy-pairs workload: a matching of pairs channels
// split across two nodes (senders on node 0, receivers on node 1), each
// pair sending rounds messages one way, so every pair's SYN/ACK exchanges
// share the single inter-node link.
func lossyPairs(pairs, rounds int) (*decomp.Decomposition, []int, map[int]func(*node.Process) error) {
	g := graph.New(2 * pairs)
	placement := make([]int, 2*pairs)
	programs := make(map[int]func(*node.Process) error, 2*pairs)
	for i := 0; i < pairs; i++ {
		sender, receiver := 2*i, 2*i+1
		g.AddEdge(sender, receiver)
		placement[sender], placement[receiver] = 0, 1
		programs[sender] = func(p *node.Process) error {
			for k := 0; k < rounds; k++ {
				if _, err := p.Send(receiver); err != nil {
					return err
				}
			}
			return nil
		}
		programs[receiver] = func(p *node.Process) error {
			for k := 0; k < rounds; k++ {
				if _, err := p.RecvFrom(sender); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return decomp.Best(g), placement, programs
}

// dropPlan drops each frame on every link with probability loss.
func dropPlan(seed int64, loss float64) *fault.Plan {
	return &fault.Plan{Seed: seed, Links: []fault.LinkFault{{From: -1, To: -1, Drop: loss}}}
}

// TestAsyncLossyPairsNotSuspectedUnderAbort pins that a lossy but live link
// is never suspected under the runtime's default abort policy. 32 senders
// share one link at 5% drop, so some exchange times out nearly all the
// time; but no single exchange goes SuspectAfter intervals unanswered, and
// only that may suspect the peer. A suspicion here would abort the run.
func TestAsyncLossyPairsNotSuspectedUnderAbort(t *testing.T) {
	const pairs, rounds = 32, 60
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dec, placement, programs := lossyPairs(pairs, rounds)
			res, results, err := runChaosPlaced(dec, placement, dropPlan(seed, 0.05),
				asyncRecovery(node.PeerLossAbort, seed), programs)
			for i, r := range results {
				if r.err != nil {
					t.Fatalf("node %d: %v", i, r.err)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			var retransmits int64
			for i, r := range results {
				if r.info.Suspicions != 0 {
					t.Errorf("node %d recorded %d suspicions of a live link", i, r.info.Suspicions)
				}
				retransmits += r.info.Retransmits
			}
			if dropped := results[0].stats.Dropped + results[1].stats.Dropped; dropped == 0 || retransmits == 0 {
				t.Fatalf("%d frames dropped, %d retransmits: the link was not lossy", dropped, retransmits)
			}
			if err := verifySequential(res, dec, pairs*rounds); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkRetransmit compares the two retransmission strategies over the
// lossy-pairs workload (32 pairs over the in-memory Loop): fixed is the
// recovery layer's doubling backoff from RetransmitMin, adaptive the
// α-synchronizer's per-peer RTO. Each runs over a clean link and a 5% drop
// link. It reports msgs/s and retransmits/kmsg, and checks every run's
// stamps against the sequential oracle outside the timed region.
func BenchmarkRetransmit(b *testing.B) {
	const pairs = 32
	for _, arm := range []struct {
		name string
		rec  func(seed int64) *node.RecoveryConfig
	}{
		{"fixed", func(int64) *node.RecoveryConfig { return chaosRecovery(node.PeerLossWait) }},
		{"adaptive", func(seed int64) *node.RecoveryConfig { return asyncRecovery(node.PeerLossWait, seed) }},
	} {
		for _, loss := range []float64{0, 0.05} {
			arm, loss := arm, loss
			b.Run(fmt.Sprintf("%s/loss%d", arm.name, int(loss*100)), func(b *testing.B) {
				rounds := b.N/pairs + 1
				dec, placement, programs := lossyPairs(pairs, rounds)
				b.ResetTimer()
				start := time.Now()
				res, results, err := runChaosPlaced(dec, placement, dropPlan(1, loss), arm.rec(1), programs)
				elapsed := time.Since(start)
				b.StopTimer()
				var retransmits int64
				for i, r := range results {
					if r.err != nil {
						b.Fatalf("node %d: %v", i, r.err)
					}
					retransmits += r.info.Retransmits
				}
				if err != nil {
					b.Fatal(err)
				}
				messages := pairs * rounds
				if err := verifySequential(res, dec, messages); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(messages)/elapsed.Seconds(), "msgs/s")
				b.ReportMetric(1000*float64(retransmits)/float64(messages), "retransmits/kmsg")
			})
		}
	}
}
