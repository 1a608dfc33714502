package node

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/vector"
)

// coalesceFamily is one topology family for the coalescing determinism
// matrix: a channel graph, a placement across nodes, a deterministic
// program set, and the message count one round produces.
type coalesceFamily struct {
	name      string
	g         *graph.Graph
	placement []int
	programs  func(rounds int) map[int]func(*Process) error
	perRound  int
}

func coalesceFamilies() []coalesceFamily {
	return []coalesceFamily{
		{
			// A 4-process chain over 3 nodes: each round sends a wave
			// forward 0→1→2→3 and reflects it back 3→2→1→0.
			name:      "path4",
			g:         graph.Path(4),
			placement: []int{0, 1, 1, 2},
			perRound:  6,
			programs: func(rounds int) map[int]func(*Process) error {
				return map[int]func(*Process) error{
					0: eachRound(rounds, func(p *Process) error {
						return chain(p, send(1), recv(1))
					}),
					1: eachRound(rounds, func(p *Process) error {
						return chain(p, recv(0), send(2), recv(2), send(0))
					}),
					2: eachRound(rounds, func(p *Process) error {
						return chain(p, recv(1), send(3), recv(3), send(1))
					}),
					3: eachRound(rounds, func(p *Process) error {
						return chain(p, recv(2), send(2))
					}),
				}
			},
		},
		{
			// A 5-process star over 3 nodes: the hub polls each leaf in
			// order, one request/reply pair per leaf per round.
			name:      "star5",
			g:         graph.Star(5, 0),
			placement: []int{0, 1, 2, 1, 2},
			perRound:  8,
			programs: func(rounds int) map[int]func(*Process) error {
				programs := map[int]func(*Process) error{
					0: eachRound(rounds, func(p *Process) error {
						for l := 1; l < 5; l++ {
							if err := chain(p, send(l), recv(l)); err != nil {
								return err
							}
						}
						return nil
					}),
				}
				for l := 1; l < 5; l++ {
					programs[l] = eachRound(rounds, func(p *Process) error {
						return chain(p, recv(0), send(0))
					})
				}
				return programs
			},
		},
		{
			// A 4-process complete graph over 2 nodes: every round walks
			// the six unordered pairs in lexicographic order; the lower
			// process sends and the higher replies.
			name:      "complete4",
			g:         graph.Complete(4),
			placement: []int{0, 1, 0, 1},
			perRound:  12,
			programs: func(rounds int) map[int]func(*Process) error {
				pairsOf := func(me int) [][2]int {
					var out [][2]int
					for lo := 0; lo < 4; lo++ {
						for hi := lo + 1; hi < 4; hi++ {
							if lo == me || hi == me {
								out = append(out, [2]int{lo, hi})
							}
						}
					}
					return out
				}
				programs := make(map[int]func(*Process) error, 4)
				for me := 0; me < 4; me++ {
					mine := pairsOf(me)
					programs[me] = eachRound(rounds, func(p *Process) error {
						for _, pr := range mine {
							var err error
							if pr[0] == p.ID() {
								err = chain(p, send(pr[1]), recv(pr[1]))
							} else {
								err = chain(p, recv(pr[0]), send(pr[0]))
							}
							if err != nil {
								return err
							}
						}
						return nil
					})
				}
				return programs
			},
		},
	}
}

// eachRound repeats a per-round body rounds times.
func eachRound(rounds int, body func(*Process) error) func(*Process) error {
	return func(p *Process) error {
		for r := 0; r < rounds; r++ {
			if err := body(p); err != nil {
				return err
			}
		}
		return nil
	}
}

// step is one rendezvous operation in a scripted round.
type step func(*Process) error

func send(q int) step {
	return func(p *Process) error { _, err := p.Send(q); return err }
}

func recv(q int) step {
	return func(p *Process) error { _, err := p.RecvFrom(q); return err }
}

// chain runs steps in order, stopping at the first error.
func chain(p *Process, steps ...step) error {
	for _, s := range steps {
		if err := s(p); err != nil {
			return err
		}
	}
	return nil
}

// collectLogs flattens runCluster results into per-process rendezvous logs.
func collectLogs(results []clusterResult, nprocs int) [][]csp.Record {
	logs := make([][]csp.Record, nprocs)
	for _, r := range results {
		if r.info == nil {
			continue
		}
		for p, l := range r.info.Logs {
			logs[p] = l
		}
	}
	return logs
}

// identicalLogs requires the two arms to agree record for record: same
// operations, same peers, same agreed stamps.
func identicalLogs(a, b [][]csp.Record) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d processes", len(a), len(b))
	}
	for p := range a {
		if len(a[p]) != len(b[p]) {
			return fmt.Errorf("process %d: %d vs %d records", p, len(a[p]), len(b[p]))
		}
		for i := range a[p] {
			x, y := a[p][i], b[p][i]
			if x.Kind != y.Kind || x.Peer != y.Peer || !vector.Eq(x.Stamp, y.Stamp) {
				return fmt.Errorf("process %d record %d: %+v vs %+v", p, i, x, y)
			}
		}
	}
	return nil
}

// TestCoalescingDeterminism runs each topology family twice — once with
// the coalescing writer (the default) and once flushing every frame — and
// requires byte-identical rendezvous logs plus agreement with the
// sequential replay oracle. Batching frames into fewer TCP writes must be
// invisible to the protocol: it may change *when* bytes move, never which
// stamps are agreed.
func TestCoalescingDeterminism(t *testing.T) {
	const rounds = 25
	for _, fam := range coalesceFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			leakCheck(t)
			dec := decomp.Best(fam.g)
			nodes := 0
			for _, n := range fam.placement {
				if n+1 > nodes {
					nodes = n + 1
				}
			}
			run := func(noCoalesce bool) (*csp.Result, [][]csp.Record) {
				res, results, err := runCluster(dec, fam.placement, loopTransports(nodes),
					fam.programs(rounds), Config{NoCoalesce: noCoalesce})
				if err != nil {
					t.Fatalf("noCoalesce=%v: %v", noCoalesce, err)
				}
				for i, r := range results {
					if r.err != nil {
						t.Fatalf("noCoalesce=%v node %d: %v", noCoalesce, i, r.err)
					}
				}
				return res, collectLogs(results, fam.g.N())
			}
			coalesced, coalescedLogs := run(false)
			plain, plainLogs := run(true)

			want := rounds * fam.perRound
			verifyAgainstSequential(t, coalesced, dec, want)
			verifyAgainstSequential(t, plain, dec, want)
			if err := identicalLogs(coalescedLogs, plainLogs); err != nil {
				t.Fatalf("coalesced and unbatched runs diverged: %v", err)
			}
		})
	}
}

// countingTransport wraps a Transport and counts the writes on every
// stream it hands out.
type countingTransport struct {
	Transport
	writes *atomic.Int64
}

func (t countingTransport) Dial(node int, deadline time.Time) (net.Conn, error) {
	c, err := t.Transport.Dial(node, deadline)
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: t.writes}, nil
}

func (t countingTransport) Accept() (net.Conn, error) {
	c, err := t.Transport.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: t.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestWriterBatchesOnOneCPU pins that the writer goroutine coalesces on a
// single P over real sockets, where transport writes never block: 32
// pairs ping-pong across one TCP connection, and the frames per transport
// write must average at least 4. A writer that runs the moment it is woken
// — the channel wake puts it in the runnext slot, ahead of the processes
// readied with it — writes every frame on its own (measured: 1.00 frames
// per write) and fails here; the one yield per wake gives about 20.
func TestWriterBatchesOnOneCPU(t *testing.T) {
	leakCheck(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const pairs, rounds = 32, 100
	dec, placement := benchMatching(pairs)
	var writes atomic.Int64
	transports := make([]Transport, 2)
	addrs := make([]string, 2)
	tcp := make([]*TCPTransport, 2)
	for i := range tcp {
		tr, err := NewTCPTransport("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tcp[i] = tr
		addrs[i] = tr.Addr()
	}
	for i, tr := range tcp {
		tr.SetPeers(addrs)
		transports[i] = countingTransport{Transport: tr, writes: &writes}
	}
	infos := runPair(t, Config{Placement: placement, Dec: dec}, transports, benchPrograms(pairs, rounds))
	frames := 0
	for _, info := range infos {
		n, _ := info.Frames.Total()
		frames += n
	}
	perWrite := float64(frames) / float64(writes.Load())
	if perWrite < 4 {
		t.Fatalf("%d frames in %d transport writes: %.2f frames per write, want >= 4", frames, writes.Load(), perWrite)
	}
	t.Logf("%d frames in %d transport writes: %.2f frames per write", frames, writes.Load(), perWrite)
}
