package fault_test

import (
	"testing"
	"time"

	"syncstamp/internal/fault"
	"syncstamp/internal/node"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// TestCrashFiresOnFailedWrite pins that a scheduled crash fires on its
// frame even when that frame's write fails — the peer's stream died under
// it. Consuming the schedule without firing would let a node sail past its
// crash, which is how the kill -9 soak's "never hit its scheduled crash"
// flake arose: node 2's crash frame could land on the connection to the
// node the soak had just SIGKILLed. Both injector paths are covered: a
// link with no rule and a link with one.
func TestCrashFiresOnFailedWrite(t *testing.T) {
	for _, tc := range []struct {
		name  string
		links []fault.LinkFault
	}{
		{"no-rule", nil},
		{"rule", []fault.LinkFault{{From: 0, To: 1, DropFrames: []int{5}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const d = 2
			l := node.NewLoop(2)
			plan := &fault.Plan{Seed: 1, Links: tc.links, Crashes: []fault.Crash{{Node: 0, AfterFrames: 2}}}
			ft := fault.New(l.Transport(0), plan, 0)
			crashes := 0
			ft.CrashFn = func() { crashes++ }

			// The far side reads the HELLO, then hangs up.
			accepted := make(chan error, 1)
			go func() {
				c, err := l.Transport(1).Accept()
				if err != nil {
					accepted <- err
					return
				}
				_, err = wire.NewDecoder(c, d).Decode()
				_ = c.Close()
				accepted <- err
			}()
			c, err := ft.Dial(1, time.Now().Add(5*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			enc := wire.NewEncoder(c, d)
			enc.SelfContained = true
			if err := enc.Encode(&wire.Frame{Kind: wire.KindHello, Role: wire.RoleData, Node: 0, Procs: []int{0}}); err != nil {
				t.Fatal(err)
			}
			if err := <-accepted; err != nil {
				t.Fatal(err)
			}

			// Frames 1 and 2 both fail to write; the crash is due on frame 2.
			// A fresh encoder per frame: a failed write leaves the previous
			// one's buffer in a sticky error state.
			for seq := 1; seq <= 2; seq++ {
				v := vector.New(d)
				v[0] = seq
				fenc := wire.NewEncoder(c, d)
				fenc.SelfContained = true
				if err := fenc.Encode(&wire.Frame{Kind: wire.KindSyn, From: 0, To: 1, Seq: uint64(seq), Vec: v}); err == nil {
					t.Fatalf("SYN %d: write to a closed stream succeeded", seq)
				}
				if want := seq / 2; crashes != want {
					t.Fatalf("after SYN %d: %d crashes, want %d", seq, crashes, want)
				}
			}
		})
	}
}
