package fault_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"syncstamp/internal/fault"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// egressD is the vector length of every frame these tests encode.
const egressD = 2

// captureConn is an inner connection that records each Write it receives
// (one copy per call) and each Close, in order, on a shared event log.
// Writes after Close fail, like a real stream's.
type captureConn struct {
	net.Conn // unused methods; the injector only writes and closes

	mu     sync.Mutex
	log    *eventLog
	closed bool
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	c.log.add(event{kind: "write", data: append([]byte(nil), p...), at: time.Now()})
	return len(p), nil
}

func (c *captureConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.log.add(event{kind: "close", at: time.Now()})
	return nil
}

// event is one observable action: an inner write (with its bytes), the
// inner close, or a crash.
type event struct {
	kind string
	data []byte
	at   time.Time
}

// eventLog is the ordered record of inner-connection events; wrote is
// signalled (without blocking) after each one.
type eventLog struct {
	mu     sync.Mutex
	events []event
	wrote  chan struct{}
}

func newEventLog() *eventLog { return &eventLog{wrote: make(chan struct{}, 1)} }

func (l *eventLog) add(e event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
	select {
	case l.wrote <- struct{}{}:
	default:
	}
}

func (l *eventLog) snapshot() []event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]event(nil), l.events...)
}

// delivered concatenates every write's bytes: the stream the peer reads.
func (l *eventLog) delivered() []byte {
	var b []byte
	for _, e := range l.snapshot() {
		b = append(b, e.data...)
	}
	return b
}

// captureInner is an Inner whose Dial hands out captureConns sharing one
// event log.
type captureInner struct{ log *eventLog }

func (ci captureInner) Dial(int, time.Time) (net.Conn, error) {
	return &captureConn{log: ci.log}, nil
}
func (captureInner) Accept() (net.Conn, error) { return nil, errors.New("captureInner: no accept") }
func (captureInner) Close() error              { return nil }

// dialCapture wraps a capturing inner transport in plan's injector for node
// 0 and dials node 1.
func dialCapture(t testing.TB, plan *fault.Plan) (*fault.Transport, net.Conn, *eventLog) {
	t.Helper()
	log := newEventLog()
	ft := fault.New(captureInner{log: log}, plan, 0)
	c, err := ft.Dial(1, time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return ft, c, log
}

// encodeFrames returns the wire encoding of a data-role HELLO from node 0
// followed by n self-contained SYNs (seqs 1..n) from process 0 to 1, one
// byte slice per frame.
func encodeFrames(t testing.TB, n int) [][]byte {
	t.Helper()
	var w splitWriter
	enc := wire.NewEncoder(&w, egressD)
	enc.SelfContained = true
	if err := enc.Encode(&wire.Frame{Kind: wire.KindHello, Role: wire.RoleData, Node: 0, Procs: []int{0}}); err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= n; seq++ {
		v := vector.New(egressD)
		v[0] = seq
		if err := enc.Encode(&wire.Frame{Kind: wire.KindSyn, From: 0, To: 1, Seq: uint64(seq), Vec: v}); err != nil {
			t.Fatal(err)
		}
	}
	return w.writes
}

// splitWriter keeps each Write as its own slice: a flush-per-frame encoder
// writes exactly one frame per call.
type splitWriter struct{ writes [][]byte }

func (w *splitWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// countFrames counts the complete length-prefixed frames in b.
func countFrames(b []byte) int {
	n := 0
	for len(b) > 0 {
		size, k := binary.Uvarint(b)
		if k <= 0 || uint64(len(b)-k) < size {
			break
		}
		b = b[k+int(size):]
		n++
	}
	return n
}

// TestBatchedWriteIsOneInnerWrite pins the coalescing the injector must
// keep: one Write of a HELLO and k SYNs, one of which the plan drops,
// reaches the inner connection as exactly one write holding every other
// frame byte for byte, in order.
func TestBatchedWriteIsOneInnerWrite(t *testing.T) {
	const k, lost = 8, 3 // SYN frame indices 0..k-1; index 3 is seq 4
	frames := encodeFrames(t, k)
	ft, c, log := dialCapture(t, &fault.Plan{
		Seed:  1,
		Links: []fault.LinkFault{{From: 0, To: 1, DropFrames: []int{lost}}},
	})
	batch := bytes.Join(frames, nil)
	if n, err := c.Write(batch); err != nil || n != len(batch) {
		t.Fatalf("Write = %d, %v; want %d, nil", n, err, len(batch))
	}
	var want []byte
	for i, f := range frames {
		if i != 1+lost { // frames[0] is the HELLO
			want = append(want, f...)
		}
	}
	events := log.snapshot()
	if len(events) != 1 || events[0].kind != "write" {
		t.Fatalf("inner saw %d events, want exactly one write", len(events))
	}
	if !bytes.Equal(events[0].data, want) {
		t.Fatalf("inner write carries %d frames (%d B), want the %d survivors (%d B) byte for byte",
			countFrames(events[0].data), len(events[0].data), k, len(want))
	}
	if got := ft.Stats().Dropped; got != 1 {
		t.Fatalf("Stats().Dropped = %d, want 1", got)
	}
}

// TestBatchedWriteMatchesPerFrameWrites pins that batching changes only how
// many inner writes carry the survivors, never which survive: the same
// frames under the same seeded drop/dup/reorder plan, written one per Write
// on one link and all in one Write on another, must deliver the same bytes
// and count the same fates — each frame draws its own fates, in the same
// order, whatever Write it arrived in.
func TestBatchedWriteMatchesPerFrameWrites(t *testing.T) {
	const k = 64
	plan := func() *fault.Plan {
		return &fault.Plan{
			Seed:  11,
			Links: []fault.LinkFault{{From: 0, To: 1, Drop: 0.15, Dup: 0.15, Reorder: 0.15}},
		}
	}
	frames := encodeFrames(t, k)

	perFT, perC, perLog := dialCapture(t, plan())
	for _, f := range frames {
		if _, err := perC.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	batchFT, batchC, batchLog := dialCapture(t, plan())
	if _, err := batchC.Write(bytes.Join(frames, nil)); err != nil {
		t.Fatal(err)
	}

	st := perFT.Stats()
	if st != batchFT.Stats() {
		t.Fatalf("fate counts differ: per-frame %+v, batched %+v", st, batchFT.Stats())
	}
	if st.Dropped == 0 || st.Duplicated == 0 || st.Reordered == 0 {
		t.Fatalf("plan exercised too few fates to compare: %+v", st)
	}
	// A frame still held for reordering when the input ends leaves on the
	// idle flush; wait until every surviving frame is out.
	want := 1 + k - int(st.Dropped) + int(st.Duplicated)
	for _, log := range []*eventLog{perLog, batchLog} {
		deadline := time.After(5 * time.Second)
		for countFrames(log.delivered()) < want {
			select {
			case <-log.wrote:
			case <-deadline:
				t.Fatalf("delivered %d frames, want %d", countFrames(log.delivered()), want)
			}
		}
	}
	if !bytes.Equal(perLog.delivered(), batchLog.delivered()) {
		t.Fatal("batched and per-frame writes delivered different byte streams")
	}
	if n := len(batchLog.snapshot()); n > 2 {
		t.Fatalf("batched Write reached the inner conn in %d writes, want at most 2 (batch + idle flush)", n)
	}
}

// TestBatchedWriteFlushPoints pins the three places a batched Write must
// reach the inner connection early, because the frame-by-frame order is
// observable there: ahead of a delay fate's sleep, before a reset's close,
// and before a scheduled crash.
func TestBatchedWriteFlushPoints(t *testing.T) {
	frames := encodeFrames(t, 3) // HELLO, then SYNs at link indices 0, 1, 2
	batch := bytes.Join(frames, nil)

	t.Run("delay", func(t *testing.T) {
		const delay = 20 * time.Millisecond
		_, c, log := dialCapture(t, &fault.Plan{
			Seed:  1,
			Links: []fault.LinkFault{{From: 0, To: 1, DelayMS: int(delay / time.Millisecond), DelayProb: 1}},
		})
		if _, err := c.Write(batch); err != nil {
			t.Fatal(err)
		}
		// Every SYN is delayed, so each leaves only after its own sleep and
		// whatever preceded it leaves before that sleep.
		events := log.snapshot()
		if len(events) != len(frames) {
			t.Fatalf("inner saw %d writes, want %d (one per delay boundary)", len(events), len(frames))
		}
		for i, e := range events {
			if !bytes.Equal(e.data, frames[i]) {
				t.Fatalf("inner write %d carries %d frames, want frame %d alone", i, countFrames(e.data), i)
			}
			if i > 0 {
				if gap := e.at.Sub(events[i-1].at); gap < delay {
					t.Fatalf("write %d left %v after write %d, want at least the %v delay between them", i, gap, i-1, delay)
				}
			}
		}
	})

	t.Run("reset", func(t *testing.T) {
		// The reset fires on link frame index 1 (the second SYN). Frame
		// index 2 then fails on the closed stream, and, exactly as frame by
		// frame, the SYN behind it is never drawn: index 3 goes to the first
		// SYN on the next connection, which the plan drops.
		frames := encodeFrames(t, 4)
		ft, c, log := dialCapture(t, &fault.Plan{
			Seed:  1,
			Links: []fault.LinkFault{{From: 0, To: 1, ResetAfter: []int{2}, DropFrames: []int{3}}},
		})
		if _, err := c.Write(bytes.Join(frames, nil)); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Write after an injected reset = %v, want the closed stream's error", err)
		}
		c2, err := ft.Dial(1, time.Now().Add(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c2.Write(append(append([]byte(nil), frames[0]...), frames[4]...)); err != nil {
			t.Fatal(err)
		}
		got := describe(log.snapshot())
		if want := "write[0 1 2] close write[3]"; got != want {
			t.Fatalf("inner events %q, want %q (the reconnect's SYN dropped as link frame 3)", got, want)
		}
		if st := ft.Stats(); st.Resets != 1 || st.Dropped != 1 {
			t.Fatalf("Stats() = %+v, want 1 reset and 1 drop", st)
		}
	})

	for _, links := range [][]fault.LinkFault{nil, {{From: 0, To: 1, DropFrames: []int{99}}}} {
		t.Run(fmt.Sprintf("crash/rules=%d", len(links)), func(t *testing.T) {
			ft, c, log := dialCapture(t, &fault.Plan{Seed: 1, Links: links, Crashes: []fault.Crash{{Node: 0, AfterFrames: 2}}})
			ft.CrashFn = func() { log.add(event{kind: "crash"}) }
			if _, err := c.Write(batch); err != nil {
				t.Fatal(err)
			}
			got := describe(log.snapshot())
			if want := "write[0 1 2] crash write[3]"; got != want {
				t.Fatalf("inner events %q, want %q", got, want)
			}
		})
	}
}

// describe renders events as "write[i j …]" (the frame indices each write
// carries, numbered over the whole delivered stream), "close" and "crash".
func describe(events []event) string {
	var b bytes.Buffer
	next := 0
	for i, e := range events {
		if i > 0 {
			b.WriteByte(' ')
		}
		if e.kind != "write" {
			b.WriteString(e.kind)
			continue
		}
		b.WriteString("write[")
		for j := countFrames(e.data); j > 0; j-- {
			fmt.Fprint(&b, next)
			next++
			if j > 1 {
				b.WriteByte(' ')
			}
		}
		b.WriteByte(']')
	}
	return b.String()
}

// discardConn is an inner connection that accepts and forgets every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

type discardInner struct{}

func (discardInner) Dial(int, time.Time) (net.Conn, error) { return discardConn{}, nil }
func (discardInner) Accept() (net.Conn, error)             { return nil, errors.New("discardInner: no accept") }
func (discardInner) Close() error                          { return nil }

// warmBatch dials a 5%-drop link, writes the HELLO, and returns the conn
// with a 32-SYN batch to write through it.
func warmBatch(tb testing.TB) (net.Conn, []byte) {
	tb.Helper()
	ft := fault.New(discardInner{}, &fault.Plan{
		Seed:  1,
		Links: []fault.LinkFault{{From: 0, To: 1, Drop: 0.05}},
	}, 0)
	c, err := ft.Dial(1, time.Now().Add(time.Second))
	if err != nil {
		tb.Fatal(err)
	}
	frames := encodeFrames(tb, 32)
	if _, err := c.Write(frames[0]); err != nil {
		tb.Fatal(err)
	}
	return c, bytes.Join(frames[1:], nil)
}

// TestBatchedWriteAllocs pins the injector's egress budget: once warm, a
// batched Write through a drop-rule link allocates nothing — frames are
// parsed in place and the survivors gathered in a reused buffer.
func TestBatchedWriteAllocs(t *testing.T) {
	c, batch := warmBatch(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Write(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batched Write of 32 SYNs allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkFaultConnWrite measures the injector's egress path: one batched
// Write of 32 SYNs through a 5%-drop link per op.
func BenchmarkFaultConnWrite(b *testing.B) {
	c, batch := warmBatch(b)
	b.SetBytes(int64(len(batch)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(batch); err != nil {
			b.Fatal(err)
		}
	}
}
