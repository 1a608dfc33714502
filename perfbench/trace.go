package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"syncstamp/internal/node"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the API. Times are nanoseconds since the recorder's epoch. proc and
// round key a node.send/node.recv span to its rendezvous; -1 elsewhere.
type span struct {
	id, parent  int64
	name        string
	start, end  int64
	proc, round int32
}

// recorder keeps a traced trial's spans in memory. A nil recorder is an
// untraced trial: callers skip recording entirely.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
	conns []*tracedConn

	// Transport counters, summed over every traced connection.
	writes, reads, writeNS, dialNS atomic.Int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) rel(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) newID() int64 { return r.ids.Add(1) }

// open starts a span and returns it; close it with done. Both, like
// timed, do nothing on a nil recorder.
func (r *recorder) open(name string, parent int64) span {
	if r == nil {
		return span{}
	}
	return span{id: r.newID(), parent: parent, name: name, start: r.rel(time.Now()), proc: -1, round: -1}
}

func (r *recorder) done(s span) {
	if r != nil {
		s.end = r.rel(time.Now())
		r.add(s)
	}
}

// timed records a call that started at start and took d.
func (r *recorder) timed(name string, parent int64, start time.Time, d time.Duration) {
	if r != nil {
		s := r.rel(start)
		r.add(span{id: r.newID(), parent: parent, name: name, start: s, end: s + int64(d), proc: -1, round: -1})
	}
}

func (r *recorder) add(ss ...span) {
	r.mu.Lock()
	r.spans = append(r.spans, ss...)
	r.mu.Unlock()
}

// addBuffered keeps spans buffered without ids, giving each one.
func (r *recorder) addBuffered(buf []span) {
	if r != nil {
		for i := range buf {
			buf[i].id = r.newID()
		}
		r.add(buf...)
	}
}

// finish closes out the trial: every traced connection's buffered spans
// join the recorder, and the spans are returned ordered by start time.
func (r *recorder) finish() []span {
	r.mu.Lock()
	conns := append([]*tracedConn(nil), r.conns...)
	r.mu.Unlock()
	for _, c := range conns {
		c.flush()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].start < r.spans[j].start })
	return r.spans
}

// tracedTransport wraps a node.Transport to time dials and to hand out
// connections that time and count every read and write. Each connection
// is a transport.conn span under parent; its reads and writes hang under
// it.
type tracedTransport struct {
	inner  node.Transport
	rec    *recorder
	parent int64
}

func (t *tracedTransport) Dial(peer int, deadline time.Time) (net.Conn, error) {
	start := time.Now()
	c, err := t.inner.Dial(peer, deadline)
	d := time.Since(start)
	t.rec.dialNS.Add(int64(d))
	t.rec.timed("transport.dial", t.parent, start, d)
	if err != nil {
		return nil, err
	}
	return t.wrap(c), nil
}

func (t *tracedTransport) Accept() (net.Conn, error) {
	c, err := t.inner.Accept()
	if err != nil {
		return nil, err
	}
	return t.wrap(c), nil
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

func (t *tracedTransport) wrap(c net.Conn) net.Conn {
	tc := &tracedConn{Conn: c, rec: t.rec}
	tc.self = t.rec.open("transport.conn", t.parent)
	t.rec.mu.Lock()
	t.rec.conns = append(t.rec.conns, tc)
	t.rec.mu.Unlock()
	return tc
}

// tracedConn times each Read and Write. Writes on one connection are
// serialized by the node runtime and reads come from its single reader
// goroutine, but the two sides run concurrently, so the span buffer has
// its own lock.
type tracedConn struct {
	net.Conn
	rec   *recorder
	self  span
	mu    sync.Mutex
	spans []span
	ended bool
}

func (c *tracedConn) Read(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(b)
	c.rec.reads.Add(1)
	c.note("transport.read", start, time.Now())
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(b)
	end := time.Now()
	c.rec.writes.Add(1)
	c.rec.writeNS.Add(int64(end.Sub(start)))
	c.note("transport.write", start, end)
	return n, err
}

func (c *tracedConn) note(name string, start, end time.Time) {
	c.mu.Lock()
	c.spans = append(c.spans, span{parent: c.self.id, name: name, start: c.rec.rel(start), end: c.rec.rel(end), proc: -1, round: -1})
	c.mu.Unlock()
}

func (c *tracedConn) Close() error {
	c.end()
	return c.Conn.Close()
}

func (c *tracedConn) end() {
	c.mu.Lock()
	if !c.ended {
		c.ended = true
		c.self.end = c.rec.rel(time.Now())
	}
	c.mu.Unlock()
}

// flush hands the connection's spans to the recorder, closing the
// connection span at the last recorded call if the runtime never closed it.
func (c *tracedConn) flush() {
	c.end()
	c.mu.Lock()
	spans := c.spans
	c.spans = nil
	self := c.self
	c.mu.Unlock()
	c.rec.addBuffered(spans)
	c.rec.add(self)
}

// layerRow is one line of the layer table: a span name's calls per trial,
// its total time and its self time (total minus the time its child spans
// cover), medians over the traced trials.
type layerRow struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Calls  float64 `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes sums, per span name, the call count, total time and self time
// of one trial's spans.
func selfTimes(spans []span) map[string]*layerRow {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		r := rows[s.name]
		if r == nil {
			layer, _, _ := strings.Cut(s.name, ".")
			r = &layerRow{Name: s.name, Layer: layer}
			rows[s.name] = r
		}
		dur := s.end - s.start
		r.Calls++
		r.TotalS += float64(dur) / 1e9
		r.SelfS += float64(dur-covered(s, children[s.id])) / 1e9
	}
	return rows
}

// covered is how much of parent's interval the union of its children's
// intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return sum + curHi - curLo
}

// layerTable reduces the traced trials' spans to one row per span name.
func layerTable(ts []*trial) []layerRow {
	per := make([]map[string]*layerRow, len(ts))
	names := make(map[string]string)
	for i, t := range ts {
		per[i] = t.rows
		for n, r := range per[i] {
			names[n] = r.Layer
		}
	}
	var rows []layerRow
	for n, layer := range names {
		row := layerRow{Name: n, Layer: layer}
		pick := func(f func(*layerRow) float64) float64 {
			vs := make([]float64, len(per))
			for i, m := range per {
				if r := m[n]; r != nil {
					vs[i] = f(r)
				}
			}
			return median(vs)
		}
		row.Calls = pick(func(r *layerRow) float64 { return r.Calls })
		row.TotalS = pick(func(r *layerRow) float64 { return r.TotalS })
		row.SelfS = pick(func(r *layerRow) float64 { return r.SelfS })
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Layer != rows[j].Layer {
			return rows[i].Layer < rows[j].Layer
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

func printLayerTable(out io.Writer, rows []layerRow) {
	fmt.Fprintf(out, "layer table (per traced trial, medians; self = total minus child spans):\n")
	fmt.Fprintf(out, "  %-10s %-18s %12s %12s %12s\n", "layer", "span", "calls", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-10s %-18s %12.0f %12.6f %12.6f\n", r.Layer, r.Name, r.Calls, r.TotalS, r.SelfS)
	}
}

// spanLine is a span's JSON form in the spans file.
type spanLine struct {
	Trial  int    `json:"trial"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Proc   *int32 `json:"proc,omitempty"`
	Round  *int32 `json:"round,omitempty"`
}

// writeSpans writes the traced trials' kept spans as JSON lines: a header
// with the host block and the layer table, then one line per span.
func writeSpans(path string, host map[string]string, workload string, seed int64, table []layerRow, ts []*trial) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	header := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Host     map[string]string `json:"host"`
		Trials   int               `json:"traced_trials"`
		Layers   []layerRow        `json:"layer_table"`
	}{workload, seed, host, len(ts), table}
	if err := enc.Encode(header); err != nil {
		return err
	}
	for i, t := range ts {
		for _, s := range t.spans {
			l := spanLine{Trial: i, ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: s.end}
			if s.proc >= 0 {
				p, r := s.proc, s.round
				l.Proc, l.Round = &p, &r
			}
			if err := enc.Encode(l); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}
