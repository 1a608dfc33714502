package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/vector"
)

// quickLogs runs one tiny pairs-tcp trial without checks and returns its
// logs and decomposition.
func quickLogs(t *testing.T) ([][]csp.Record, *decomp.Decomposition, int) {
	t.Helper()
	e := &env{seed: 7, quick: true, workdir: t.TempDir()}
	tr, err := runPairs(e, pairsTCP, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return tr.logs, decomp.Best(matching()), tr.msgs
}

func firstSend(t *testing.T, logs [][]csp.Record) (p, i int) {
	t.Helper()
	for p, l := range logs {
		for i, r := range l {
			if r.Kind == csp.RecordSend && i > 0 {
				return p, i
			}
		}
	}
	t.Fatal("no send record")
	return 0, 0
}

func TestOracleCatchesFlippedStamp(t *testing.T) {
	logs, dec, msgs := quickLogs(t)
	if bad := checkStamps(dec, logs, msgs); bad != 0 {
		t.Fatalf("clean run: %d bad messages", bad)
	}
	if bad := diffLogs(logs, logs); bad != 0 {
		t.Fatalf("logs differ from themselves: %d", bad)
	}

	// One flipped entry on the sender's side only: the two halves of the
	// rendezvous disagree and the trace cannot be rebuilt.
	p, i := firstSend(t, logs)
	clone := func() [][]csp.Record {
		c := make([][]csp.Record, len(logs))
		for q, l := range logs {
			c[q] = make([]csp.Record, len(l))
			for k, r := range l {
				r.Stamp = r.Stamp.Clone()
				c[q][k] = r
			}
		}
		return c
	}
	oneSide := clone()
	oneSide[p][i].Stamp[0] ^= 1
	if bad := checkStamps(dec, oneSide, msgs); bad == 0 {
		t.Error("oracle missed a stamp entry flipped on one side")
	}
	if bad := diffLogs(logs, oneSide); bad != 1 {
		t.Errorf("diffLogs = %d, want 1 message", bad)
	}

	// The same entry flipped on both sides: the logs still match up, so
	// only the comparison with core.StampTrace can catch it.
	both := clone()
	peer := both[p][i].Peer
	for k, r := range both[peer] {
		if r.Kind == csp.RecordRecv && r.Peer == p && vector.Eq(r.Stamp, both[p][i].Stamp) {
			both[peer][k].Stamp[0] ^= 1
			break
		}
	}
	both[p][i].Stamp[0] ^= 1
	if bad := checkStamps(dec, both, msgs); bad == 0 {
		t.Error("oracle missed a stamp entry flipped on both sides")
	}

	// A dropped record is a missing message.
	short := clone()
	short[p] = short[p][:i]
	if bad := checkStamps(dec, short, msgs); bad == 0 {
		t.Error("oracle missed a truncated log")
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var got, want []string
	for _, w := range workloads {
		got = append(got, w.name)
	}
	for _, w := range bj.Workloads {
		want = append(want, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, BENCHMARK.json has %v", got, want)
	}
	for _, c := range []struct {
		ms   []metric
		json []struct{ Name, Unit string }
	}{{endToEnd, bj.EndToEnd}, {perLayer, bj.PerLayer}} {
		if len(c.ms) != len(c.json) {
			t.Errorf("%d metrics, BENCHMARK.json has %d", len(c.ms), len(c.json))
			continue
		}
		for i, m := range c.ms {
			if m.name != c.json[i].Name || m.unit != c.json[i].Unit {
				t.Errorf("metric %d: %s %s, BENCHMARK.json has %s %s", i, m.name, m.unit, c.json[i].Name, c.json[i].Unit)
			}
		}
	}
}

// TestQuickWorkloads runs every workload at quick size, untraced and
// traced, and checks the contract line: correct, nothing failed, exactly
// the metrics of BENCHMARK.json, and no zero end-to-end metric.
func TestQuickWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"-workload", w.name, "-seed", "3", "-seconds", "0.01", "-trace", trace, "-quick", "-workdir", t.TempDir()}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if !strings.HasPrefix(lines[0], "host {") {
					t.Errorf("first line is not the host block: %q", lines[0])
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				names := bj.EndToEnd
				if trace == "1" {
					names = bj.PerLayer
				}
				if len(res.Metrics) != len(names) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(names))
				}
				for _, m := range names {
					v, ok := res.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: got %+v", m.Name, v)
					}
					if trace == "0" && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %v", m.Name, v.Value)
					}
				}
			})
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "pairs-tcp", "-trace", "2"},
		{"-workload", "pairs-tcp", "-seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, name: "node.run", start: 0, end: 100},
		{id: 2, parent: 1, name: "node.send", start: 10, end: 40},
		{id: 3, parent: 1, name: "node.send", start: 30, end: 50},
		{id: 4, parent: 1, name: "node.send", start: 90, end: 120}, // clipped to 100
	}
	rows := selfTimes(spans)
	if r := rows["node.run"]; r.SelfS != 50e-9 || r.Layer != "node" {
		t.Errorf("node.run row %+v, want self 50ns", *r)
	}
	if r := rows["node.send"]; r.Calls != 3 || math.Abs(r.TotalS-80e-9) > 1e-15 {
		t.Errorf("node.send row %+v", *r)
	}
}

func TestInterpolate(t *testing.T) {
	// 10 observations in [0,10), 10 in [10,20): the median is the edge.
	if got := interpolate([]float64{10, 10}, []float64{0, 10, 20}, 20, 0.5); got != 10 {
		t.Errorf("median %v, want 10", got)
	}
	if got := interpolate([]float64{10, 10}, []float64{0, 10, 20}, 20, 0.75); got != 15 {
		t.Errorf("p75 %v, want 15", got)
	}
}

func TestSortedQuantile(t *testing.T) {
	vs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.99, 49.6}, {1, 50}} {
		if got := sortedQuantile(vs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q%v = %v, want %v", c.q, got, c.want)
		}
	}
	if got := sortedQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty: %v", got)
	}
}

func TestIQM(t *testing.T) {
	// The lowest and highest quarter (two values each of eight) are dropped.
	if got := iqm([]float64{100, 1, 2, 3, 4, 5, 6, -100}); got != 3.5 {
		t.Errorf("iqm = %v, want 3.5", got)
	}
	// Fewer than four values: the plain mean.
	if got := iqm([]float64{1, 2, 6}); got != 3 {
		t.Errorf("iqm = %v, want 3", got)
	}
	if got := iqm(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
}
