// Command perfbench is the repository benchmark. It drives the public
// runtime API from outside the program — decomp.Best, node.New/Run,
// Process.Send/RecvFrom, fault.New and load.Run — over
// one seeded workload, repeats fixed-size trials for a wall-clock budget,
// checks every trial's stamps against the sequential oracle after timing,
// and prints each metric's interquartile mean over the trials.
//
//	perfbench -workload pairs-tcp -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the last stdout line carries the end-to-end metrics; with
// -trace 1 the run alternates untraced and traced trials, the last line
// carries the per-layer metrics (including the tracing overhead, traced
// minus untraced msgs_per_sec), and the traced trials' spans are written
// to a file in -workdir. See README.md for the workloads and metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"syncstamp/internal/csp"
)

// metric is one reported quantity: its name in BENCHMARK.json and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the runtime sees, reported by every
// untraced run. failed operations are not a metric here: they go to the
// result's own attempted/failed counts.
var endToEnd = []metric{
	{"msgs_per_sec", "1/s"},
	{"send_p50_us", "us"},
	{"send_p99_us", "us"},
	{"wire_bytes_per_msg", "B"},
	{"mem_peak_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics, one group per module of the
// repository. A layer a workload leaves idle reports 0.
var perLayer = []metric{
	{"runtime.sched_wait_p99_us", "us"},
	{"runtime.mutex_wait_s", "s"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.cpu_busy_frac", "frac"},
	{"runtime.allocs_per_msg", "count"},
	{"runtime.alloc_bytes_per_msg", "B"},
	{"node.run_s", "s"},
	{"node.send_busy_s", "s"},
	{"node.recv_wait_s", "s"},
	{"node.dedup_per_kmsg", "count"},
	{"transport.writes_per_msg", "count"},
	{"transport.reads_per_msg", "count"},
	{"transport.frames_per_write", "count"},
	{"transport.write_s", "s"},
	{"transport.dial_s", "s"},
	{"wire.frames_per_msg", "count"},
	{"wire.frames_per_msg.hello", "count"},
	{"wire.frames_per_msg.syn", "count"},
	{"wire.frames_per_msg.ack", "count"},
	{"wire.frames_per_msg.bye", "count"},
	{"wire.vector_bytes_per_msg", "B"},
	{"wire.dense_bytes_per_msg", "B"},
	{"decomp.d", "count"},
	{"decomp.best_s", "s"},
	{"sync.retransmits_per_kmsg", "count"},
	{"sync.spurious_frac", "frac"},
	{"sync.srtt_us", "us"},
	{"sync.rto_us", "us"},
	{"sync.suspicions", "count"},
	{"journal.appends_per_sync", "count"},
	{"journal.syncs_per_kmsg", "count"},
	{"journal.bytes_per_msg", "B"},
	{"load.drive_s", "s"},
	{"collector.finish_s", "s"},
	{"collector.segments_spilled", "count"},
	{"collector.spill_bytes_per_msg", "B"},
	{"collector.max_resident_records", "count"},
	{"collector.shards_verified", "count"},
	{"trace.overhead_msgs_per_sec", "1/s"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans_per_trial", "count"},
}

// workload is one set of seeded inputs and the code that runs one trial
// of it.
type workload struct {
	name string
	// prepare runs once before any trial, untimed (e.g. a clean reference
	// run to compare lossy stamps against).
	prepare func(env *env) error
	trial   func(env *env, rec *recorder) (*trial, error)
}

var workloads = []workload{
	{name: "pairs-tcp", trial: pairTrial(pairsTCP)},
	{name: "lossy-async", prepare: prepareLossy, trial: pairTrial(lossyAsync)},
	{name: "clients-collect", trial: collectTrial},
}

// env is one benchmark run's fixed inputs and scratch space.
type env struct {
	seed    int64
	quick   bool
	workdir string
	trials  int // trials started so far; names per-trial scratch dirs

	// reference is the clean run's per-process logs (lossy-async only).
	reference [][]csp.Record
}

// trialSeed is the current trial's seed: a fixed function of the run's
// seed and the trial index, so a run averages over many loss patterns and
// schedules, and the same seed still gives the same inputs.
func (e *env) trialSeed() int64 { return e.seed*1_000_003 + int64(e.trials) }

// trialDir returns a fresh per-trial scratch directory under workdir.
func (e *env) trialDir() (string, error) {
	dir := filepath.Join(e.workdir, fmt.Sprintf("tmp-%d", os.Getpid()), fmt.Sprintf("trial-%d", e.trials))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// trial is one measured repetition of a workload.
type trial struct {
	msgs   int     // operations attempted: rendezvous, or load records
	failed int     // operations the run or the output checks lost
	wallS  float64 // measured wall time of the operations
	// e2e holds the end-to-end metrics except msgs_per_sec.
	e2e map[string]float64
	// layer holds the per-layer metrics (traced trials only).
	layer map[string]float64
	spans []span
	rows  map[string]*layerRow // the spans' per-name totals
	// logs is kept only by the unchecked clean reference run.
	logs [][]csp.Record
	// runErr is the run's error; all its operations count as failed.
	runErr error
}

func (t *trial) msgsPerSec() float64 { return float64(t.msgs) / t.wallS }

// setLatency keeps the trial's median and 99th-percentile operation
// latency, given in nanoseconds.
func (t *trial) setLatency(p50, p99 float64) {
	t.e2e["send_p50_us"] = p50 / 1e3
	t.e2e["send_p99_us"] = p99 / 1e3
}

// result is the contract line: the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pairs-tcp, lossy-async or clients-collect")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measuring budget in seconds; trials repeat until it is spent")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced trials")
	workdir := fs.String("workdir", ".bench_build/perfbench", "scratch directory for journals, spill files and span dumps")
	quick := fs.Bool("quick", false, "tiny trials, for tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || (*traceMode != 0 && *traceMode != 1) || !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	// One P: on a shared 2-vCPU host a second P made pairs-tcp slower and
	// its tail latency far more variable (see README.md); the kernel's
	// loopback and disk work still runs on the other vCPU.
	runtime.GOMAXPROCS(1)
	e := &env{seed: *seed, quick: *quick, workdir: *workdir}
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer func() { _ = os.RemoveAll(filepath.Join(e.workdir, fmt.Sprintf("tmp-%d", os.Getpid()))) }()

	host := hostInfo(e.workdir)
	hb, _ := json.Marshal(host) // a map of strings always marshals
	fmt.Fprintf(stdout, "host %s\n", hb)

	res, err := measure(e, wl, time.Duration(*seconds*float64(time.Second)), *traceMode == 1, host, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: output checks failed; report refused")
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// measure runs one warm-up trial, then trials until the budget is spent,
// and reduces them to interquartile means; each trial's figures go to diag. Traced
// runs alternate untraced and traced trials so drift lands on both
// equally.
func measure(e *env, wl *workload, budget time.Duration, traced bool, host map[string]string, out, diag io.Writer) (*result, error) {
	if wl.prepare != nil {
		if err := wl.prepare(e); err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", wl.name, err)
		}
	}
	t, err := runTrial(e, wl, nil)
	if err == nil {
		err = t.runErr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", wl.name, err)
	}
	// Trials keep only their scalar figures, so the heap the process keeps
	// between trials does not grow with the run's length: a growing live
	// heap spaces the collector's cycles further apart and visibly lowered
	// send_p99_us over a long run.
	var plain, withTrace []*trial
	start := time.Now()
	for i := 0; ; i++ {
		var rec *recorder
		if traced && i%2 == 1 {
			rec = newRecorder()
		}
		t, err := runTrial(e, wl, rec)
		if err != nil {
			return nil, fmt.Errorf("%s: trial %d: %w", wl.name, i, err)
		}
		fmt.Fprintf(diag, "trial %d traced=%v: %.0f msgs/s p50 %.1fus p99 %.1fus setup %.6fs mem %.1fMB failed %d goroutines %d\n",
			i, rec != nil, t.e2e["msgs_per_sec"], t.e2e["send_p50_us"], t.e2e["send_p99_us"], t.e2e["setup_s"], t.e2e["mem_peak_mb"], t.failed, runtime.NumGoroutine())
		if t.runErr != nil {
			fmt.Fprintf(diag, "trial %d: %v\n", i, t.runErr)
		}
		if rec != nil {
			// The layer table needs only each trial's rows; the spans
			// file keeps the first traced trial's spans in full.
			t.rows = selfTimes(t.spans)
			if len(withTrace) > 0 {
				t.spans = nil
			}
			withTrace = append(withTrace, t)
		} else {
			plain = append(plain, t)
		}
		if time.Since(start) >= budget && len(plain) >= 1 && (!traced || len(withTrace) >= 1) {
			break
		}
	}

	res := &result{Correct: true, Metrics: make(map[string]metricValue)}
	all := append(append([]*trial(nil), plain...), withTrace...)
	for _, t := range all {
		res.Attempted += t.msgs
		res.Failed += t.failed
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	e2e := reduce(plain, endToEnd, func(t *trial) map[string]float64 { return t.e2e })
	fmt.Fprintf(out, "workload %s seed %d: %d untraced trials of %d ops, %d traced; failed_frac %.6f (%d of %d)\n",
		wl.name, e.seed, len(plain), plain[0].msgs, len(withTrace), float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	printMetrics(out, "end-to-end (interquartile means over trials)", endToEnd, e2e)
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: e2e[m.name], Unit: m.unit}
		}
		return res, nil
	}

	layer := reduce(withTrace, perLayer, func(t *trial) map[string]float64 { return t.layer })
	tracedRate := iqm(collect(withTrace, func(t *trial) float64 { return t.msgsPerSec() }))
	layer["trace.overhead_msgs_per_sec"] = tracedRate - e2e["msgs_per_sec"]
	layer["trace.overhead_frac"] = layer["trace.overhead_msgs_per_sec"] / e2e["msgs_per_sec"]
	printMetrics(out, "per-layer (interquartile means over traced trials)", perLayer, layer)
	fmt.Fprintf(out, "tracing overhead: traced %.1f msgs/s minus untraced %.1f msgs/s = %.1f (%.2f%%)\n",
		tracedRate, e2e["msgs_per_sec"], layer["trace.overhead_msgs_per_sec"], 100*layer["trace.overhead_frac"])

	table := layerTable(withTrace)
	printLayerTable(out, table)
	path := filepath.Join(e.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, e.seed))
	if err := writeSpans(path, host, wl.name, e.seed, table, withTrace); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{Value: layer[m.name], Unit: m.unit}
	}
	return res, nil
}

// runTrial runs one trial and frees the heap first, so every trial starts
// from the same collected state and the peak-RSS reading is its own.
func runTrial(e *env, wl *workload, rec *recorder) (*trial, error) {
	e.trials++
	freeMemory()
	t, err := wl.trial(e, rec)
	if err != nil {
		return nil, err
	}
	t.e2e["msgs_per_sec"] = t.msgsPerSec()
	return t, nil
}

// reduce takes the interquartile mean of every listed metric over the
// trials.
func reduce(ts []*trial, ms []metric, get func(*trial) map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		out[m.name] = iqm(collect(ts, func(t *trial) float64 { return get(t)[m.name] }))
	}
	return out
}

func collect(ts []*trial, f func(*trial) float64) []float64 {
	vs := make([]float64, len(ts))
	for i, t := range ts {
		vs[i] = f(t)
	}
	return vs
}

// iqm returns the interquartile mean of vs: the mean of what is left once
// the lowest and the highest quarter are dropped (0 for none); vs is
// reordered. On the 2-vCPU host the benchmark was built on, trials fall
// into a fast and a slow host state about 30% apart. A median jumps from
// one state to the other as their shares cross one half; the
// interquartile mean moves with the shares, and still ignores the odd
// stalled trial.
func iqm(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	cut := len(vs) / 4
	var sum float64
	for _, v := range vs[cut : len(vs)-cut] {
		sum += v
	}
	return sum / float64(len(vs)-2*cut)
}

// median returns the median of vs (0 for none); vs is reordered.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func printMetrics(out io.Writer, title string, ms []metric, vals map[string]float64) {
	fmt.Fprintf(out, "%s:\n", title)
	for _, m := range ms {
		fmt.Fprintf(out, "  %-32s %16.6g %s\n", m.name, vals[m.name], m.unit)
	}
}
