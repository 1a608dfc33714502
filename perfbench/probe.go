package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// freeMemory collects the heap and returns it to the OS, then resets the
// kernel's resident-set high-water mark, so the next peakRSSMB reading
// covers only what follows.
func freeMemory() {
	debug.FreeOSMemory()
	// "5" resets VmHWM (Linux ≥ 4.0). Where it is refused the reading
	// stays the process-wide peak, which hostInfo reports.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark since the last
// freeMemory, in MiB.
func peakRSSMB() float64 {
	kb := procStatusKB("VmHWM:")
	if kb == 0 {
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			kb = ru.Maxrss
		}
	}
	return float64(kb) / 1024
}

func procStatusKB(field string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer func() { _ = f.Close() }() // read-only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// rtNames are the Go runtime metrics the runtime layer reads.
var rtNames = []string{
	"/sched/latencies:seconds",
	"/sync/mutex/wait/total:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

// rtSample is a snapshot of the runtime layer: Go runtime metrics plus the
// process CPU time and the wall clock.
type rtSample struct {
	m   []metrics.Sample
	cpu time.Duration
	at  time.Time
}

func sampleRuntime() rtSample {
	s := rtSample{m: make([]metrics.Sample, len(rtNames))}
	for i, n := range rtNames {
		s.m[i].Name = n
	}
	metrics.Read(s.m)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.at = time.Now()
	return s
}

// runtimeLayer fills the runtime.* metrics for the window [a, b] over msgs
// operations.
func runtimeLayer(a, b rtSample, msgs int, out map[string]float64) {
	wall := b.at.Sub(a.at).Seconds()
	out["runtime.sched_wait_p99_us"] = 1e6 * histQuantileDelta(a.m[0].Value, b.m[0].Value, 0.99)
	out["runtime.mutex_wait_s"] = b.m[1].Value.Float64() - a.m[1].Value.Float64()
	if total := b.m[3].Value.Float64() - a.m[3].Value.Float64(); total > 0 {
		out["runtime.gc_cpu_frac"] = (b.m[2].Value.Float64() - a.m[2].Value.Float64()) / total
	}
	out["runtime.cpu_busy_frac"] = (b.cpu - a.cpu).Seconds() / (wall * float64(runtime.GOMAXPROCS(0)))
	out["runtime.allocs_per_msg"] = float64(b.m[4].Value.Uint64()-a.m[4].Value.Uint64()) / float64(msgs)
	out["runtime.alloc_bytes_per_msg"] = float64(b.m[5].Value.Uint64()-a.m[5].Value.Uint64()) / float64(msgs)
}

// histQuantileDelta is the q-quantile of the observations a runtime
// histogram gained between two reads, interpolated within its bucket.
func histQuantileDelta(a, b metrics.Value, q float64) float64 {
	if a.Kind() != metrics.KindFloat64Histogram || b.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	ha, hb := a.Float64Histogram(), b.Float64Histogram()
	counts := make([]float64, len(hb.Counts))
	var total float64
	for i := range hb.Counts {
		counts[i] = float64(hb.Counts[i] - ha.Counts[i])
		total += counts[i]
	}
	return interpolate(counts, hb.Buckets, total, q)
}

// dist is a bucketed latency distribution in nanoseconds: counts[i]
// observations between bounds[i] and bounds[i+1].
type dist struct{ bounds, counts []float64 }

// logEdges returns log-linear bucket edges, perOctave of them per power of
// two, from 2^lo to 2^hi nanoseconds.
func logEdges(perOctave, lo, hi int) []int64 {
	var edges []int64
	for e := lo; e < hi; e++ {
		for s := 0; s < perOctave; s++ {
			edges = append(edges, int64(math.Round(math.Exp2(float64(e)+float64(s)/float64(perOctave)))))
		}
	}
	return edges
}

// bucketed is the distribution with obs.Histogram's layout: counts has one
// entry per edge plus an overflow bucket, and bucket i holds the values v
// with edges[i-1] < v ≤ edges[i].
func bucketed(edges, counts []int64) dist {
	d := dist{bounds: make([]float64, len(edges)+2), counts: make([]float64, len(counts))}
	for i, e := range edges {
		d.bounds[i+1] = float64(e)
	}
	d.bounds[len(d.bounds)-1] = math.Inf(1)
	for i, c := range counts {
		d.counts[i] = float64(c)
	}
	return d
}

func (d dist) total() float64 {
	var n float64
	for _, c := range d.counts {
		n += c
	}
	return n
}

func (d dist) quantile(q float64) float64 { return interpolate(d.counts, d.bounds, d.total(), q) }

// sortedQuantile is the q-quantile of the sorted values vs, interpolated
// linearly between the two nearest order statistics (0 for none).
func sortedQuantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	pos := q * float64(len(vs)-1)
	lo := int(pos)
	if lo+1 >= len(vs) {
		return vs[len(vs)-1]
	}
	return vs[lo] + (pos-float64(lo))*(vs[lo+1]-vs[lo])
}

// interpolate finds the q-quantile of a bucketed distribution whose bucket
// i spans [bounds[i], bounds[i+1]), linearly within the bucket. Infinite
// outer bounds collapse onto the finite one.
func interpolate(counts, bounds []float64, total, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * total
	var seen float64
	for i, c := range counts {
		if c == 0 || seen+c < rank {
			seen += c
			continue
		}
		lo, hi := bounds[i], bounds[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		return lo + (hi-lo)*(rank-seen)/c
	}
	return bounds[len(bounds)-1]
}

// hostInfo is the host block every result starts with.
func hostInfo(dir string) map[string]string {
	return map[string]string{
		"cpu":        cpuModel(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"kernel":     kernel(),
		"tmp_fs":     fsType(dir),
		"rss_reset":  strconv.FormatBool(os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer func() { _ = f.Close() }() // read-only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return runtime.GOOS + " " + strings.TrimSpace(string(b))
}

// fsMagic names the statfs magic numbers of common Linux filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x65735546: "fuse",
	0x6A656A63: "virtiofs",
	0x01021997: "9p",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
