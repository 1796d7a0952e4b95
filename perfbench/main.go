// Command perfbench is beqos's end-to-end benchmark. One invocation runs one
// named workload for one seed and prints, as its last stdout line, a JSON
// object with the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1). Correctness checks fold into ok_ratio; a failed check makes the
// run exit non-zero. Everything runs in this one process on loopback: no real
// link is crossed.
//
//	go run . -workload edge-churn -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and check outcomes.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one correctness check; a failure counts against ok_ratio.
func (r *report) check(ok bool, format string, args ...interface{}) {
	r.attempted++
	if !ok {
		r.failed++
		r.notef("CHECK FAILED: "+format, args...)
	}
}

func (r *report) notef(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

type workloadFunc func(cfg runConfig, r *report) error

type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
}

var workloads = map[string]workloadFunc{
	"edge-churn":    runEdgeChurn,
	"edge-udp":      runEdgeUDP,
	"cluster-paths": runClusterPaths,
	"paper-repro":   runPaperRepro,
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	r := newReport()
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if err := run(cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if !cfg.trace {
		r.set("rss_mb", peakRSSMB(r), "MB")
		ok := 1.0
		if r.attempted > 0 {
			ok = float64(r.attempted-r.failed) / float64(r.attempted)
		}
		r.set("ok_ratio", ok, "ratio")
	}
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-40s %14.6g %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	out, err := json.Marshal(result{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if r.failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// childRSSMB is the peak RSS of a child process the workload ran, if any.
var childRSSMB float64

// peakRSSMB is the run's peak resident set: this process or the largest
// child it waited for, whichever is higher.
func peakRSSMB(r *report) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		r.notef("getrusage: %v", err)
		return 0
	}
	return math.Max(float64(ru.Maxrss)/1024, childRSSMB) // Maxrss is in KiB on Linux
}

// Clock IDs for clock_gettime. The per-thread and per-process CPU clocks
// are exact; getrusage counts in scheduler ticks (4 ms here).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id int) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuSeconds is the CPU time the process has used. Time the host spends
// running other guests (steal) is not charged to it.
func cpuSeconds() float64 { return cpuClock(clockProcessCPU).Seconds() }

// quantile returns the q-quantile of sorted xs (nearest rank).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// windowed splits samples (in due order) into consecutive windows of size
// n and returns the median over windows of each window's q-quantile, and the
// window count. A burst of host noise then moves one window, not the figure.
func windowed(lat []float64, n int, q float64) (float64, int) {
	var qs []float64
	w := make([]float64, 0, n)
	for i := 0; i+n <= len(lat); i += n {
		w = append(w[:0], lat[i:i+n]...)
		sort.Float64s(w)
		qs = append(qs, quantile(w, q))
	}
	return median(qs), len(qs)
}

// gcStats reports the Go runtime's collector and allocation counters.
func gcStats(r *report, ops float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("go.gc_cycles", float64(ms.NumGC), "count")
	r.set("go.gc_pause_ms", float64(ms.PauseTotalNs)/1e6, "ms")
	r.set("go.alloc_mb", float64(ms.TotalAlloc)/(1<<20), "MB")
	r.set("go.allocs_per_op", float64(ms.Mallocs)/math.Max(ops, 1), "allocs/op")
}
