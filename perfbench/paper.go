package main

// paper-repro: the paper's figures and the flow-level simulator, closed
// loop. The figure harness runs once as a child process built from the
// tree under test; sim.Run replications alternate the legacy arrival path
// with the spec-driven one for the rest of the measured time.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"beqos/internal/core"
	"beqos/internal/dist"
	"beqos/internal/sim"
	"beqos/internal/utility"
	"beqos/internal/workload"
)

// figureDigests holds the SHA-256 of every CSV `figures -quick` writes, as
// the tree produced them when the benchmark was defined. The figures must
// stay byte-identical, so a digest change is a failed check.
//
//go:embed figures-quick.sha256
var figureDigests string

// paperSetupReps is larger than the serving workloads' count: the set-up
// takes milliseconds, so more repeats keep its median steady.
const paperSetupReps = 25

// Paths, relative to the checkout root the benchmark runs from.
const (
	figuresBin    = ".bench_build/figures"
	workDir       = ".bench_build/run"
	heavytailSpec = "specs/heavytail.spec"
	baselineSpec  = "specs/baseline.spec"
)

// simCase is one kind of replication.
type simCase struct {
	name string
	cfg  func(seed uint64) sim.Config
	// stationary, when set, is the scenario whose Stationary() mean the
	// replication's best-effort occupancy must match.
	stationary *workload.Scenario
}

// paperSetup is the compiled state every replication reuses.
type paperSetup struct {
	cases []simCase
}

// setUpPaper compiles the scenarios and tabulates the models the run uses.
func setUpPaper() (*paperSetup, error) {
	heavy, err := readSpec(heavytailSpec)
	if err != nil {
		return nil, err
	}
	base, err := readSpec(baselineSpec)
	if err != nil {
		return nil, err
	}
	if _, ok := base.Stationary(); !ok {
		return nil, fmt.Errorf("%s is not stationary", baselineSpec)
	}
	rigid, err := utility.NewRigid(1)
	if err != nil {
		return nil, err
	}
	arr, err := sim.NewPoissonArrivals(10)
	if err != nil {
		return nil, err
	}
	hold, err := sim.NewExpHolding(10)
	if err != nil {
		return nil, err
	}
	// Tabulate the six load × utility models the figure harness builds,
	// so set-up covers model construction.
	adaptive := utility.NewAdaptive()
	for _, newLoad := range []func() (dist.Discrete, error){
		func() (dist.Discrete, error) { return dist.NewPoisson(100) },
		func() (dist.Discrete, error) { return dist.NewExponentialMean(100) },
		func() (dist.Discrete, error) { return dist.NewAlgebraicMean(3, 100) },
	} {
		load, err := newLoad()
		if err != nil {
			return nil, err
		}
		for _, u := range []utility.Function{rigid, adaptive} {
			if _, err := core.New(load, u); err != nil {
				return nil, err
			}
		}
	}
	return &paperSetup{cases: []simCase{
		{name: "s1-legacy", cfg: func(seed uint64) sim.Config {
			// The S1 configuration of `figures -quick` (reservation, C = 110).
			return sim.Config{Capacity: 110, Util: rigid, Policy: sim.Reservation,
				Arrivals: arr, Holding: hold, Horizon: 3000, Warmup: 50, Samples: 1,
				Seed1: seed, Seed2: seed ^ 0x5eed}
		}},
		{name: "heavytail-spec", cfg: func(seed uint64) sim.Config {
			return sim.Config{Capacity: 50, Util: adaptive, Policy: sim.Reservation,
				Workload: heavy, Samples: 1, Seed1: seed, Seed2: seed ^ 0x5eed}
		}},
		{name: "baseline-spec", stationary: base, cfg: func(seed uint64) sim.Config {
			return sim.Config{Capacity: 100, Util: adaptive, Policy: sim.BestEffort,
				Workload: base, Seed1: seed, Seed2: seed ^ 0x5eed}
		}},
	}}, nil
}

func readSpec(path string) (*workload.Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return workload.Parse(string(b))
}

// replicationSeed derives replication i's seed from the benchmark seed.
func replicationSeed(seed uint64, i int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return x*0x94d049bb133111eb | 1
}

// simRun is one replication's outcome.
type simRun struct {
	c     int // index into cases
	wall  time.Duration
	cpu   time.Duration // CPU time of the thread that ran it
	flows int
	occ   float64
}

// threadCPU is the calling thread's CPU time; the caller must hold its
// thread with runtime.LockOSThread.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// runReplications runs replications round-robin over the cases until dur
// has passed. span, if non-nil, wraps every sim.Run call.
func (ps *paperSetup) runReplications(seed uint64, dur time.Duration, span func(name string, f func())) ([]simRun, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var runs []simRun
	deadline := time.Now().Add(dur)
	for i := 0; time.Now().Before(deadline); i++ {
		c := i % len(ps.cases)
		cfg := ps.cases[c].cfg(replicationSeed(seed, i))
		var res sim.Result
		var err error
		t0, c0 := time.Now(), threadCPU()
		if span != nil {
			span(ps.cases[c].name, func() { res, err = sim.Run(cfg) })
		} else {
			res, err = sim.Run(cfg)
		}
		wall, cpu := time.Since(t0), threadCPU()-c0
		if err != nil {
			return runs, fmt.Errorf("sim replication %d (%s): %w", i, ps.cases[c].name, err)
		}
		runs = append(runs, simRun{c: c, wall: wall, cpu: cpu, flows: res.Flows, occ: res.AvgOccupancy})
	}
	return runs, nil
}

// checkStationary pools the stationary cases' occupancy means and requires
// them within 3σ of Scenario.Stationary(). For an M/M/∞ population the
// time average over T has variance ≈ 2·k̄·hold/T.
func (ps *paperSetup) checkStationary(r *report, runs []simRun) {
	for ci, c := range ps.cases {
		if c.stationary == nil {
			continue
		}
		mean, _ := c.stationary.Stationary()
		ph := c.stationary.Phases[0]
		T := c.stationary.Duration() - c.stationary.Warmup
		sigma := math.Sqrt(2 * mean * ph.Holding.MeanHold() / T)
		var sum float64
		var n int
		for _, run := range runs {
			if run.c == ci {
				sum += run.occ
				n++
			}
		}
		if n == 0 {
			r.check(false, "%s: no replication ran", c.name)
			continue
		}
		got := sum / float64(n)
		bound := 3 * sigma / math.Sqrt(float64(n))
		r.check(math.Abs(got-mean) <= bound, "%s: occupancy mean %.4f over %d replications, want %.1f ± %.4f (3σ)", c.name, got, n, mean, bound)
	}
}

// runFigures runs `figures -quick` at its default parallelism into a fresh
// directory, checks every CSV against the stored digests and returns the
// child's wall and CPU time.
func runFigures(r *report, seed uint64) (wall, cpu time.Duration, err error) {
	out := filepath.Join(workDir, fmt.Sprintf("figures-%d-%d", seed, os.Getpid()))
	if err := os.RemoveAll(out); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(out)
	var stderr bytes.Buffer
	cmd := exec.Command(figuresBin, "-quick", "-out", out)
	cmd.Stderr = &stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, 0, fmt.Errorf("%s: %v\n%s", figuresBin, err, stderr.String())
	}
	wall = time.Since(t0)
	cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		childRSSMB = math.Max(childRSSMB, float64(ru.Maxrss)/1024)
	}
	want := parseDigests(figureDigests)
	got, err := digestCSVs(out)
	if err != nil {
		return 0, 0, err
	}
	r.check(len(got) == len(want), "figures wrote %d CSVs, reference has %d", len(got), len(want))
	for name, sum := range want {
		r.check(got[name] == sum, "figure %s digest %s, reference %s", name, got[name], sum)
	}
	return wall, cpu, nil
}

func parseDigests(text string) map[string]string {
	m := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 {
			m[f[1]] = f[0]
		}
	}
	return m
}

func digestCSVs(dir string) (map[string]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	m := map[string]string{}
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(b)
		m[filepath.Base(n)] = hex.EncodeToString(sum[:])
	}
	return m, nil
}

func runPaperRepro(cfg runConfig, r *report) error {
	if cfg.trace {
		return tracePaper(cfg, r)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	var ps *paperSetup
	var setups []float64
	for i := 0; i < paperSetupReps; i++ {
		t0 := cpuSeconds()
		p, err := setUpPaper()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, cpuSeconds()-t0)
		ps = p
	}
	r.set("setup_s", median(setups), "s")

	wall, cpu, err := runFigures(r, cfg.seed)
	if err != nil {
		return err
	}
	r.set("batch_cpu_s", cpu.Seconds(), "s")

	runs, err := ps.runReplications(cfg.seed, time.Duration(cfg.seconds*float64(time.Second)), nil)
	r.attempted += int64(len(runs))
	if err != nil {
		r.failed++
		r.attempted++
		r.notef("%v", err)
	}
	ps.checkStationary(r, runs)
	// The kinds differ several-fold in length, so a quantile over the mix
	// would flip between kinds. The figures are per round instead: one
	// replication of each kind, summing each kind's quantile.
	byKind := make([][]float64, len(ps.cases))
	var flows int
	var busy time.Duration
	for _, run := range runs {
		byKind[run.c] = append(byKind[run.c], float64(run.cpu.Microseconds()))
		flows += run.flows
		busy += run.wall
	}
	var p50, p90 float64
	for _, lat := range byKind {
		sort.Float64s(lat)
		p50 += quantile(lat, 0.5)
		p90 += quantile(lat, 0.9)
	}
	r.set("lat_p50_us", p50, "us")
	r.set("lat_p90_us", p90, "us")
	r.notef("%d sim replications, %.0f simulated flows per wall second; figures -quick in %.2f s wall, %.2f s CPU",
		len(runs), float64(flows)/busy.Seconds(), wall.Seconds(), cpu.Seconds())
	return nil
}
