package main

// The three serving workloads: one resv.Server behind TCP mux or UDP
// clients, and a 4-node cluster behind TCP mux clients. Each runs open loop
// under the pacer in driver.go, then closed loop over a fixed batch.

import (
	"context"
	_ "embed"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"beqos/internal/cluster"
	"beqos/internal/obs"
	"beqos/internal/resv"
	"beqos/internal/utility"
	"beqos/internal/workload"
)

//go:embed specs/cluster-paths.topo
var clusterTopo string

//go:embed specs/cluster-one-node.topo
var oneNodeTopo string

// servingSpec fixes one serving workload's shape. The rates and limits are
// recorded in BENCHMARK.json.
type servingSpec struct {
	name       string
	population int     // standing flows at the admission bound
	overload   float64 // offered mean ÷ admission bound
	fixedRate  float64 // flows/s of the open loop
	build      func(ctx context.Context, sp servingSpec) (*system, error)
}

// system is one assembled system under test.
type system struct {
	tgt    target
	scn    *workload.Scenario
	sample func() error // one invariant sample, taken while ops run
	check  func(r *report, d *driver)
	close  func()
	// registries the traced run reads counters from.
	server  *resv.Server
	cluster *cluster.Cluster
	cm      *resv.ClientMetrics
}

const (
	setupReps  = 3
	warmup     = 300 * time.Millisecond
	window     = 1000  // samples per latency window
	latLimitUS = 10000 // windowed p99 limit of a ladder rung
	rungRatio  = 1.06  // ladder rung spacing, finer than the bound
	rampFrom   = 2.0   // the ramp starts at this multiple of the open-loop rate
	rungHold   = 150 * time.Millisecond
	backlogOK  = 256 // in-flight ops a passing rung may leave behind
	failRun    = 3   // consecutive failing rungs that end the ladder
	closedOps  = 40_000
	openShare  = 0.6 // of --seconds spent in the open loop
)

var (
	edgeChurn = servingSpec{name: "edge-churn", population: 100_000, overload: 1.025,
		fixedRate: 7_000, build: buildEdge(false)}
	edgeUDP = servingSpec{name: "edge-udp", population: 20_000, overload: 1.025,
		fixedRate: 4_000, build: buildEdge(true)}
	clusterPaths = servingSpec{name: "cluster-paths", population: 4_000, overload: 1.02,
		fixedRate: 3_500, build: buildCluster}
)

func runEdgeChurn(cfg runConfig, r *report) error    { return runServing(cfg, r, edgeChurn) }
func runEdgeUDP(cfg runConfig, r *report) error      { return runServing(cfg, r, edgeUDP) }
func runClusterPaths(cfg runConfig, r *report) error { return runServing(cfg, r, clusterPaths) }

// churnSpec renders the workload spec: Poisson arrivals at one flow per
// virtual time unit, exponential holds of mean k̄, prefilled at the bound.
// The driver's clock speed sets the wall rate; holds scale with it.
func churnSpec(sp servingSpec, bound int) string {
	return fmt.Sprintf("scenario %s\nprefill %d\nphase steady 1e7\narrivals poisson rate=1\nholding exp mean=%g\n",
		sp.name, bound, sp.overload*float64(bound))
}

// scenario returns the workload's scenario.
func (sp servingSpec) scenario() (*workload.Scenario, error) {
	return workload.Parse(churnSpec(sp, sp.population))
}

// ttlFor keeps every refresh well inside the TTL at the slowest rate the
// run drives (the latency phase), so an expiry means a lost refresh.
func ttlFor(sp servingSpec, scn *workload.Scenario) time.Duration {
	period := scn.Phases[0].Holding.MeanHold() / sp.fixedRate
	return max(time.Duration(3*period*float64(time.Second)), 2*time.Second)
}

func buildEdge(udp bool) func(ctx context.Context, sp servingSpec) (*system, error) {
	return func(ctx context.Context, sp servingSpec) (*system, error) {
		scn, err := sp.scenario()
		if err != nil {
			return nil, err
		}
		ttl := ttlFor(sp, scn)
		// kmax(C) = C for the adaptive utility, so C sets the bound.
		srv, err := resv.NewServerTTL(float64(sp.population), utility.NewAdaptive(), ttl)
		if err != nil {
			return nil, err
		}
		if srv.KMax() != sp.population {
			return nil, fmt.Errorf("kmax %d, want %d", srv.KMax(), sp.population)
		}
		var (
			wg      sync.WaitGroup
			closeLn func()
			clients []client
			addr    string
		)
		cm := resv.NewClientMetrics(obs.New())
		if udp {
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				srv.Close()
				return nil, err
			}
			wg.Add(1)
			go func() { defer wg.Done(); _ = srv.ServePacket(pc) }()
			closeLn, addr = func() { pc.Close() }, pc.LocalAddr().String()
		} else {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				srv.Close()
				return nil, err
			}
			wg.Add(1)
			go func() { defer wg.Done(); _ = srv.Serve(ln) }()
			closeLn, addr = func() { ln.Close() }, ln.Addr().String()
		}
		shutdown := func() {
			for _, c := range clients {
				c.Close()
			}
			closeLn()
			wg.Wait()
			srv.Close()
		}
		for i := 0; i < 2; i++ {
			if udp {
				c, err := resv.DialUDP(ctx, addr, resv.UDPConfig{})
				if err != nil {
					shutdown()
					return nil, err
				}
				c.SetMetrics(cm)
				clients = append(clients, c)
			} else {
				c, err := resv.DialMux(ctx, "tcp", addr)
				if err != nil {
					shutdown()
					return nil, err
				}
				c.SetMetrics(cm)
				clients = append(clients, c)
			}
		}
		kmax := int64(srv.KMax())
		sys := &system{
			tgt: target{
				clients: clients,
				conn:    func(seq uint32) int { return int(seq & 1) },
				flowID:  func(seq uint32) uint64 { return uint64(seq) + 1 },
				batch:   false,
				stream:  !udp,
				ttl:     ttl,
			},
			scn: scn, server: srv, cm: cm,
			close: shutdown,
		}
		sys.sample = func() error {
			_, active, err := clients[0].Stats(ctx)
			if err != nil {
				return err
			}
			if int64(active) > kmax {
				return fmt.Errorf("stats shows %d active > kmax %d", active, kmax)
			}
			return nil
		}
		sys.check = func(r *report, d *driver) {
			m := srv.Metrics()
			r.check(int64(m.Grants.Load()) == d.c.grants.Load(), "server grants %d != client-observed %d", m.Grants.Load(), d.c.grants.Load())
			r.check(int64(m.Teardowns.Load()) == d.c.teardowns.Load(), "server teardowns %d != client-observed %d", m.Teardowns.Load(), d.c.teardowns.Load())
			r.check(srv.Active() == 0, "Active() = %d after the final teardown", srv.Active())
			if d.c.refreshLate.Load() == 0 {
				r.check(m.Expiries.Load() == 0, "%d expiries although every refresh was on time", m.Expiries.Load())
			}
		}
		return sys, nil
	}
}

func buildCluster(ctx context.Context, sp servingSpec) (*system, error) {
	topo, err := cluster.ParseTopology(clusterTopo)
	if err != nil {
		return nil, err
	}
	scn, err := sp.scenario()
	if err != nil {
		return nil, err
	}
	ttl := ttlFor(sp, scn)
	c, err := cluster.New(cluster.Config{Topology: topo, Util: utility.NewAdaptive(), TTL: ttl})
	if err != nil {
		return nil, err
	}
	bounds := c.Bounds()
	var total int
	for _, b := range bounds {
		total += b
	}
	// Every path crosses two links, so the network holds Σ bounds / 2 paths.
	if total/2 != sp.population {
		c.Close()
		return nil, fmt.Errorf("topology holds %d paths, want %d", total/2, sp.population)
	}
	c.Start()
	var wg sync.WaitGroup
	var lns []net.Listener
	var clients []client
	shutdown := func() {
		for _, cl := range clients {
			cl.Close()
		}
		for _, ln := range lns {
			ln.Close()
		}
		wg.Wait()
		c.Close()
	}
	cm := resv.NewClientMetrics(obs.New())
	// Clients enter at n0 (pairs p0, p1) and n2 (pairs p2, p3).
	for _, entry := range []int{0, 2} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdown()
			return nil, err
		}
		lns = append(lns, ln)
		node := c.Node(entry)
		wg.Add(1)
		go func() { defer wg.Done(); _ = node.ServeClients(ln) }()
		mc, err := resv.DialMux(ctx, "tcp", ln.Addr().String())
		if err != nil {
			shutdown()
			return nil, err
		}
		mc.SetMetrics(cm)
		clients = append(clients, mc)
	}
	linkActive := func(i int) int64 { return c.Node(topo.Links[i].Owner).LinkActive(i) }
	sum := func(name string) uint64 {
		var n uint64
		for i := 0; i < c.Len(); i++ {
			m, _ := c.Node(i).Registry().Get(name)
			n += uint64(m.Value)
		}
		return n
	}
	sys := &system{
		tgt: target{
			clients: clients,
			conn:    func(seq uint32) int { return int(seq%4) / 2 },
			flowID:  func(seq uint32) uint64 { return cluster.FlowID(int(seq%4), uint64(seq)+1) },
			batch:   true,
			stream:  true,
			ttl:     ttl,
		},
		scn: scn, cluster: c, cm: cm,
		close: shutdown,
	}
	sys.sample = func() error {
		for i, b := range bounds {
			if a := linkActive(i); a > int64(b) {
				return fmt.Errorf("link %s holds %d claims > bound %d", topo.Links[i].ID, a, b)
			}
		}
		return nil
	}
	sys.check = func(r *report, d *driver) {
		r.check(int64(sum("cluster_path_grants_total")) == d.c.grants.Load(), "cluster path grants %d != client-observed %d", sum("cluster_path_grants_total"), d.c.grants.Load())
		r.check(int64(sum("cluster_path_teardowns_total")) == d.c.teardowns.Load(), "cluster path teardowns %d != client-observed %d", sum("cluster_path_teardowns_total"), d.c.teardowns.Load())
		// Claims release asynchronously along the path; allow a moment
		// of quiescence before requiring every link empty.
		deadline := time.Now().Add(2 * time.Second)
		var busy []string
		for {
			busy = busy[:0]
			for i := range bounds {
				if a := linkActive(i); a != 0 {
					busy = append(busy, fmt.Sprintf("%s=%d", topo.Links[i].ID, a))
				}
			}
			if len(busy) == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		r.check(len(busy) == 0, "links still hold claims after quiescence: %v", busy)
		if d.c.refreshLate.Load() == 0 {
			r.check(sum("cluster_expiries_total") == 0, "%d cluster expiries although every refresh was on time", sum("cluster_expiries_total"))
		}
	}
	return sys, nil
}

// sampler takes invariant samples every 20 ms until stopped.
type sampler struct {
	stop  chan struct{}
	done  chan struct{}
	n     int
	fails []error
}

func startSampler(f func() error) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.n++
				if err := f(); err != nil {
					s.fails = append(s.fails, err)
				}
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// setUp builds the system, prefills it and warms it up; it returns the
// CPU seconds that took.
func setUp(ctx context.Context, sp servingSpec, seed uint64) (*system, *driver, float64, error) {
	t0 := cpuSeconds()
	sys, err := sp.build(ctx, sp)
	if err != nil {
		return nil, nil, 0, err
	}
	d := newDriver(ctx, sys.tgt, newGen(sys.scn, seed))
	if err := d.prefill(); err != nil {
		d.close()
		sys.close()
		return nil, nil, 0, err
	}
	d.runFor(sp.fixedRate, warmup)
	return sys, d, cpuSeconds() - t0, nil
}

// setUpMedian sets the system up setupReps times and keeps the last one;
// set-up time is the median. Set-up time is process CPU time, not wall
// time: on a shared host the wall time of the same set-up moved by half
// with the CPU time stolen by other guests, the CPU time by a few percent.
func setUpMedian(ctx context.Context, sp servingSpec, seed uint64) (*system, *driver, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		sys, d, secs, err := setUp(ctx, sp, seed)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, secs)
		if i == setupReps-1 {
			return sys, d, median(times), nil
		}
		d.close()
		sys.close()
		runtime.GC() // the discarded system's tables must not inflate the next set-up's peak RSS
	}
}

func latenciesUS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.lat) / 1e3
	}
	return out
}

// rampMax climbs the rate ladder (rampFrom·fixedRate·rungRatio^k) without
// draining between rungs, holding each rung for at least one p99 window,
// until the backlog passes maxBacklog or the budget ends. A rung passes when
// its windowed p99 meets the latency limit and the backlog it leaves is
// small. The result is the highest passing rung below the first run of
// failRun failing rungs: past the capacity every rung fails, while below it
// a burst of host noise fails one rung at a time.
func rampMax(sp servingSpec, d *driver, budget time.Duration, r *report) float64 {
	deadline := nanotime() + int64(budget)
	var steps []step
	for k := 0; nanotime() < deadline; k++ {
		rate := rampFrom * sp.fixedRate * math.Pow(rungRatio, float64(k))
		hold := max(rungHold, time.Duration(1.25*window/rate*float64(time.Second)))
		st := d.dispatch(rate, hold)
		steps = append(steps, st)
		if st.aborted {
			break
		}
	}
	d.drain()
	best, fails := sp.fixedRate, 0
	for _, st := range steps {
		lat := latenciesUS(d.samplesIn(st.start, st.end))
		p99, windows := windowed(lat, window, 0.99)
		pass := windows > 0 && p99 <= latLimitUS && st.inflightEnd <= backlogOK
		r.notef("ladder %8.0f flows/s: p99 %8.1f us over %d windows, backlog %d, pass=%v", st.rate, p99, windows, st.inflightEnd, pass)
		if pass {
			best, fails = st.rate, 0
		} else if fails++; fails == failRun {
			break
		}
	}
	return best
}

func runServing(cfg runConfig, r *report, sp servingSpec) error {
	if cfg.trace {
		return traceServing(cfg, r, sp)
	}
	ctx := context.Background()
	lockPacer()
	sys, d, setupS, err := setUpMedian(ctx, sp, cfg.seed)
	if err != nil {
		return err
	}
	defer sys.close()
	defer d.close()
	r.set("setup_s", setupS, "s")

	// Open loop at the fixed rate: the invariants and the driver's health
	// are checked under load.
	smp := startSampler(sys.sample)
	d.late = d.late[:0]
	open := d.runFor(sp.fixedRate, time.Duration(cfg.seconds*openShare*float64(time.Second)))
	smp.finish()
	r.check(len(smp.fails) == 0, "invariant samples failed: %v", errors.Join(smp.fails...))
	openP50, windows := windowed(latenciesUS(d.samplesIn(open.start, open.end)), window, 0.5)
	lateP50, lateP99 := lateQuantileUS(d.late, 0.5), lateQuantileUS(d.late, 0.99)
	r.notef("open loop at %.0f flows/s: p50 %.1f us over %d windows; driver lateness p50 %.1f us, p99 %.1f us; %d invariant samples",
		sp.fixedRate, openP50, windows, lateP50, lateP99, smp.n)
	r.check(windows >= 5, "open loop produced %d latency windows, want ≥ 5", windows)
	r.check(lateP50 <= openP50/4, "driver fell behind: lateness p50 %.1f us > a quarter of the open-loop p50 %.1f us", lateP50, openP50)

	// Closed loop over a fixed batch of the sequence: the gated figures. A
	// collection first, so whether a cycle lands inside the batch does not
	// depend on what the set-up and the open loop left behind.
	runtime.GC()
	cpu0 := cpuSeconds()
	wall, lat := d.closedLoop(closedOps)
	r.set("batch_cpu_s", cpuSeconds()-cpu0, "s")
	sort.Float64s(lat)
	r.set("lat_p50_us", quantile(lat, 0.5), "us")
	r.set("lat_p90_us", quantile(lat, 0.9), "us")
	r.notef("closed loop: %d ops in %.3f s wall, %d reserves", closedOps, wall.Seconds(), len(lat))

	d.releaseAll()
	sys.check(r, d)
	r.attempted += d.c.attempted.Load()
	r.failed += d.c.failed.Load()
	if d.c.failed.Load() > 0 {
		r.notef("%d ops failed; last error: %s", d.c.failed.Load(), d.lastErr())
	}
	reserves := d.c.grants.Load() + d.c.denies.Load()
	r.notef("ops %d, reserves %d, deny share %.4f, refreshes %d (late %d), teardowns %d, skipped %d",
		d.c.attempted.Load(), reserves, float64(d.c.denies.Load())/math.Max(float64(reserves), 1),
		d.c.refreshes.Load(), d.c.refreshLate.Load(), d.c.teardowns.Load(), d.c.skipped.Load())
	return nil
}

func lateQuantileUS(late []int64, q float64) float64 {
	xs := make([]float64, len(late))
	for i, l := range late {
		xs[i] = float64(l) / 1e3
	}
	sort.Float64s(xs)
	return quantile(xs, q)
}
