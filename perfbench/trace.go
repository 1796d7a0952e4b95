package main

// The traced run. It replays the workload's recorded op sequence closed
// loop, one op at a time, through a ladder of rungs, each adding one layer
// on top of the rung below:
//
//	single link:  policy → resv.Server over net.Pipe → TCP mux
//	cluster:      Local on a 1-node topology → Local on the 4-node cluster
//	              → TCP mux into the 4-node cluster
//
// Every call into a layer is a span (name, start, end, parent, op). A span's
// child is the same op one rung down, so its self time is its duration minus
// the child's: the cost the rung's layer adds. The per-rung self times must
// add up to the top rung's median (the ladder sum check). The run also times
// the codec, the policy batch path, the datagram transport, Stream.Next,
// the simulator and the analytical core, reads the program's counters, and
// compares a traced against an untraced open-loop phase for the tracing
// overhead. Spans are kept in memory and written to .bench_build when the
// run ends.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"beqos/internal/cluster"
	"beqos/internal/core"
	"beqos/internal/dist"
	"beqos/internal/obs"
	"beqos/internal/policy"
	"beqos/internal/resv"
	"beqos/internal/utility"
	"beqos/internal/workload"
)

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1 at the top
	Op     int    `json:"op"`
}

type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	s.ID = len(l.spans)
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// replayOp is one op of the recorded sequence.
type replayOp struct {
	kind opKind
	seq  uint32
}

// recordOps draws the prefill and the first n timed ops of a workload's
// sequence, exactly as the open-loop driver would issue them.
func recordOps(scn *workload.Scenario, seed uint64, n int) (prefill []uint32, ops []replayOp, nextNS float64) {
	g := newGen(scn, seed)
	t0 := nanotime()
	for g.hasNext && g.next.At == 0 {
		prefill = append(prefill, g.pop().seq)
	}
	for len(ops) < n && g.peek() < inf {
		e := g.pop()
		ops = append(ops, replayOp{kind: e.kind, seq: e.seq})
	}
	return prefill, ops, float64(nanotime()-t0) / float64(len(prefill)+len(ops))
}

// rung is one layer stack the sequence replays through.
type rung struct {
	name    string
	prefill func(seqs []uint32) ([]bool, error) // untimed; reports each grant
	do      func(kind opKind, seq uint32) (granted bool, err error)
	close   func()
}

// replayed is one rung's pass over the sequence.
type replayed struct {
	starts, durs []int64 // per op; dur -1 for an op skipped because its flow is not held
	grants       int
}

// replay runs ops through rg one at a time.
func replay(rg rung, prefill []uint32, ops []replayOp) (replayed, error) {
	var out replayed
	granted, err := rg.prefill(prefill)
	if err != nil {
		return out, fmt.Errorf("%s prefill: %w", rg.name, err)
	}
	held := map[uint32]bool{}
	for i, s := range prefill {
		if granted[i] {
			held[s] = true
		}
	}
	out.starts = make([]int64, len(ops))
	out.durs = make([]int64, len(ops))
	for j, op := range ops {
		if op.kind != opReserve && !held[op.seq] {
			out.durs[j] = -1
			continue
		}
		t0 := nanotime()
		ok, err := rg.do(op.kind, op.seq)
		out.starts[j], out.durs[j] = t0, nanotime()-t0
		if err != nil {
			return out, fmt.Errorf("%s op %d: %w", rg.name, j, err)
		}
		switch op.kind {
		case opReserve:
			held[op.seq] = ok
			if ok {
				out.grants++
			}
		case opTeardown:
			delete(held, op.seq)
		}
	}
	return out, nil
}

// ladderResult holds one ladder's passes by rung.
type ladderResult struct {
	names []string
	runs  []replayed
}

// selfTimes returns, per rung, the reserve ops' self times (duration minus
// the same op's duration one rung down) in ns, over ops every rung ran.
func (lr ladderResult) selfTimes(ops []replayOp) [][]float64 {
	self := make([][]float64, len(lr.names))
	for j, op := range ops {
		if op.kind != opReserve {
			continue
		}
		ok := true
		for i := range lr.names {
			ok = ok && lr.runs[i].durs[j] >= 0
		}
		if !ok {
			continue
		}
		for i := range lr.names {
			d := float64(lr.runs[i].durs[j])
			if i > 0 {
				d -= float64(lr.runs[i-1].durs[j])
			}
			self[i] = append(self[i], d)
		}
	}
	return self
}

// sumCheck compares Σ median self time with the top rung's median reserve
// duration; they must agree within the top rung's interquartile spread.
func sumCheck(self [][]float64) (sum, top, spread float64) {
	var topDurs []float64
	for j := range self[0] {
		var d float64
		for i := range self {
			d += self[i][j]
		}
		topDurs = append(topDurs, d)
	}
	sort.Float64s(topDurs)
	for i := range self {
		sum += median(self[i])
	}
	top = quantile(topDurs, 0.5)
	spread = quantile(topDurs, 0.75) - quantile(topDurs, 0.25)
	return sum, top, spread
}

// runLadder replays ops through every rung and logs one span per op per
// rung, parented to the same op's span one rung up.
func runLadder(rungs []rung, prefill []uint32, ops []replayOp, log *spanLog) (ladderResult, error) {
	lr := ladderResult{}
	for _, rg := range rungs {
		run, err := replay(rg, prefill, ops)
		rg.close()
		if err != nil {
			return lr, err
		}
		lr.names = append(lr.names, rg.name)
		lr.runs = append(lr.runs, run)
	}
	n := len(ops)
	base := len(log.spans)
	for i, name := range lr.names {
		for j := range ops {
			parent := -1
			if i+1 < len(lr.names) {
				parent = base + (i+1)*n + j
			}
			run := lr.runs[i]
			log.add(span{Name: name, Start: run.starts[j], End: run.starts[j] + max(run.durs[j], 0), Parent: parent, Op: j})
		}
	}
	return lr, nil
}

// medianOf returns the median duration in ns of ops of the given kind.
func medianOf(durs []int64, ops []replayOp, kind opKind) float64 {
	var xs []float64
	for j, op := range ops {
		if op.kind == kind && durs[j] >= 0 {
			xs = append(xs, float64(durs[j]))
		}
	}
	return median(xs)
}

// ---- single-link rungs ----

func policyRung(pop int, flowID func(uint32) uint64) rung {
	p, _ := policy.NewCounting(float64(pop), pop)
	return rung{
		name: "policy",
		prefill: func(seqs []uint32) ([]bool, error) {
			granted := make([]bool, len(seqs))
			for i, s := range seqs {
				granted[i] = p.Admit(0, flowID(s), 1, 0).Admit
			}
			return granted, nil
		},
		do: func(kind opKind, seq uint32) (bool, error) {
			switch kind {
			case opReserve:
				return p.Admit(0, flowID(seq), 1, 0).Admit, nil
			case opTeardown:
				p.Release(0, 1)
			}
			return true, nil // a policy has no refresh: soft state is the server's
		},
		close: func() {},
	}
}

// systemRung replays through a system's clients, addressing each flow as
// the open-loop driver does. The prefill rides batch frames on stream
// transports and single frames on datagrams.
func systemRung(name string, sys *system) rung {
	ctx := context.Background()
	tgt := sys.tgt
	return rung{
		name: name,
		prefill: func(seqs []uint32) ([]bool, error) {
			granted := make([]bool, len(seqs))
			var idx [2][]int
			for i, s := range seqs {
				c := tgt.conn(s)
				idx[c] = append(idx[c], i)
			}
			frames := make([]resv.Frame, 0, resv.MaxBatch)
			for c, is := range idx {
				for len(is) > 0 {
					cl := tgt.clients[c]
					if !tgt.stream {
						ok, _, err := cl.Reserve(ctx, tgt.flowID(seqs[is[0]]), 1)
						if err != nil {
							return nil, err
						}
						granted[is[0]] = ok
						is = is[1:]
						continue
					}
					n := min(len(is), resv.MaxBatch)
					frames = frames[:0]
					for _, i := range is[:n] {
						frames = append(frames, resv.Frame{Type: resv.MsgRequest, FlowID: tgt.flowID(seqs[i]), Value: 1})
					}
					v, _, err := cl.ReserveBatch(ctx, frames)
					if err != nil {
						return nil, err
					}
					for k, i := range is[:n] {
						granted[i] = v.Granted(k)
					}
					is = is[n:]
				}
			}
			return granted, nil
		},
		do: func(kind opKind, seq uint32) (bool, error) {
			cl, id := tgt.clients[tgt.conn(seq)], tgt.flowID(seq)
			switch kind {
			case opReserve:
				ok, _, err := cl.Reserve(ctx, id, 1)
				return ok, err
			case opRefresh:
				_, err := cl.Refresh(ctx, id)
				return err == nil, err
			case opTeardown:
				err := cl.Teardown(ctx, id)
				return err == nil, err
			}
			return false, nil
		},
		close: sys.close,
	}
}

// pipeSystem serves one resv.Client over net.Pipe: the server's dispatch
// and soft state with no syscalls.
func pipeSystem(pop int) (*system, error) {
	srv, err := resv.NewServerTTL(float64(pop), utility.NewAdaptive(), time.Minute)
	if err != nil {
		return nil, err
	}
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() { srv.HandleConn(b); close(done) }()
	cl := resv.NewClient(a)
	return &system{
		tgt: target{
			clients: []client{cl},
			conn:    func(uint32) int { return 0 },
			flowID:  func(seq uint32) uint64 { return uint64(seq) + 1 },
			stream:  true,
		},
		server: srv,
		close:  func() { cl.Close(); <-done; srv.Close() },
	}, nil
}

// ---- cluster rungs ----

func startCluster(spec string) (*cluster.Cluster, error) {
	topo, err := cluster.ParseTopology(spec)
	if err != nil {
		return nil, err
	}
	c, err := cluster.New(cluster.Config{Topology: topo, Util: utility.NewAdaptive(), TTL: time.Minute})
	if err != nil {
		return nil, err
	}
	c.Start()
	return c, nil
}

func clusterPair(seq uint32) int { return int(seq % 4) }

// localRung drives Local handles: entry node per pair as cluster-paths uses.
func localRung(name string, c *cluster.Cluster, entries [2]int) rung {
	ls := [2]*cluster.Local{c.Node(entries[0]).NewLocal(), c.Node(entries[1]).NewLocal()}
	local := func(seq uint32) *cluster.Local { return ls[clusterPair(seq)/2] }
	return rung{
		name: name,
		prefill: func(seqs []uint32) ([]bool, error) {
			granted := make([]bool, len(seqs))
			for i, s := range seqs {
				ok, _, err := local(s).Reserve(clusterPair(s), uint64(s)+1, 1)
				if err != nil {
					return nil, err
				}
				granted[i] = ok
			}
			return granted, nil
		},
		do: func(kind opKind, seq uint32) (bool, error) {
			l, p := local(seq), clusterPair(seq)
			switch kind {
			case opReserve:
				ok, _, err := l.Reserve(p, uint64(seq)+1, 1)
				return ok, err
			case opRefresh:
				err := l.Refresh(p, uint64(seq)+1)
				return err == nil, err
			case opTeardown:
				err := l.Teardown(p, uint64(seq)+1)
				return err == nil, err
			}
			return false, nil
		},
		close: func() { ls[0].Close(); ls[1].Close() },
	}
}

// ownBase is the workload's own open-loop system with its histograms as
// they stood when the measured phase began, so the set-up's batched prefill
// does not count.
type ownBase struct {
	sys              *system
	rtt, req, frames obs.HistSnapshot
}

func baseOf(sys *system) *ownBase {
	b := &ownBase{sys: sys, rtt: sys.cm.RTT.Snapshot()}
	if sys.server != nil {
		b.req = *regHist(sys.server.Registry(), "resv_request_ns")
		b.frames = *regHist(sys.server.Registry(), "resv_batch_frames")
	}
	return b
}

// histDiff is the histogram of the observations recorded between b and a.
func histDiff(a, b obs.HistSnapshot) obs.HistSnapshot {
	for i := range a.Buckets {
		a.Buckets[i] -= b.Buckets[i]
	}
	a.Count -= b.Count
	a.Sum -= b.Sum
	return a
}

// histQuantile interpolates the q-quantile inside its power-of-two bucket.
func histQuantile(h *obs.HistSnapshot, q float64) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			lo, hi := 0.0, 1.0
			if i > 0 {
				lo, hi = math.Ldexp(1, i-1), math.Ldexp(1, i)
			}
			v := lo + (hi-lo)*(rank-cum)/float64(n)
			return math.Min(v, float64(h.Max))
		}
		cum += float64(n)
	}
	return float64(h.Max)
}

func regValue(reg *obs.Registry, name string) float64 {
	m, _ := reg.Get(name)
	return m.Value
}

func regHist(reg *obs.Registry, name string) *obs.HistSnapshot {
	m, _ := reg.Get(name)
	return m.Hist
}

func sumRegs(c *cluster.Cluster, name string) float64 {
	var s float64
	for i := 0; i < c.Len(); i++ {
		s += regValue(c.Node(i).Registry(), name)
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ladderOps is the length of the replayed op sequence.
const ladderOps = 4000

// traceLayers runs the rungs on the workload's op sequence and records the
// per-layer metrics shared by every workload. own, when non-nil, is the
// workload's own open-loop system, whose counters stand in for a rung's.
func traceLayers(r *report, log *spanLog, sp servingSpec, seed uint64, own *ownBase) error {
	ctx := context.Background()
	scn, err := sp.scenario()
	if err != nil {
		return err
	}
	prefill, ops, nextNS := recordOps(scn, seed, ladderOps)
	r.set("workload.next_ns", nextNS, "ns")
	pop := sp.population
	edgeID := func(seq uint32) uint64 { return uint64(seq) + 1 }

	// single-link ladder
	pipe, err := pipeSystem(pop)
	if err != nil {
		return err
	}
	mux, err := buildEdge(false)(ctx, sp)
	if err != nil {
		pipe.close()
		return err
	}
	edge, err := runLadder([]rung{policyRung(pop, edgeID), systemRung("resv.server", pipe), systemRung("resv.mux", mux)}, prefill, ops, log)
	if err != nil {
		return err
	}
	self := edge.selfTimes(ops)
	sum, top, spread := sumCheck(self)
	r.set("ladder.edge_top_p50_us", top/1e3, "us")
	r.set("ladder.edge_residual_pct", 100*(sum-top)/top, "%")
	r.check(math.Abs(sum-top) <= spread, "edge ladder: Σ self %.0f ns vs top p50 %.0f ns, spread %.0f ns", sum, top, spread)
	r.set("policy.admit_ns", medianOf(edge.runs[0].durs, ops, opReserve), "ns")
	r.set("policy.release_ns", medianOf(edge.runs[0].durs, ops, opTeardown), "ns")
	r.set("resv.server.pipe_reserve_ns", medianOf(edge.runs[1].durs, ops, opReserve), "ns")
	r.set("resv.server.pipe_refresh_ns", medianOf(edge.runs[1].durs, ops, opRefresh), "ns")
	r.set("resv.server.pipe_teardown_ns", medianOf(edge.runs[1].durs, ops, opTeardown), "ns")
	var reserves float64
	for _, op := range ops {
		if op.kind == opReserve {
			reserves++
		}
	}
	r.set("policy.grant_ratio", ratio(float64(edge.runs[0].grants), reserves), "ratio")

	// Server and client histograms come from the workload's own system
	// when it has that layer, else from the rung fixture.
	reg := mux.server.Registry()
	req, frames := *regHist(reg, "resv_request_ns"), *regHist(reg, "resv_batch_frames")
	rtt := mux.cm.RTT.Snapshot()
	if own != nil && own.sys.server != nil {
		reg = own.sys.server.Registry()
		req = histDiff(*regHist(reg, "resv_request_ns"), own.req)
		frames = histDiff(*regHist(reg, "resv_batch_frames"), own.frames)
		if own.sys.tgt.stream {
			rtt = histDiff(own.sys.cm.RTT.Snapshot(), own.rtt)
		}
	}
	r.set("resv.server.service_p50_ns", histQuantile(&req, 0.5), "ns")
	r.set("resv.server.frames_per_read", frames.Mean(), "frames")
	r.set("resv.server.expiries", regValue(reg, "resv_expiries_total"), "count")
	r.set("resv.server.errors", regValue(reg, "resv_errors_total")+regValue(pipe.server.Registry(), "resv_errors_total"), "count")
	r.set("resv.mux.rtt_p50_us", histQuantile(&rtt, 0.5)/1e3, "us")
	r.set("resv.mux.rtt_p99_us", histQuantile(&rtt, 0.99)/1e3, "us")

	// datagram transport, closed loop over the same ops
	udp, err := buildEdge(true)(ctx, sp)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	// Datagram prefill goes one frame at a time; 20 000 flows keep it short.
	udpPrefill := prefill[:min(len(prefill), 20_000)]
	runtime.ReadMemStats(&ms0)
	udpRun, err := replay(systemRung("resv.udp", udp), udpPrefill, ops)
	runtime.ReadMemStats(&ms1)
	udp.close()
	if err != nil {
		return err
	}
	for j := range ops {
		log.add(span{Name: "resv.udp", Start: udpRun.starts[j], End: udpRun.starts[j] + max(udpRun.durs[j], 0), Parent: -1, Op: j})
	}
	udpOps := float64(len(udpPrefill) + len(ops))
	uSrv, uCM, urtt := udp.server, udp.cm, udp.cm.RTT.Snapshot()
	if own != nil && own.sys.server != nil && !own.sys.tgt.stream {
		uSrv, uCM = own.sys.server, own.sys.cm
		urtt = histDiff(uCM.RTT.Snapshot(), own.rtt)
	}
	r.set("resv.udp.rtt_p50_us", histQuantile(&urtt, 0.5)/1e3, "us")
	r.set("resv.udp.rtt_p99_us", histQuantile(&urtt, 0.99)/1e3, "us")
	r.set("resv.udp.retransmits", float64(uCM.Retransmits.Load()), "count")
	r.set("resv.udp.bad_datagrams", regValue(uSrv.Registry(), "resv_bad_datagrams_total"), "count")
	r.set("resv.udp.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/udpOps, "allocs/op")

	traceCodec(r, ops, edgeID)
	tracePolicyBatch(r, pop)

	// cluster ladder
	one, err := startCluster(oneNodeTopo)
	if err != nil {
		return err
	}
	four, err := startCluster(clusterTopo)
	if err != nil {
		one.Close()
		return err
	}
	tcp, err := buildCluster(ctx, clusterPaths)
	if err != nil {
		one.Close()
		four.Close()
		return err
	}
	cl, err := runLadder([]rung{
		localRung("cluster.local", one, [2]int{0, 0}),
		localRung("cluster.forward", four, [2]int{0, 2}),
		systemRung("cluster.client", tcp),
	}, prefill, ops, log)
	if err != nil {
		return err
	}
	cself := cl.selfTimes(ops)
	csum, ctop, cspread := sumCheck(cself)
	r.set("ladder.cluster_top_p50_us", ctop/1e3, "us")
	r.set("ladder.cluster_residual_pct", 100*(csum-ctop)/ctop, "%")
	r.check(math.Abs(csum-ctop) <= cspread, "cluster ladder: Σ self %.0f ns vs top p50 %.0f ns, spread %.0f ns", csum, ctop, cspread)
	r.set("cluster.local_reserve_ns", medianOf(cl.runs[0].durs, ops, opReserve), "ns")
	r.set("cluster.forward_reserve_us", medianOf(cl.runs[1].durs, ops, opReserve)/1e3, "us")
	r.set("cluster.batch_ns_per_op", clusterBatchNS(four), "ns")
	cc, crtt := tcp.cluster, tcp.cm.RTT.Snapshot()
	if own != nil && own.sys.cluster != nil {
		cc, crtt = own.sys.cluster, histDiff(own.sys.cm.RTT.Snapshot(), own.rtt)
	}
	r.set("cluster.client_rtt_p50_us", histQuantile(&crtt, 0.5)/1e3, "us")
	paths := sumRegs(cc, "cluster_path_requests_total")
	r.set("cluster.forwards_per_grant", ratio(sumRegs(cc, "cluster_forwards_total"), sumRegs(cc, "cluster_path_grants_total")), "ratio")
	r.set("cluster.rollback_ratio", ratio(sumRegs(cc, "cluster_rollbacks_total"), paths), "ratio")
	r.set("cluster.route_alt_ratio", ratio(sumRegs(cc, "cluster_route_alternate_total"), paths), "ratio")
	r.set("cluster.route_fallback", sumRegs(cc, "cluster_route_fallback_total"), "count")
	sup := sumRegs(cc, "cluster_gossip_suppressed_total")
	r.set("cluster.gossip_suppressed_ratio", ratio(sup, sup+sumRegs(cc, "cluster_gossip_out_total")), "ratio")
	r.set("cluster.forward_errors", sumRegs(cc, "cluster_forward_errors_total"), "count")
	r.set("cluster.expiries", sumRegs(cc, "cluster_expiries_total"), "count")
	one.Close()
	four.Close()
	return nil
}

// traceCodec block-times the frame codec over the sequence's frames: a
// span per block of calls, since one call is shorter than a clock read.
func traceCodec(r *report, ops []replayOp, flowID func(uint32) uint64) {
	frames := make([]resv.Frame, len(ops))
	for j, op := range ops {
		t := resv.MsgRequest
		switch op.kind {
		case opRefresh:
			t = resv.MsgRefresh
		case opTeardown:
			t = resv.MsgTeardown
		}
		frames[j] = resv.Frame{Type: t, FlowID: flowID(op.seq), Value: 1}
	}
	buf := make([]byte, 0, len(frames)*resv.FrameSize)
	var enc, dec, batch []float64
	for rep := 0; rep < 9; rep++ {
		t0 := nanotime()
		buf = buf[:0]
		for _, f := range frames {
			buf = resv.AppendFrame(buf, f)
		}
		enc = append(enc, float64(nanotime()-t0)/float64(len(frames)))
		t0 = nanotime()
		for i := 0; i+resv.FrameSize <= len(buf); i += resv.FrameSize {
			if _, err := resv.DecodeFrame(buf[i : i+resv.FrameSize]); err != nil {
				r.check(false, "codec: %v", err)
				return
			}
		}
		dec = append(dec, float64(nanotime()-t0)/float64(len(frames)))
		out := make([]resv.Frame, 0, resv.MaxBatch)
		t0 = nanotime()
		for i := 0; i < len(buf); i += resv.MaxBatch * resv.FrameSize {
			out, _, _ = resv.DecodeFrames(out[:0], buf[i:min(len(buf), i+resv.MaxBatch*resv.FrameSize)])
		}
		batch = append(batch, float64(nanotime()-t0)/float64(len(frames)))
	}
	r.set("resv.codec.encode_ns", median(enc), "ns")
	r.set("resv.codec.decode_ns", median(dec), "ns")
	r.set("resv.codec.batch_decode_ns_per_op", median(batch), "ns")
}

// tracePolicyBatch times AdmitBatch + ReleaseBatch of MaxBatch claims.
func tracePolicyBatch(r *report, pop int) {
	p, _ := policy.NewCounting(float64(pop), pop)
	var xs []float64
	for rep := 0; rep < 9; rep++ {
		t0 := nanotime()
		for i := 0; i < 1000; i++ {
			g, _ := policy.AdmitBatch(p, 0, uint64(i), 1, 0, resv.MaxBatch)
			policy.ReleaseBatch(p, 0, 1, g)
		}
		xs = append(xs, float64(nanotime()-t0)/float64(1000*resv.MaxBatch))
	}
	r.set("policy.admit_batch_ns_per_op", median(xs), "ns")
}

// clusterBatchNS times Local.ReserveBatch + TeardownBatch of MaxBatch flows
// on the 4-node cluster, per op.
func clusterBatchNS(c *cluster.Cluster) float64 {
	l := c.Node(0).NewLocal()
	defer l.Close()
	seqs := make([]uint64, resv.MaxBatch)
	var xs []float64
	for rep := 0; rep < 9; rep++ {
		for i := range seqs {
			seqs[i] = uint64(1<<40 + rep*resv.MaxBatch + i)
		}
		t0 := nanotime()
		v, _, err := l.ReserveBatch(0, seqs, 1)
		if err != nil {
			return 0
		}
		var granted []uint64
		for i, s := range seqs {
			if v.Granted(i) {
				granted = append(granted, s)
			}
		}
		if len(granted) > 0 {
			if _, err := l.TeardownBatch(0, granted); err != nil {
				return 0
			}
		}
		xs = append(xs, float64(nanotime()-t0)/float64(len(seqs)+len(granted)))
	}
	return median(xs)
}

// traceCore times the analytical core the figures use: Gaps over the fig
// 2–4 grids, the e3 retry configurations and the e1 sampling ones, and
// tracks the heap's peak while they run.
func traceCore(r *report, log *spanLog) error {
	var peak uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapInuse)
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	var once sync.Once
	finish := func() { once.Do(func() { close(stop); <-done }) }
	defer finish()
	loads := map[string]func() (dist.Discrete, error){
		"poisson":     func() (dist.Discrete, error) { return dist.NewPoisson(100) },
		"exponential": func() (dist.Discrete, error) { return dist.NewExponentialMean(100) },
		"algebraic":   func() (dist.Discrete, error) { return dist.NewAlgebraicMean(3, 100) },
	}
	model := func(load, util string) (*core.Model, error) {
		l, err := loads[load]()
		if err != nil {
			return nil, err
		}
		var u utility.Function = utility.NewAdaptive()
		if util == "rigid" {
			if u, err = utility.NewRigid(1); err != nil {
				return nil, err
			}
		}
		return core.New(l, u)
	}
	timed := func(name string, f func() error) (float64, error) {
		t0 := nanotime()
		err := f()
		t1 := nanotime()
		log.add(span{Name: name, Start: t0, End: t1, Parent: -1, Op: -1})
		return float64(t1 - t0), err
	}
	var gaps, retry, sampling []float64
	for _, ln := range []string{"poisson", "exponential", "algebraic"} {
		for _, un := range []string{"rigid", "adaptive"} {
			m, err := model(ln, un)
			if err != nil {
				return err
			}
			ns, err := timed("core.gaps", func() error {
				for c := 10.0; c <= 300; c += 10 {
					if _, _, _, _, err := m.Gaps(c); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			gaps = append(gaps, ns/30)
			ns, err = timed("core.retry", func() error {
				rt, err := core.NewRetry(m, 0.1)
				if err != nil {
					return err
				}
				for _, c := range []float64{200, 400} {
					if _, err := rt.PerformanceGap(c); err != nil {
						return err
					}
					if _, err := rt.BandwidthGap(c); err != nil {
						return err
					}
					if _, err := rt.Equilibrium(c); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			retry = append(retry, ns/1e6)
			if ln == "poisson" {
				continue // e1 sweeps the exponential and algebraic loads
			}
			ns, err = timed("core.sampling", func() error {
				sp, err := core.NewSampling(m, 10)
				if err != nil {
					return err
				}
				for _, c := range []float64{100, 200} {
					sp.PerformanceGap(c)
					if _, err := sp.BandwidthGap(c); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			sampling = append(sampling, ns/1e6)
		}
	}
	r.set("core.gaps_ns", median(gaps), "ns")
	r.set("core.retry_ms", median(retry), "ms")
	r.set("core.sampling_ms", median(sampling), "ms")
	finish()
	r.set("core.heap_peak_mb", float64(peak)/(1<<20), "MB")
	return nil
}

// traceSim runs short replications of the legacy and the spec-driven path.
func traceSim(r *report, log *spanLog, seed uint64) error {
	ps, err := setUpPaper()
	if err != nil {
		return err
	}
	for _, c := range []struct {
		idx    int
		metric string
	}{{0, "sim.pump_flows_per_s"}, {1, "sim.spec_flows_per_s"}} {
		one := &paperSetup{cases: ps.cases[c.idx : c.idx+1]}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		runs, err := one.runReplications(seed, time.Second, func(name string, f func()) {
			t0 := nanotime()
			f()
			log.add(span{Name: "sim.run/" + name, Start: t0, End: nanotime(), Parent: -1, Op: -1})
		})
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return err
		}
		var flows int
		var wall time.Duration
		for _, run := range runs {
			flows += run.flows
			wall += run.wall
		}
		r.set(c.metric, float64(flows)/wall.Seconds(), "1/s")
		if c.idx == 0 {
			r.set("sim.allocs_per_flow", float64(ms1.Mallocs-ms0.Mallocs)/float64(max(flows, 1)), "allocs/flow")
		}
	}
	return nil
}

// openLoopPhase runs the latency phase untraced, then traced, and reports
// the driver's health and the tracing overhead.
func openLoopPhase(r *report, log *spanLog, sp servingSpec, seed uint64, dur time.Duration) (*ownBase, *driver, error) {
	ctx := context.Background()
	sys, d, _, err := setUp(ctx, sp, seed)
	if err != nil {
		return nil, nil, err
	}
	base := baseOf(sys)
	d.late = d.late[:0]
	d.inflightPeak = 0
	plain := d.runFor(sp.fixedRate, dur)
	lateP50, lateP99 := lateQuantileUS(d.late, 0.5), lateQuantileUS(d.late, 0.99)
	d.spans = log
	traced := d.runFor(sp.fixedRate, dur)
	d.spans = nil
	p50 := func(st step) float64 {
		lat := latenciesUS(d.samplesIn(st.start, st.end))
		sort.Float64s(lat)
		return quantile(lat, 0.5)
	}
	untracedP50, tracedP50 := p50(plain), p50(traced)
	plainLat := latenciesUS(d.samplesIn(plain.start, plain.end))
	wp50, _ := windowed(plainLat, window, 0.5)
	wp99, _ := windowed(plainLat, window, 0.99)
	r.set("openloop.lat_p50_us", wp50, "us")
	r.set("openloop.lat_p99_us", wp99, "us")
	r.set("openloop.max_flows_per_s", rampMax(sp, d, ladderBudget, r), "1/s")
	r.set("driver.late_p50_us", lateP50, "us")
	r.set("driver.late_p99_us", lateP99, "us")
	r.set("driver.inflight_peak", float64(d.inflightPeak), "ops")
	r.set("trace.overhead_pct", 100*(tracedP50-untracedP50)/untracedP50, "%")
	r.notef("open loop at %.0f/s: p50 %.1f us untraced, %.1f us traced; lateness p50 %.1f us p99 %.1f us",
		sp.fixedRate, untracedP50, tracedP50, lateP50, lateP99)
	return base, d, nil
}

func finishTrace(r *report, log *spanLog, name string, seed uint64) {
	gcStats(r, float64(len(log.spans)))
	path := filepath.Join(workDir, fmt.Sprintf("trace-%s-%d.jsonl", name, seed))
	if err := log.write(path); err != nil {
		r.check(false, "write spans: %v", err)
		return
	}
	r.notef("%d spans written to %s", len(log.spans), path)
}

func traceServing(cfg runConfig, r *report, sp servingSpec) error {
	lockPacer()
	log := &spanLog{}
	own, d, err := openLoopPhase(r, log, sp, cfg.seed, 1500*time.Millisecond)
	if err != nil {
		return err
	}
	d.releaseAll()
	d.close()
	r.attempted += d.c.attempted.Load()
	r.failed += d.c.failed.Load()
	err = traceLayers(r, log, sp, cfg.seed, own)
	own.sys.close()
	if err != nil {
		return err
	}
	if err := traceSim(r, log, cfg.seed); err != nil {
		return err
	}
	if err := traceCore(r, log); err != nil {
		return err
	}
	finishTrace(r, log, sp.name, cfg.seed)
	return nil
}

// paperLoop is a small edge-churn, so the paper-repro trace reports the
// open-loop and rung metrics every traced run reports.
var paperLoop = servingSpec{name: "paper-repro", population: 10_000, overload: 1.025, fixedRate: 4000,
	build: buildEdge(false)}

// ladderBudget bounds the traced run's rate ladder.
const ladderBudget = 4 * time.Second

func tracePaper(cfg runConfig, r *report) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	lockPacer()
	log := &spanLog{}
	own, d, err := openLoopPhase(r, log, paperLoop, cfg.seed, 1500*time.Millisecond)
	if err != nil {
		return err
	}
	d.releaseAll()
	d.close()
	r.attempted += d.c.attempted.Load()
	r.failed += d.c.failed.Load()
	err = traceLayers(r, log, paperLoop, cfg.seed, nil)
	own.sys.close()
	if err != nil {
		return err
	}
	if err := traceSim(r, log, cfg.seed); err != nil {
		return err
	}
	if err := traceCore(r, log); err != nil {
		return err
	}
	finishTrace(r, log, "paper-repro", cfg.seed)
	return nil
}
