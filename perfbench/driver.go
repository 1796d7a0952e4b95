package main

// The open-loop driver: a virtual-clock pacer that issues each generated op
// when it falls due, a fixed worker pool that carries the blocking client
// calls, and per-flow state so a flow's refresh and teardown never race its
// own reserve.

import (
	"context"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"beqos/internal/resv"
	"beqos/internal/workload"
)

type opKind uint8

const (
	opReserve opKind = iota
	opRefresh
	opTeardown
)

// event is one scheduled op in virtual time (1 unit = 1 mean inter-arrival).
type event struct {
	v    float64 // due, virtual time
	dep  float64 // the flow's departure, virtual time
	seq  uint32
	kind opKind
}

// eventHeap is a binary min-heap on due time, written out rather than
// through container/heap so a push does not box the event.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].v <= q[i].v {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && q[l].v < q[m].v {
			m = l
		}
		if l+1 < n && q[l+1].v < q[m].v {
			m = l + 1
		}
		if m == i {
			break
		}
		q[m], q[i] = q[i], q[m]
		i = m
	}
	*h = q
	return top
}

// gen turns a workload stream into the op sequence: each flow reserves at its
// arrival, refreshes once per period while held, and tears down at
// departure. Every draw comes from the seed, so a seed replays one sequence.
type gen struct {
	st      *workload.Stream
	period  float64 // refresh period, virtual time
	phase   *rand.Rand
	next    workload.Flow
	hasNext bool
	pending eventHeap
	flows   uint32
}

// newGen draws flows from scn; held flows refresh once per mean hold time.
func newGen(scn *workload.Scenario, seed uint64) *gen {
	g := &gen{
		st:     scn.Stream(seed, seed^0x9e3779b97f4a7c15),
		period: scn.Phases[0].Holding.MeanHold(),
		phase:  rand.New(rand.NewPCG(seed, 0xbe905)),
	}
	g.next, g.hasNext = g.st.Next()
	return g
}

// peek returns the virtual due time of the next op.
func (g *gen) peek() float64 {
	v := inf
	if g.hasNext {
		v = g.next.At
	}
	if len(g.pending) > 0 && g.pending[0].v < v {
		v = g.pending[0].v
	}
	return v
}

// pop returns the next op in due order.
func (g *gen) pop() event {
	if len(g.pending) > 0 && (!g.hasNext || g.pending[0].v <= g.next.At) {
		e := g.pending.pop()
		if e.kind == opRefresh {
			g.schedule(e.v+g.period, e.dep, e.seq)
		}
		return e
	}
	f := g.next
	g.next, g.hasNext = g.st.Next()
	seq := g.flows
	g.flows++
	dep := f.At + f.Hold
	g.schedule(f.At+g.period*(1-g.phase.Float64()), dep, seq)
	return event{v: f.At, dep: dep, seq: seq, kind: opReserve}
}

func (g *gen) schedule(refresh, dep float64, seq uint32) {
	if refresh < dep {
		g.pending.push(event{v: refresh, dep: dep, seq: seq, kind: opRefresh})
	} else {
		g.pending.push(event{v: dep, dep: dep, seq: seq, kind: opTeardown})
	}
}

const inf = 1e300

// Flow states. A teardown that falls due while the flow's reserve or refresh
// is in flight parks as stTeardownWanted; that op's completion sends it.
const (
	stNone int32 = iota
	stPending
	stHeld
	stRefreshing
	stDenied
	stTeardownWanted
	stDone
)

const chunkBits = 16

// flowStates is a grow-only array of per-flow states, readable by workers
// while the pacer grows it.
type flowStates struct {
	chunks [4096]atomic.Pointer[[1 << chunkBits]atomic.Int32]
	// touch is the wall time of each flow's last install or refresh,
	// kept to prove every refresh went out within the TTL.
	touch [4096]atomic.Pointer[[1 << chunkBits]atomic.Int64]
}

func (fs *flowStates) ensure(seq uint32) {
	c := seq >> chunkBits
	if fs.chunks[c].Load() == nil {
		fs.chunks[c].Store(new([1 << chunkBits]atomic.Int32))
		fs.touch[c].Store(new([1 << chunkBits]atomic.Int64))
	}
}

func (fs *flowStates) state(seq uint32) *atomic.Int32 {
	return &fs.chunks[seq>>chunkBits].Load()[seq&(1<<chunkBits-1)]
}

func (fs *flowStates) touched(seq uint32) *atomic.Int64 {
	return &fs.touch[seq>>chunkBits].Load()[seq&(1<<chunkBits-1)]
}

// target adapts one workload's system under test: how a flow sequence number
// maps to a connection and wire flow ID, and the client per connection.
type target struct {
	clients []client
	conn    func(seq uint32) int
	flowID  func(seq uint32) uint64
	batch   bool // ride reserves and teardowns due together in one batch frame
	stream  bool // a stream transport, which accepts batch frames
	ttl     time.Duration
}

// client is the op surface resv.MuxClient and resv.Client share.
type client interface {
	Reserve(ctx context.Context, flowID uint64, bandwidth float64) (bool, float64, error)
	Refresh(ctx context.Context, flowID uint64) (time.Duration, error)
	Teardown(ctx context.Context, flowID uint64) error
	ReserveBatch(ctx context.Context, ops []resv.Frame) (resv.BatchVerdict, float64, error)
	Stats(ctx context.Context) (kmax, active int, err error)
	Close() error
}

type job struct {
	kind opKind
	seq  uint32
	due  int64
}

// jobs is one unit of work for a worker: a single op, or a batch of
// reserves and teardowns that rides one MsgReserveBatch.
type jobs struct {
	conn  int
	one   job
	batch []job
}

// sample is one reserve's latency from its due time.
type sample struct {
	due, lat int64
}

type counts struct {
	attempted, failed         atomic.Int64
	grants, denies, teardowns atomic.Int64
	refreshes, refreshLate    atomic.Int64
	skipped                   atomic.Int64
	lastErr                   atomic.Value
}

type worker struct {
	samples []sample
}

// driver runs one target at a sequence of offered rates.
type driver struct {
	tgt   target
	g     *gen
	fs    flowStates
	queue chan jobs
	wg    sync.WaitGroup
	ws    []*worker
	c     counts
	ctx   context.Context

	inflight     atomic.Int64
	inflightPeak int64    // highest in-flight count the pacer saw
	late         []int64  // pacer lateness per dispatched op, ns
	spans        *spanLog // when set, workers log a span per client call

	// virtual clock: v = v0 + (now - w0)·rate/1e9
	v0   float64
	w0   int64
	rate float64
}

const numWorkers = 64

func newDriver(ctx context.Context, tgt target, g *gen) *driver {
	d := &driver{
		tgt: tgt, g: g, ctx: ctx,
		// The queue absorbs one pacer pass of ops between worker
		// wake-ups; a full queue stalls the pacer, which shows as lateness.
		queue: make(chan jobs, 4096),
	}
	for i := 0; i < numWorkers; i++ {
		w := &worker{samples: make([]sample, 0, 1<<16)}
		d.ws = append(d.ws, w)
		d.wg.Add(1)
		go d.work(w)
	}
	return d
}

func (d *driver) close() {
	close(d.queue)
	d.wg.Wait()
}

func (d *driver) fail(err error) {
	d.c.failed.Add(1)
	d.c.lastErr.Store(err.Error())
}

func (d *driver) work(w *worker) {
	defer d.wg.Done()
	frames := make([]resv.Frame, 0, resv.MaxBatch)
	for js := range d.queue {
		cl := d.tgt.clients[js.conn]
		t0 := nanotime()
		if js.batch == nil {
			d.single(w, cl, js.one)
			d.logSpan(spanNames[js.one.kind], t0, int(js.one.seq))
			d.inflight.Add(-1)
			continue
		}
		frames = d.batch(w, cl, js.batch, frames[:0])
		d.logSpan("client.batch", t0, int(js.batch[0].seq))
		d.inflight.Add(-int64(len(js.batch)))
	}
}

var spanNames = [...]string{opReserve: "client.reserve", opRefresh: "client.refresh", opTeardown: "client.teardown"}

// logSpan records one client call when tracing is on. The pacer sets
// d.spans only between steps, ordered before the ops it dispatches.
func (d *driver) logSpan(name string, start int64, op int) {
	if d.spans != nil {
		d.spans.add(span{Name: name, Start: start, End: nanotime(), Parent: -1, Op: op})
	}
}

func (d *driver) single(w *worker, cl client, j job) {
	st := d.fs.state(j.seq)
	id := d.tgt.flowID(j.seq)
	switch j.kind {
	case opReserve:
		d.c.attempted.Add(1)
		ok, _, err := cl.Reserve(d.ctx, id, 1)
		now := nanotime()
		if err != nil {
			d.fail(err)
			st.Store(stDone)
			return
		}
		w.samples = append(w.samples, sample{due: j.due, lat: now - j.due})
		d.settle(cl, j.seq, ok, now)
	case opRefresh:
		if !st.CompareAndSwap(stHeld, stRefreshing) {
			d.c.skipped.Add(1)
			return
		}
		d.c.attempted.Add(1)
		now := nanotime()
		if prev := d.fs.touched(j.seq).Load(); d.tgt.ttl > 0 && now-prev >= int64(d.tgt.ttl) {
			d.c.refreshLate.Add(1)
		}
		if _, err := cl.Refresh(d.ctx, id); err != nil {
			d.fail(err)
			st.Store(stDone)
			return
		}
		d.fs.touched(j.seq).Store(now)
		d.c.refreshes.Add(1)
		d.release(cl, j.seq, stRefreshing)
	case opTeardown:
		if claimTeardown(st) {
			d.teardown(cl, j.seq)
		} else {
			d.c.skipped.Add(1)
		}
	}
}

// claimTeardown reports whether the caller should send a due teardown now.
// A flow with its reserve or a refresh in flight parks the teardown for that
// op's completion to send, so one flow never has two ops in flight.
func claimTeardown(st *atomic.Int32) bool {
	for {
		switch s := st.Load(); s {
		case stHeld:
			if st.CompareAndSwap(s, stDone) {
				return true
			}
		case stPending, stRefreshing:
			if st.CompareAndSwap(s, stTeardownWanted) {
				return false
			}
		default: // denied or failed: nothing to release
			return false
		}
	}
}

// settle records a reserve's verdict.
func (d *driver) settle(cl client, seq uint32, granted bool, now int64) {
	st := d.fs.state(seq)
	if !granted {
		d.c.denies.Add(1)
		st.Store(stDenied)
		return
	}
	d.c.grants.Add(1)
	d.fs.touched(seq).Store(now)
	d.release(cl, seq, stPending)
}

// release ends an in-flight op on a held flow: back to stHeld, or, if a
// teardown parked meanwhile, send it now.
func (d *driver) release(cl client, seq uint32, from int32) {
	st := d.fs.state(seq)
	if !st.CompareAndSwap(from, stHeld) {
		st.Store(stDone)
		d.teardown(cl, seq)
	}
}

func (d *driver) teardown(cl client, seq uint32) {
	d.c.attempted.Add(1)
	if err := cl.Teardown(d.ctx, d.tgt.flowID(seq)); err != nil {
		d.fail(err)
		return
	}
	d.c.teardowns.Add(1)
}

// batch ships reserves and teardowns as one MsgReserveBatch. A teardown of a
// flow whose reserve is still in flight parks instead of riding the batch.
func (d *driver) batch(w *worker, cl client, ops []job, frames []resv.Frame) []resv.Frame {
	kept := ops[:0]
	for _, j := range ops {
		if j.kind == opTeardown {
			if !claimTeardown(d.fs.state(j.seq)) {
				d.c.skipped.Add(1)
				continue
			}
			frames = append(frames, resv.Frame{Type: resv.MsgTeardown, FlowID: d.tgt.flowID(j.seq)})
		} else {
			frames = append(frames, resv.Frame{Type: resv.MsgRequest, FlowID: d.tgt.flowID(j.seq), Value: 1})
		}
		kept = append(kept, j)
	}
	if len(kept) == 0 {
		return frames
	}
	d.c.attempted.Add(int64(len(kept)))
	v, _, err := cl.ReserveBatch(d.ctx, frames)
	now := nanotime()
	if err != nil {
		d.c.failed.Add(int64(len(kept)) - 1)
		d.fail(err)
		for _, j := range kept {
			if j.kind == opReserve {
				d.fs.state(j.seq).Store(stDone)
			}
		}
		return frames
	}
	for i, j := range kept {
		if j.kind == opTeardown {
			if v.Granted(i) {
				d.c.teardowns.Add(1)
			} else {
				d.fail(errTeardownMissed)
			}
			continue
		}
		w.samples = append(w.samples, sample{due: j.due, lat: now - j.due})
		d.settle(cl, j.seq, v.Granted(i), now)
	}
	return frames
}

type benchErr string

func (e benchErr) Error() string { return string(e) }

const errTeardownMissed = benchErr("teardown of a held flow found no reservation")

// setRate re-anchors the virtual clock at now with a new speed: every
// pending op, refreshes and departures included, scales with the rate, so
// the offered population and the deny share stay the same at every rate.
func (d *driver) setRate(rate float64) {
	now := nanotime()
	if d.rate > 0 {
		d.v0 += float64(now-d.w0) * d.rate / 1e9
	}
	d.w0, d.rate = now, rate
}

func (d *driver) wallAt(v float64) int64 {
	return d.w0 + int64((v-d.v0)*1e9/d.rate)
}

// step is one stretch of open-loop load at a fixed rate.
type step struct {
	rate        float64
	start, end  int64 // wall window of due times
	inflightEnd int64
	aborted     bool // the backlog passed maxBacklog
}

// maxBacklog caps the ops in flight; a step that reaches it has overloaded
// the system and ends early rather than queue without bound.
const maxBacklog = 4096

// runFor issues ops at rate for dur, then drains the in-flight ops with the
// virtual clock paused.
func (d *driver) runFor(rate float64, dur time.Duration) step {
	s := d.dispatch(rate, dur)
	d.drain()
	return s
}

// dispatch issues ops at rate for dur and returns without waiting for the
// ops still in flight. Worker samples may be read only after a drain.
func (d *driver) dispatch(rate float64, dur time.Duration) step {
	d.setRate(rate)
	s := step{rate: rate, start: d.w0}
	end := d.w0 + int64(dur)
	var batches [2][]job
	for {
		now := nanotime()
		if now >= end {
			break
		}
		if d.inflight.Load() >= maxBacklog {
			s.aborted = true
			break
		}
		for {
			v := d.g.peek()
			if v == inf {
				break
			}
			due := d.wallAt(v)
			if due > now || due >= end {
				break
			}
			e := d.g.pop()
			d.fs.ensure(e.seq)
			if e.kind == opReserve {
				d.fs.state(e.seq).Store(stPending)
			}
			d.late = append(d.late, now-due)
			d.inflightPeak = max(d.inflightPeak, d.inflight.Add(1))
			j := job{kind: e.kind, seq: e.seq, due: due}
			conn := d.tgt.conn(e.seq)
			if d.tgt.batch && e.kind != opRefresh {
				batches[conn] = append(batches[conn], j)
				if len(batches[conn]) == resv.MaxBatch {
					d.queue <- jobs{conn: conn, batch: batches[conn]}
					batches[conn] = nil
				}
				continue
			}
			d.queue <- jobs{conn: conn, one: j}
		}
		for c := range batches {
			if len(batches[c]) > 0 {
				d.queue <- jobs{conn: c, batch: batches[c]}
				batches[c] = nil
			}
		}
		next := end
		if v := d.g.peek(); v != inf {
			next = min(next, d.wallAt(v))
		}
		if wait := next - nanotime(); wait > 0 {
			sleepNS(wait)
		}
	}
	s.end = min(end, nanotime())
	s.inflightEnd = d.inflight.Load()
	d.setRate(d.rate) // anchor the virtual clock where dispatching stopped
	return s
}

// drain waits for every in-flight op with the virtual clock paused, so the
// ops that would have fallen due meanwhile do not arrive as one burst.
func (d *driver) drain() {
	for d.inflight.Load() > 0 {
		sleepNS(50_000)
	}
	d.w0 = nanotime()
}

// samplesIn returns the reserve latencies whose due time lies in [start,
// end), in due order. Call only after drain.
func (d *driver) samplesIn(start, end int64) []sample {
	var out []sample
	for _, w := range d.ws {
		for _, s := range w.samples {
			if s.due >= start && s.due < end {
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// prefill reserves every flow the stream injects at t=0, batched where the
// transport allows, before any timed op.
func (d *driver) prefill() error {
	var pend [2][]job
	flush := func(c int) {
		if len(pend[c]) > 0 {
			d.inflight.Add(int64(len(pend[c])))
			d.queue <- jobs{conn: c, batch: pend[c]}
			pend[c] = nil
		}
	}
	now := nanotime()
	for d.g.hasNext && d.g.next.At == 0 {
		e := d.g.pop()
		d.fs.ensure(e.seq)
		d.fs.state(e.seq).Store(stPending)
		c := d.tgt.conn(e.seq)
		if !d.tgt.batch {
			d.inflight.Add(1)
			d.queue <- jobs{conn: c, one: job{kind: opReserve, seq: e.seq, due: now}}
			continue
		}
		pend[c] = append(pend[c], job{kind: opReserve, seq: e.seq, due: now})
		if len(pend[c]) == resv.MaxBatch {
			flush(c)
		}
	}
	flush(0)
	flush(1)
	d.drain()
	for _, w := range d.ws {
		w.samples = w.samples[:0]
	}
	if d.c.failed.Load() > 0 {
		return benchErr("prefill: " + d.lastErr())
	}
	return nil
}

func (d *driver) lastErr() string {
	if s, ok := d.c.lastErr.Load().(string); ok {
		return s
	}
	return ""
}

// closedLoop issues the next n ops of the sequence unpaced: one caller per
// connection sends that connection's ops one at a time, each after the
// previous one answered. It returns the wall time the batch took and the
// reserves' latencies in µs.
func (d *driver) closedLoop(n int) (time.Duration, []float64) {
	var per [2][]job
	for i := 0; i < n && d.g.peek() < inf; i++ {
		e := d.g.pop()
		d.fs.ensure(e.seq)
		if e.kind == opReserve {
			d.fs.state(e.seq).Store(stPending)
		}
		c := d.tgt.conn(e.seq)
		per[c] = append(per[c], job{kind: e.kind, seq: e.seq})
	}
	ws := [2]*worker{{}, {}}
	start := time.Now()
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, j := range per[c] {
				j.due = nanotime()
				d.single(ws[c], d.tgt.clients[c], j)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var lat []float64
	for _, w := range ws {
		lat = append(lat, latenciesUS(w.samples)...)
	}
	return wall, lat
}

// releaseAll tears down every held flow (batched on stream transports,
// one closed loop per connection) and returns the time it took.
func (d *driver) releaseAll() time.Duration {
	start := time.Now()
	var held [2][]uint32
	for seq := uint32(0); seq < d.g.flows; seq++ {
		if d.fs.state(seq).CompareAndSwap(stHeld, stDone) {
			c := d.tgt.conn(seq)
			held[c] = append(held[c], seq)
		}
	}
	var wg sync.WaitGroup
	for c := range held {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := d.tgt.clients[c]
			seqs := held[c]
			frames := make([]resv.Frame, 0, resv.MaxBatch)
			for len(seqs) > 0 {
				if !d.tgt.stream {
					d.teardown(cl, seqs[0])
					seqs = seqs[1:]
					continue
				}
				n := min(len(seqs), resv.MaxBatch)
				frames = frames[:0]
				for _, s := range seqs[:n] {
					frames = append(frames, resv.Frame{Type: resv.MsgTeardown, FlowID: d.tgt.flowID(s)})
				}
				d.c.attempted.Add(int64(n))
				v, _, err := cl.ReserveBatch(d.ctx, frames)
				switch {
				case err != nil:
					d.c.failed.Add(int64(n) - 1)
					d.fail(err)
				case v.Count() != n:
					d.c.failed.Add(int64(n - v.Count()))
					d.c.teardowns.Add(int64(v.Count()))
					d.c.lastErr.Store(errTeardownMissed.Error())
				default:
					d.c.teardowns.Add(int64(n))
				}
				seqs = seqs[n:]
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

var clockBase = time.Now()

// nanotime is a monotonic clock in ns.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// sleepNS blocks the calling thread for about ns. The runtime timer wakes
// up to a millisecond late on an idle host, so the pacer instead locks its
// thread, drops the kernel timer slack to 1 ns and sleeps in nanosleep:
// wake-ups land within ~10 µs without spinning a core.
func sleepNS(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep
}

// lockPacer pins the calling goroutine to its thread with 1 ns timer slack.
// Call it from the goroutine that runs the pacer, before the first step.
func lockPacer() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: a failure only coarsens wake-ups
}
