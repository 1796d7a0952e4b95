package resv

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"beqos/internal/obs"
	"beqos/internal/policy"
	"beqos/internal/utility"
)

// Server is a single-link admission controller speaking the resv protocol.
// The admission decision is delegated to a policy.Policy; the default
// (NewServer/NewServerTTL) is the paper's counting rule — at most
// kmax(C) = argmax k·π(C/k) concurrent reservations, each guaranteed the
// worst-case share C/kmax — and NewServerPolicy accepts any policy
// upholding the package's admission invariants (DESIGN.md §12).
//
// Reservations are soft state, in two senses mirroring RSVP:
//   - scoped to their connection — a connection drop releases its flows;
//   - optionally time-limited — with a TTL configured, reservations expire
//     unless the client refreshes them (Client.Refresh / Client.KeepAlive).
//
// The serving plane is built for throughput (DESIGN.md §8):
//   - soft state lives in a Table: lock-striped shards keyed by a hash of
//     the flow ID, each with its own mutex, flow map, and TTL timing
//     wheel, so a refresh is an O(1) relink and expiry work is
//     proportional to the flows actually expiring;
//   - the admission decision itself is a CAS on a single atomic counter,
//     so concurrent reserves never over-admit and the reject path (and
//     Active/Allocated/Stats) never takes a lock;
//   - frame I/O is batched per connection: one read can yield many
//     requests, and their replies coalesce into one write (flush-on-idle).
type Server struct {
	capacity float64
	kmax     int
	ttl      time.Duration
	// byBandwidth switches admission from flow counting to traffic-spec
	// accounting: a request for rate r is admitted iff allocated + r ≤ C.
	byBandwidth bool

	// pol owns the admission counters: reserve claims a slot through
	// pol.Admit (the built-ins CAS a single atomic bounded by kmax or
	// capacity, so racing clients can never over-admit and a full link is
	// denied lock-free) and every departure path returns it through the
	// table's release funnel. The server's soft state (table, dedup) is
	// policy-independent.
	pol policy.Policy
	// polClock records that pol implements policy.ClockUser and wants the
	// server clock on every decision; clockless policies (the defaults)
	// skip the per-request time read.
	polClock bool

	// table is the soft state: every installed flow, keyed by flow ID and
	// owned by its connection.
	table *Table

	// udpMu guards udpPeers, the datagram transport's per-source-address
	// virtual connections (udp.go). A peer's inflight count is also
	// guarded by udpMu; a peer may be reaped only when it owns no flows
	// and no reader goroutine is mid-dispatch on it.
	udpMu    sync.Mutex
	udpPeers map[string]*conn

	// reg/metrics are the server's observability plane (DESIGN.md §9):
	// always on, atomics-only, flushed once per frame batch on the hot
	// path. Registry serves them at /metrics.
	reg     *obs.Registry
	metrics *ServerMetrics

	// Logf, if non-nil, receives one line per protocol event; defaults to
	// silent. Set before calling Serve.
	Logf func(format string, args ...interface{})

	// Trace, if non-nil, receives one TraceEvent per admission-path
	// decision (grant, deny, teardown, refresh, expire, release, error),
	// synchronously from the serving goroutine. The hook must be fast and
	// must not call back into the server. Set before calling Serve.
	Trace func(TraceEvent)
}

const (
	// minShards/maxShards bound the autotuned lock-stripe width of the
	// soft-state tables (see shardCountFor). Shard index is a mixed hash
	// of the flow ID, so sequential IDs spread evenly across stripes.
	minShards = 16
	maxShards = 1024

	// readBufSize is the per-connection input buffer — up to ~200 frames
	// per read syscall. writeFlushThreshold flushes the reply buffer
	// mid-batch, bounding per-connection memory under deep pipelines.
	readBufSize         = 4096
	writeFlushThreshold = 16 * 1024

	// wheelResDivisor sets the TTL wheel's resolution to ttl/256 (floored
	// at 1ms, so pathological TTLs cannot busy-loop the expiry goroutine
	// or panic time.NewTicker).
	wheelResDivisor = 256
)

// conn tracks one client connection's reservations. Stream transports own
// a net.Conn; datagram peers are virtual connections keyed by source
// address (nc nil, datagram true), created on first datagram and reaped
// once they hold no flows and no dispatch is in flight.
type conn struct {
	nc net.Conn
	// datagram marks a UDP virtual connection: its client retransmits
	// requests, so a duplicate reserve is answered from the live grant
	// instead of erroring (see reserve).
	datagram bool
	// raddr is the peer's address, for logging (nc.RemoteAddr() for
	// stream connections).
	raddr net.Addr
	// inflight counts reader goroutines mid-dispatch on this datagram
	// peer; guarded by Server.udpMu.
	inflight int
	// owner is the set of flows the connection holds in the server's
	// table, released when it departs.
	owner Owner
}

// shardCountFor returns the soft-state stripe count for a machine with p
// schedulable CPUs: the next power of two ≥ 8·p, clamped to
// [minShards, maxShards]. The 8× headroom keeps the probability that two
// of p concurrently-served requests contend on one stripe low, while the
// floor preserves the old compile-time width (16) on small machines and
// the cap bounds idle-table memory on very wide ones.
func shardCountFor(p int) int {
	if p < 1 {
		p = 1
	}
	n := minShards
	for n < 8*p && n < maxShards {
		n <<= 1
	}
	return n
}

// NewServer returns an admission controller for a link of the given
// capacity whose clients run applications with the given utility function.
// Reservations persist until torn down or their connection drops.
func NewServer(capacity float64, util utility.Function) (*Server, error) {
	return NewServerTTL(capacity, util, 0)
}

// NewServerTTL is NewServer with RSVP-style soft state: reservations not
// refreshed within ttl are released. ttl = 0 disables expiry. Servers with
// a TTL run a background expiry goroutine; call Close when done with them.
func NewServerTTL(capacity float64, util utility.Function, ttl time.Duration) (*Server, error) {
	if !(capacity > 0) || math.IsInf(capacity, 0) {
		return nil, fmt.Errorf("resv: capacity must be positive and finite, got %g", capacity)
	}
	if util == nil {
		return nil, fmt.Errorf("resv: utility must be non-nil")
	}
	kmax, ok := utility.KMax(util, capacity)
	if !ok {
		return nil, fmt.Errorf("resv: utility %q is elastic; admission control does not apply", util.Name())
	}
	if kmax < 1 {
		return nil, fmt.Errorf("resv: capacity %g admits no flows (kmax = %d)", capacity, kmax)
	}
	pol, err := policy.NewCounting(capacity, kmax)
	if err != nil {
		return nil, err
	}
	return buildServer(pol, ttl)
}

// NewServerBandwidth returns an admission controller that accounts the
// paper's traffic specifications literally: a request for rate r is
// admitted while the sum of granted rates stays within capacity, and a
// grant reserves exactly the requested rate. This is the natural mode for
// heterogeneous demands (cf. utility mixtures with per-class Demand).
func NewServerBandwidth(capacity float64, ttl time.Duration) (*Server, error) {
	if !(capacity > 0) || math.IsInf(capacity, 0) {
		return nil, fmt.Errorf("resv: capacity must be positive and finite, got %g", capacity)
	}
	pol, err := policy.NewBandwidth(capacity)
	if err != nil {
		return nil, err
	}
	return buildServer(pol, ttl)
}

// NewServerPolicy returns an admission controller running the given
// admission policy — the policy owns the admit/release counters, the
// server owns everything else (soft state, TTL wheels, retransmit dedup,
// transports, metrics). Policies implementing policy.Instrumented have
// their gauges registered as resv_policy_<name>; policies implementing
// policy.ClockUser receive the server's monotonic clock on every decision.
func NewServerPolicy(pol policy.Policy, ttl time.Duration) (*Server, error) {
	if pol == nil {
		return nil, fmt.Errorf("resv: policy must be non-nil")
	}
	if !(pol.Capacity() > 0) || math.IsInf(pol.Capacity(), 0) {
		return nil, fmt.Errorf("resv: policy %q has no positive finite capacity", pol.Name())
	}
	if pol.Mode() == policy.ModeCount && pol.Bound() < 1 {
		return nil, fmt.Errorf("resv: counting-mode policy %q admits no flows (bound %d)", pol.Name(), pol.Bound())
	}
	return buildServer(pol, ttl)
}

func buildServer(pol policy.Policy, ttl time.Duration) (*Server, error) {
	if ttl < 0 {
		return nil, fmt.Errorf("resv: TTL must be nonnegative, got %v", ttl)
	}
	s := &Server{
		capacity:    pol.Capacity(),
		kmax:        pol.Bound(),
		ttl:         ttl,
		byBandwidth: pol.Mode() == policy.ModeBandwidth,
		pol:         pol,
		reg:         obs.New(),
	}
	if cu, ok := pol.(policy.ClockUser); ok && cu.NeedsClock() {
		s.polClock = true
	}
	s.metrics = newServerMetrics(s.reg)
	s.table = NewTable(ttl, []policy.Policy{pol}, 64, s.metrics.Expiries, s.expired)
	s.reg.GaugeFunc("resv_active_flows", "live reservations", func() float64 {
		return float64(s.pol.Active())
	})
	s.reg.GaugeFunc("resv_allocated", "granted rate sum (bandwidth mode) or active count", s.Allocated)
	s.reg.GaugeFunc("resv_capacity", "link capacity C", func() float64 { return s.capacity })
	s.reg.GaugeFunc("resv_kmax", "admission threshold kmax(C)", func() float64 { return float64(s.kmax) })
	s.reg.GaugeFunc("resv_shards", "soft-state lock stripes", func() float64 { return float64(s.Shards()) })
	if inst, ok := pol.(policy.Instrumented); ok {
		for _, g := range inst.Gauges() {
			s.reg.GaugeFunc("resv_policy_"+g.Name, g.Help, g.Value)
		}
	}
	return s, nil
}

// Allocated returns the sum of granted rates (bandwidth mode) or the
// active reservation count (flow-count mode). Lock-free: safe to poll at
// any rate, concurrently with reserves.
func (s *Server) Allocated() float64 {
	return s.pol.Allocated()
}

// Active returns the current number of reservations. Lock-free.
func (s *Server) Active() int {
	return int(s.pol.Active())
}

// Policy returns the server's admission policy.
func (s *Server) Policy() policy.Policy { return s.pol }

// polNow is the clock handed to the policy: the server's monotonic
// nanosecond clock for policies that asked for one, 0 otherwise — the
// default policies' hot path never pays a time read.
func (s *Server) polNow() int64 {
	if s.polClock {
		return s.table.Now()
	}
	return 0
}

// Capacity returns the link capacity.
func (s *Server) Capacity() float64 { return s.capacity }

// KMax returns the admission threshold.
func (s *Server) KMax() int { return s.kmax }

// TTL returns the soft-state lifetime (0 = no expiry).
func (s *Server) TTL() time.Duration { return s.ttl }

// Shards returns the lock-stripe width of the soft-state tables — the
// runtime-chosen count (shardCountFor of GOMAXPROCS at construction), the
// same value the resv_shards gauge reports.
func (s *Server) Shards() int { return len(s.table.shards) }

// Metrics returns the server's instrument set. Counters may be read at
// any time (atomic loads); they are updated with per-batch granularity.
func (s *Server) Metrics() *ServerMetrics { return s.metrics }

// Registry returns the server's metrics registry, for snapshotting or
// mounting at /metrics (obs.DebugMux).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Close stops the soft-state expiry goroutine (if any). It does not close
// client connections or the listener.
func (s *Server) Close() {
	s.table.Close()
}

// expired is the table's expiry hook: the flow's slot is already back
// with the policy, and counted.
func (s *Server) expired(id uint64, _ any) {
	if s.Trace != nil {
		s.Trace(TraceEvent{Kind: TraceExpire, FlowID: id, Active: s.pol.Active()})
	}
	if s.Logf != nil {
		s.logf("resv: expired flow %d (active %d)", id, s.pol.Active())
	}
}

// Serve accepts connections on ln until ln is closed. It always returns a
// non-nil error (net.ErrClosed after a clean shutdown).
func (s *Server) Serve(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.handle(nc)
	}
}

// HandleConn serves a single already-established connection (e.g. one end
// of a net.Pipe). It returns when the connection fails or closes.
func (s *Server) HandleConn(nc net.Conn) {
	s.handle(nc)
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// handle serves one stream connection through the shared frame loop and
// releases its reservations when the loop returns.
func (s *Server) handle(nc net.Conn) {
	h := &streamConn{s: s, conn: conn{nc: nc}}
	defer s.release(&h.conn)
	s.metrics.Connections.Inc()
	defer s.metrics.Connections.Dec()
	ServeFrames(nc, h)
}

// streamConn is a stream connection's FrameHandler: the server's dispatch
// over one conn, with outcomes tallied per read and flushed to the shared
// instruments as one set of atomic adds.
type streamConn struct {
	s    *Server
	conn conn
	bs   batchStats
}

func (h *streamConn) BeginRead(time.Time) {}

func (h *streamConn) ServeFrame(f Frame) Frame { return h.s.dispatch(&h.conn, f, &h.bs) }

func (h *streamConn) ServeBatch(ops []Frame, wbuf []byte) []byte {
	return AppendFrame(wbuf, h.s.dispatchBatch(&h.conn, ops, &h.bs))
}

func (h *streamConn) EndRead(frames, framingErrs int, elapsed time.Duration) {
	h.bs.errs += uint64(framingErrs)
	h.s.metrics.flushBatch(&h.bs, frames, elapsed)
}

func (h *streamConn) Logf(format string, args ...interface{}) {
	if h.s.Logf != nil {
		h.s.Logf("resv: "+format, args...)
	}
}

// FrameHandler is the per-connection logic ServeFrames drives. The resv
// server and both cluster planes implement it; the loop owns the framing,
// the batch collector and the reply buffer.
type FrameHandler interface {
	// BeginRead is called once per read, before the read's frames are
	// served, with the clock stamp the read's service time is measured
	// from.
	BeginRead(t0 time.Time)
	// ServeFrame serves one frame outside a batch body. A reply with a
	// zero Type is not sent (one-way frames such as MsgGossip).
	ServeFrame(f Frame) Frame
	// ServeBatch serves one completed MsgReserveBatch body and appends
	// its encoded reply frames to wbuf.
	ServeBatch(ops []Frame, wbuf []byte) []byte
	// EndRead is called once per read after its frames were served — also
	// when a reply write failed part-way through them — with the number of
	// frames the read decoded, the batch-framing errors answered among
	// them, and the time since BeginRead's stamp.
	EndRead(frames, framingErrs int, elapsed time.Duration)
	// Logf logs a connection-level event (an abnormal close or a failed
	// write).
	Logf(format string, args ...interface{})
}

// ServeFrames runs one stream connection's read→dispatch→reply loop with
// batched frame I/O: every complete frame buffered by one read is decoded
// and served, and the replies coalesce into a single write issued when the
// read is done (flush-on-idle) or the reply buffer fills. The loop itself
// allocates nothing per frame. It returns when the connection fails or
// closes, without closing nc.
func ServeFrames(nc net.Conn, h FrameHandler) {
	br := bufio.NewReaderSize(nc, readBufSize)
	wbuf := make([]byte, 0, 1024)
	var frames []Frame
	var bc BatchCollector
	for {
		// Block until at least one full frame is buffered.
		if _, err := br.Peek(FrameSize); err != nil {
			// io.EOF with an empty buffer is an orderly close from the
			// peer, and net.ErrClosed (io.ErrClosedPipe on a net.Pipe) a
			// local shutdown — neither is an error. Anything else
			// (including a connection cut mid-frame, leaving a partial
			// frame buffered) is logged.
			if !(errors.Is(err, io.EOF) && br.Buffered() == 0) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) {
				h.Logf("connection %v closed: %v", nc.RemoteAddr(), err)
			}
			return
		}
		data, _ := br.Peek(br.Buffered())
		var rest []byte
		var derr error
		frames, rest, derr = DecodeFrames(frames[:0], data)
		if _, err := br.Discard(len(data) - len(rest)); err != nil {
			return
		}
		t0 := time.Now()
		h.BeginRead(t0)
		framingErrs := 0
		for _, f := range frames {
			// A batch body may span read boundaries, so the collector is
			// per-connection state: the header opens it, body frames fill
			// it, and only a completed body dispatches.
			var reply Frame
			switch {
			case bc.Active():
				done, berr := bc.Add(f)
				if berr != nil {
					// The collected prefix is dropped un-admitted; the batch
					// fails as a whole and the offending frame is then
					// served on its own terms.
					wbuf = AppendFrame(wbuf, Frame{Type: MsgError, FlowID: f.FlowID, Value: float64(ErrCodeBadRequest)})
					framingErrs++
					reply = h.ServeFrame(f)
				} else if done {
					wbuf = h.ServeBatch(bc.Ops(), wbuf)
				} else {
					continue
				}
			case f.Type == MsgReserveBatch:
				if berr := bc.Begin(f); berr != nil {
					reply = Frame{Type: MsgError, FlowID: f.FlowID, Value: float64(ErrCodeBadRequest)}
					framingErrs++
				} else {
					continue
				}
			default:
				reply = h.ServeFrame(f)
			}
			if reply.Type != 0 {
				wbuf = AppendFrame(wbuf, reply)
			}
			if len(wbuf) >= writeFlushThreshold && !flushReplies(nc, &wbuf, h) {
				h.EndRead(len(frames), framingErrs, time.Since(t0))
				return
			}
		}
		h.EndRead(len(frames), framingErrs, time.Since(t0))
		// Flush-on-idle: the decoded read is fully served and the next
		// read may block, so everything coalesced so far goes out now.
		if !flushReplies(nc, &wbuf, h) {
			return
		}
		if derr != nil {
			h.Logf("connection %v closed: %v", nc.RemoteAddr(), derr)
			return
		}
	}
}

// flushReplies writes the coalesced replies in one syscall.
func flushReplies(nc net.Conn, wbuf *[]byte, h FrameHandler) bool {
	if len(*wbuf) == 0 {
		return true
	}
	_, err := nc.Write(*wbuf)
	*wbuf = (*wbuf)[:0]
	if err != nil {
		h.Logf("write to %v failed: %v", nc.RemoteAddr(), err)
		return false
	}
	return true
}

// dispatch serves one frame, tallying its outcome into bs. Counting lives
// here (not in the caller) because only the reserve path can tell a fresh
// grant from a retransmit answered out of the live entry — the two carry
// identical reply frames but must land in different counters.
func (s *Server) dispatch(c *conn, f Frame, bs *batchStats) Frame {
	var reply Frame
	var dup bool
	switch f.Type {
	case MsgRequest:
		reply, dup = s.reserve(c, f)
	case MsgTeardown:
		reply = s.teardown(c, f)
	case MsgRefresh:
		reply = s.refresh(c, f)
	case MsgStats:
		var err error
		reply, err = StatsReplyFrame(s.kmax, s.pol.Active())
		if err != nil { // a policy bound beyond 2^53 flows; unreachable for the built-ins
			reply = Frame{Type: MsgError, FlowID: f.FlowID, Value: float64(ErrCodeBadRequest)}
		}
	default:
		reply = Frame{Type: MsgError, FlowID: f.FlowID, Value: float64(ErrCodeBadRequest)}
	}
	bs.count(f, reply)
	if dup {
		// A re-sent grant is not a second admission: move it from the
		// grant tally to the dup tally so resv_grants_total keeps counting
		// admissions exactly.
		bs.grants--
		bs.dups++
	}
	return reply
}

// dispatchBatch serves one completed MsgReserveBatch body: runs of
// consecutive requests with identical rate and class are admitted through
// one vectored policy claim (policy.AdmitBatch — a single CAS for the
// built-in count/bandwidth/tiered policies), teardown ops go through the
// ordinary teardown path in order, and the whole body is answered with a
// single bitmap reply. Ops are processed in body order, so a batch is
// semantically identical to its ops sent one frame at a time — only the
// admission arithmetic and the reply framing are amortized.
func (s *Server) dispatchBatch(c *conn, ops []Frame, bs *batchStats) Frame {
	var verdict BatchVerdict
	share := 0.0
	for i := 0; i < len(ops); {
		f := ops[i]
		if f.Type == MsgTeardown {
			reply := s.teardown(c, f)
			bs.count(f, reply)
			if reply.Type == MsgTeardownOK {
				verdict |= 1 << uint(i)
			}
			i++
			continue
		}
		j := i + 1
		for j < len(ops) && ops[j].Type == MsgRequest && ops[j].Value == f.Value && ops[j].Class == f.Class {
			j++
		}
		if sh := s.reserveRun(c, ops[i:j], i, &verdict, bs); sh != 0 {
			share = sh
		}
		i = j
	}
	return Frame{Type: MsgReserveBatchReply, FlowID: uint64(verdict), Value: share}
}

// reserveRun admits one run of identical batched requests (same rate and
// class), setting each installed op's bit in verdict. The policy grants a
// prefix of the run in one claim; a granted op whose flow ID is already
// installed rolls its single claim back and keeps its bit clear (batch
// framing is stream-only, so there is no datagram-retransmit re-grant
// case — a duplicate in a batch is simply an error outcome). It returns
// the count-mode grant share when anything was installed, 0 otherwise.
func (s *Server) reserveRun(c *conn, run []Frame, base int, verdict *BatchVerdict, bs *batchStats) float64 {
	n := len(run)
	bs.reserves += uint64(n)
	v := run[0].Value
	if !(v >= 0) || math.IsInf(v, 0) || (s.byBandwidth && !(v > 0)) {
		bs.errs += uint64(n)
		if s.Trace != nil {
			for _, f := range run {
				s.Trace(TraceEvent{Kind: TraceError, FlowID: f.FlowID, Value: float64(ErrCodeBadRequest), Active: s.pol.Active()})
			}
		}
		return 0
	}
	rate := 0.0
	if s.byBandwidth {
		rate = v
	}
	granted, dec := policy.AdmitBatch(s.pol, s.polNow(), run[0].FlowID, v, run[0].Class, n)
	installed := 0
	for i := 0; i < granted; i++ {
		f := run[i]
		if _, _, ok := s.table.Install(f.FlowID, &c.owner, rate, nil); !ok {
			s.pol.Release(s.polNow(), rate) // roll this op's claim back
			bs.errs++
			if s.Trace != nil {
				s.Trace(TraceEvent{Kind: TraceError, FlowID: f.FlowID, Value: float64(ErrCodeDuplicateFlow), Active: s.pol.Active()})
			}
			continue
		}
		*verdict |= 1 << uint(base+i)
		installed++
		bs.grants++
		if s.Trace != nil {
			s.Trace(TraceEvent{Kind: TraceGrant, FlowID: f.FlowID, Value: dec.Share, Active: s.pol.Active()})
		}
	}
	if granted < n {
		bs.denials += uint64(n - granted)
		if s.Trace != nil {
			for _, f := range run[granted:] {
				s.Trace(TraceEvent{Kind: TraceDeny, FlowID: f.FlowID, Value: dec.Load, Active: s.pol.Active()})
			}
		}
	}
	if installed == 0 || s.byBandwidth {
		return 0
	}
	return dec.Share
}

// reserve runs admission control for one request. dup reports that the
// reply is a re-sent grant for an already-installed flow (datagram
// retransmit), not a fresh admission.
//
// The decision itself belongs to the policy: the built-ins claim a slot
// with a CAS bounded by kmax (or capacity, in bandwidth mode), so the
// winners of a race at the boundary are exactly the first bound-n claims
// and a full link is denied from an atomic alone — no shard lock. The
// server's job is the soft state around the decision: install the admitted
// flow, roll the claim back on a duplicate, and answer retransmits of live
// admissions from the entry rather than re-admitting.
func (s *Server) reserve(c *conn, f Frame) (reply Frame, dup bool) {
	if !(f.Value >= 0) || math.IsInf(f.Value, 0) || (s.byBandwidth && !(f.Value > 0)) {
		if s.Trace != nil {
			s.Trace(TraceEvent{Kind: TraceError, FlowID: f.FlowID, Value: float64(ErrCodeBadRequest), Active: s.pol.Active()})
		}
		return Frame{Type: MsgError, FlowID: f.FlowID, Value: float64(ErrCodeBadRequest)}, false
	}
	dec := s.pol.Admit(s.polNow(), f.FlowID, f.Value, f.Class)
	if !dec.Admit {
		// A denial must not reject a datagram retransmit of a live
		// admission — possibly the very admission that filled the link
		// (grant lost, client re-sent). Only the deny path pays the shard
		// lookup; fresh admissions stay lock-free in the policy.
		if c.datagram {
			if o, liveRate, ok := s.table.Lookup(f.FlowID); ok && o == &c.owner {
				return s.duplicate(c, f, true, s.pol.Share(liveRate))
			}
		}
		if s.Trace != nil {
			s.Trace(TraceEvent{Kind: TraceDeny, FlowID: f.FlowID, Value: dec.Load, Active: s.pol.Active()})
		}
		if s.Logf != nil {
			if s.byBandwidth {
				s.logf("resv: deny flow %d (allocated %g + %g > capacity %g)", f.FlowID, dec.Load, f.Value, s.capacity)
			} else {
				s.logf("resv: deny flow %d (%s: active %d)", f.FlowID, s.pol.Name(), int64(dec.Load))
			}
		}
		return Frame{Type: MsgDeny, FlowID: f.FlowID, Value: dec.Load}, false
	}
	rate := 0.0
	if s.byBandwidth {
		rate = f.Value
	}
	if o, liveRate, ok := s.table.Install(f.FlowID, &c.owner, rate, nil); !ok {
		s.pol.Release(s.polNow(), rate) // roll the claimed admission back
		// A retransmit is answered with what the original admission
		// granted (its stored rate, or the worst-case share), which need
		// not equal this request's.
		return s.duplicate(c, f, o == &c.owner, s.pol.Share(liveRate))
	}
	// In count mode the grant carries the guaranteed worst-case share
	// C/kmax — the instantaneous share C/min(k, kmax) would be stale the
	// moment another flow is admitted — and in bandwidth mode exactly the
	// requested rate; either way dec.Share is the policy's word.
	if s.Trace != nil {
		s.Trace(TraceEvent{Kind: TraceGrant, FlowID: f.FlowID, Value: dec.Share, Active: s.pol.Active()})
	}
	if s.Logf != nil {
		if s.byBandwidth {
			s.logf("resv: grant flow %d rate %g (allocated %g/%g)", f.FlowID, rate, s.pol.Allocated(), s.capacity)
		} else {
			s.logf("resv: grant flow %d (active %d, share %g)", f.FlowID, s.pol.Active(), dec.Share)
		}
	}
	return Frame{Type: MsgGrant, FlowID: f.FlowID, Value: dec.Share}, false
}

// duplicate resolves a reserve that found its flow ID already installed
// (own: by this very connection), after the caller rolled back the claimed
// slot/rate. On a datagram connection whose own live flow it is, the
// reserve is a client retransmit whose grant was lost in flight: re-send
// the grant out of the live entry, so the retransmit can never
// double-admit. Everything else is a genuine duplicate-flow error.
func (s *Server) duplicate(c *conn, f Frame, own bool, value float64) (Frame, bool) {
	if c.datagram && own {
		if s.Trace != nil {
			s.Trace(TraceEvent{Kind: TraceGrant, FlowID: f.FlowID, Value: value, Active: s.pol.Active()})
		}
		if s.Logf != nil {
			s.logf("resv: re-grant flow %d (retransmitted reserve)", f.FlowID)
		}
		return Frame{Type: MsgGrant, FlowID: f.FlowID, Value: value}, true
	}
	if s.Trace != nil {
		s.Trace(TraceEvent{Kind: TraceError, FlowID: f.FlowID, Value: float64(ErrCodeDuplicateFlow), Active: s.pol.Active()})
	}
	return Frame{Type: MsgError, FlowID: f.FlowID, Value: float64(ErrCodeDuplicateFlow)}, false
}

func (s *Server) teardown(c *conn, f Frame) Frame {
	if !s.table.Remove(f.FlowID, &c.owner) {
		return Frame{Type: MsgError, FlowID: f.FlowID, Value: float64(ErrCodeUnknownFlow)}
	}
	active := s.pol.Active()
	if s.Trace != nil {
		s.Trace(TraceEvent{Kind: TraceTeardown, FlowID: f.FlowID, Active: active})
	}
	if s.Logf != nil {
		s.logf("resv: teardown flow %d (active %d)", f.FlowID, active)
	}
	return Frame{Type: MsgTeardownOK, FlowID: f.FlowID, Value: float64(active)}
}

// refresh renews a reservation's soft-state deadline.
func (s *Server) refresh(c *conn, f Frame) Frame {
	if !s.table.Refresh(f.FlowID, &c.owner) {
		return Frame{Type: MsgError, FlowID: f.FlowID, Value: float64(ErrCodeUnknownFlow)}
	}
	if s.Trace != nil {
		s.Trace(TraceEvent{Kind: TraceRefresh, FlowID: f.FlowID, Value: s.ttl.Seconds(), Active: s.pol.Active()})
	}
	return Frame{Type: MsgRefreshOK, FlowID: f.FlowID, Value: s.ttl.Seconds()}
}

// release frees every reservation held by a departing connection.
func (s *Server) release(c *conn) {
	_ = c.nc.Close()
	var trace func(id uint64)
	if s.Trace != nil {
		trace = func(id uint64) {
			s.Trace(TraceEvent{Kind: TraceRelease, FlowID: id, Active: s.pol.Active()})
		}
	}
	if n := s.table.Drain(&c.owner, trace); n > 0 {
		s.metrics.Releases.Add(uint64(n))
		s.logf("resv: released %d reservations from %v", n, c.nc.RemoteAddr())
	}
}
