package resv

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// The multiplexed stream transport (DESIGN.md §11): one TCP connection
// carries many concurrent flows. Callers from any number of goroutines
// hand frames to a single writer goroutine, which coalesces whatever has
// queued into one vectored write (net.Buffers → writev), while a single
// reader goroutine fans replies back out to the waiting callers. The
// server already pipelines — it answers frames in arrival order on each
// connection — so no framing changes are needed: replies to flow-scoped
// requests are matched by FlowID, and stats replies (whose FlowID field
// carries kmax, not a flow) are matched first-in-first-out, which arrival
// order makes exact.
//
// Compared to connection-per-flow this removes the goroutine, socket, and
// kernel buffers per flow: 100k flows cost one connection, two goroutines,
// and a map entry per in-flight request. The trade is RSVP fate-sharing
// granularity — dropping the connection releases every flow it carries.

// maxMuxBatch caps frames per vectored flush. 64 frames is 1280 bytes —
// one TCP segment — and matches the server's read-batch horizon.
const maxMuxBatch = 64

// muxCall is one in-flight request's rendezvous. done is buffered so the
// deliverer never blocks; reply/err are valid after a receive from done.
type muxCall struct {
	reply Frame
	err   error
	// abandoned marks a stats call whose waiter gave up (context expired).
	// It keeps its statsq slot — the reply is still on its way, and FIFO
	// matching needs the slot consumed by exactly that reply. Guarded by
	// MuxClient.mu.
	abandoned bool
	done      chan struct{}
}

// muxSend is one send-queue item: a single frame, or a complete batch
// whose header and body frames must stay contiguous on the wire (a batch
// is one item, so another sender's frame can never land inside it).
type muxSend struct {
	f     Frame
	batch *muxBatch // nil for single frames
}

// muxBatch is a pooled, self-contained copy of a batch's frames (header +
// body). The copy is taken at enqueue time so the caller may return (e.g.
// on context cancellation) while the writer still owns the buffer.
type muxBatch struct {
	n      int
	frames [MaxBatch + 1]Frame
}

// MuxClient multiplexes many flows' requests over one stream connection.
// Methods are safe for concurrent use and do not serialize on each other:
// requests from different goroutines coalesce into shared batched writes.
// At most one request may be in flight per flow ID at a time.
type MuxClient struct {
	clientOps

	nc net.Conn

	mu      sync.Mutex
	pending map[uint64]*muxCall // in-flight flow-scoped requests
	statsq  []*muxCall          // in-flight stats requests, send order
	batchq  []*muxCall          // in-flight batch requests, send order
	closed  bool
	err     error // terminal error, set once with closed

	// batchMu serializes batch senders across [register in batchq, enqueue
	// on sendq], so batchq order always matches wire order — the FIFO reply
	// matching depends on it. fail never takes it, so a sender blocked on a
	// full sendq under batchMu is still unblocked by m.dead.
	batchMu sync.Mutex

	// onGossip, if non-nil, receives one-way MsgGossip frames the server
	// piggybacks on this connection's replies (cluster plane). Set via
	// OnGossip before issuing requests; called from the reader goroutine.
	onGossip func(Frame)

	sendq     chan muxSend
	dead      chan struct{} // closed by fail; unblocks senders and the writer
	pool      sync.Pool
	batchPool sync.Pool
	wg        sync.WaitGroup
}

// NewMuxClient wraps an established stream connection in a multiplexing
// client and starts its writer and reader goroutines. Close releases all
// flows reserved through it (connection-scoped soft state, as with Client).
func NewMuxClient(nc net.Conn) *MuxClient {
	m := &MuxClient{
		nc:      nc,
		pending: make(map[uint64]*muxCall),
		sendq:   make(chan muxSend, maxMuxBatch),
		dead:    make(chan struct{}),
	}
	m.pool.New = func() interface{} {
		return &muxCall{done: make(chan struct{}, 1)}
	}
	m.batchPool.New = func() interface{} { return new(muxBatch) }
	m.t = m
	m.wg.Add(2)
	go m.writer()
	go m.reader()
	return m
}

// DialMux connects to a resv server and multiplexes flows over the
// resulting stream connection.
func DialMux(ctx context.Context, network, addr string) (*MuxClient, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, fmt.Errorf("resv: dial %s %s: %w", network, addr, err)
	}
	return NewMuxClient(nc), nil
}

// Close tears down the connection and fails every in-flight request; the
// server releases all reservations held through the connection.
func (m *MuxClient) Close() error {
	m.fail(net.ErrClosed)
	err := m.nc.Close()
	m.wg.Wait()
	return err
}

// fail marks the client dead with err (first caller wins), fails every
// in-flight call, and unblocks queued senders.
func (m *MuxClient) fail(err error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.err = err
	pending, statsq, batchq := m.pending, m.statsq, m.batchq
	m.pending, m.statsq, m.batchq = nil, nil, nil
	close(m.dead)
	m.mu.Unlock()
	for _, call := range pending {
		call.err = err
		call.done <- struct{}{}
	}
	for _, call := range statsq {
		call.err = err
		call.done <- struct{}{}
	}
	for _, call := range batchq {
		call.err = err
		call.done <- struct{}{}
	}
}

// writer drains sendq into batched writes: every item queued by the time
// the writer gets scheduled is encoded into one contiguous buffer and goes
// out in a single write syscall. The buffer is reused across flushes, so
// the steady state allocates nothing; a batch item's pooled frame copy is
// recycled as soon as it is encoded.
func (m *MuxClient) writer() {
	defer m.wg.Done()
	buf := make([]byte, 0, (MaxBatch+1)*FrameSize)
	for {
		var s muxSend
		select {
		case s = <-m.sendq:
		case <-m.dead:
			return
		}
		buf = m.appendSend(buf[:0], s)
	coalesce:
		for n := 1; n < maxMuxBatch; n++ {
			select {
			case s = <-m.sendq:
				buf = m.appendSend(buf, s)
			default:
				break coalesce
			}
		}
		if _, err := m.nc.Write(buf); err != nil {
			m.fail(fmt.Errorf("resv: mux write: %w", err))
			return
		}
	}
}

// appendSend encodes one send item into buf and recycles its batch copy.
func (m *MuxClient) appendSend(buf []byte, s muxSend) []byte {
	if s.batch == nil {
		return AppendFrame(buf, s.f)
	}
	for i := 0; i < s.batch.n; i++ {
		buf = AppendFrame(buf, s.batch.frames[i])
	}
	m.batchPool.Put(s.batch)
	return buf
}

// reader fans replies back out: flow-scoped replies to their pending call
// by FlowID, stats and batch replies to their FIFO heads, one-way gossip
// frames to the OnGossip hook. A reply with no waiter — a call canceled
// between send and reply — is dropped on the floor.
func (m *MuxClient) reader() {
	defer m.wg.Done()
	br := bufio.NewReaderSize(m.nc, maxMuxBatch*FrameSize)
	for {
		reply, err := ReadFrame(br)
		if err != nil {
			m.fail(fmt.Errorf("resv: mux read: %w", err))
			return
		}
		if reply.Type == MsgGossip {
			// One-way: never matches a call, and must not be mistaken for a
			// flow-scoped reply (its FlowID packs link index and version).
			if m.onGossip != nil {
				m.onGossip(reply)
			}
			continue
		}
		m.mu.Lock()
		var call *muxCall
		switch reply.Type {
		case MsgStatsReply:
			call = popFIFO(&m.statsq, &m.pool)
		case MsgReserveBatchReply:
			call = popFIFO(&m.batchq, &m.pool)
		default:
			if c, ok := m.pending[reply.FlowID]; ok {
				delete(m.pending, reply.FlowID)
				call = c
			}
		}
		m.mu.Unlock()
		if call != nil {
			call.reply = reply
			call.done <- struct{}{}
		}
	}
}

// popFIFO consumes the head of a send-ordered reply queue (statsq or
// batchq). An abandoned slot — its waiter gave up — is recycled here and
// reported as no waiter. Caller holds m.mu.
func popFIFO(q *[]*muxCall, pool *sync.Pool) *muxCall {
	s := *q
	if len(s) == 0 {
		return nil
	}
	call := s[0]
	// Shift rather than re-slice: the queue is at most a few entries deep,
	// and keeping the backing array's base lets appends reuse it forever —
	// (*q)[1:] would bleed capacity off the front and reallocate steadily.
	copy(s, s[1:])
	s[len(s)-1] = nil
	*q = s[:len(s)-1]
	if call.abandoned {
		// The waiter is gone; the slot existed only to keep the FIFO
		// aligned. Recycle the call here.
		call.abandoned = false
		pool.Put(call)
		return nil
	}
	return call
}

// roundTrip registers a call, queues the frame, and waits for its reply or
// the context. The request counts as sent once the frame is handed to the
// writer: from then on the server may act on it. The zero-loss fast path —
// register, channel send, channel receive, recycle — allocates nothing.
func (m *MuxClient) roundTrip(ctx context.Context, req Frame) (Frame, bool, error) {
	call := m.pool.Get().(*muxCall)
	call.reply, call.err = Frame{}, nil
	var t0 time.Time
	if m.metrics != nil {
		t0 = time.Now()
	}
	stats := req.Type == MsgStats

	m.mu.Lock()
	if m.closed {
		err := m.err
		m.mu.Unlock()
		m.pool.Put(call)
		return Frame{}, false, fmt.Errorf("resv: mux: client closed: %w", err)
	}
	if stats {
		m.statsq = append(m.statsq, call)
	} else {
		if _, dup := m.pending[req.FlowID]; dup {
			m.mu.Unlock()
			m.pool.Put(call)
			return Frame{}, false, fmt.Errorf("resv: mux: flow %d already has a request in flight", req.FlowID)
		}
		m.pending[req.FlowID] = call
	}
	m.mu.Unlock()

	select {
	case m.sendq <- muxSend{f: req}:
	case <-m.dead:
		// fail already delivered the error into the call.
		<-call.done
		reply, err := m.finish(req, call, t0)
		return reply, false, err
	case <-ctx.Done():
		// The frame never reached sendq: no reply will come, so the
		// registration can be withdrawn outright (for stats, the FIFO slot
		// must go too — nothing will consume it).
		m.withdraw(req, call, stats)
		return Frame{}, false, ctx.Err()
	}

	select {
	case <-call.done:
		reply, err := m.finish(req, call, t0)
		return reply, true, err
	case <-ctx.Done():
		if m.abandon(req, call, stats) {
			if m.metrics != nil {
				m.metrics.observe(req, Frame{}, 0, ctx.Err())
			}
			return Frame{}, true, ctx.Err()
		}
		// Delivery raced the cancellation; the reply is here — use it.
		<-call.done
		reply, err := m.finish(req, call, t0)
		return reply, true, err
	}
}

// teardownBestEffort sends a teardown for flowID under a short deadline
// and ignores the outcome. A late reply to the failed request carries the
// same flow ID and may be taken as the teardown's answer; the teardown
// frame goes out either way, which is all the cleanup needs.
func (m *MuxClient) teardownBestEffort(flowID uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), bestEffortTeardownTimeout)
	defer cancel()
	_, _, _ = m.roundTrip(ctx, Frame{Type: MsgTeardown, FlowID: flowID})
}

// Post queues a frame for the next batched write without registering a
// reply rendezvous — fire-and-forget, for one-way frames (MsgGossip) that
// the peer never answers. The frame coalesces into whatever request batch
// the writer flushes next, so piggybacked gossip costs its 20 bytes and no
// extra syscall. Post never blocks on a full send queue: a queue the writer
// is not draining means the connection is stalled or dead, and gossip is
// refreshed continuously — dropping one snapshot is always safe. queued
// reports whether the frame actually made the queue, so senders tracking
// what the peer has seen (gossip suppression) don't mark a dropped
// snapshot as delivered.
func (m *MuxClient) Post(f Frame) (queued bool, err error) {
	select {
	case <-m.dead:
		m.mu.Lock()
		err := m.err
		m.mu.Unlock()
		return false, fmt.Errorf("resv: mux: client closed: %w", err)
	default:
	}
	select {
	case m.sendq <- muxSend{f: f}:
		return true, nil
	default: // queue full: drop, the next snapshot supersedes this one
		return false, nil
	}
}

// OnGossip installs a hook receiving one-way MsgGossip frames arriving on
// this connection (reply-piggybacked occupancy from a cluster peer). The
// hook runs on the reader goroutine and must be fast. Not safe to call
// concurrently with traffic — set it right after NewMuxClient.
func (m *MuxClient) OnGossip(h func(Frame)) { m.onGossip = h }

// ReserveBatch submits ops — 1..MaxBatch body frames, each a MsgRequest or
// MsgTeardown — as one MsgReserveBatch and returns the per-op verdict
// bitmap plus the count-mode grant share (0 in bandwidth mode). Ops are
// processed by the server in order with exact partial-grant semantics at
// the admission boundary; bit i of the verdict reports op i's outcome.
// The ops slice is copied before this call returns a cancellation, so the
// caller may reuse it freely.
func (m *MuxClient) ReserveBatch(ctx context.Context, ops []Frame) (BatchVerdict, float64, error) {
	n := len(ops)
	if err := checkBatchLen(n); err != nil {
		return 0, 0, err
	}
	call := m.pool.Get().(*muxCall)
	call.reply, call.err = Frame{}, nil
	b := m.batchPool.Get().(*muxBatch)
	b.frames[0] = BatchHeader(n)
	copy(b.frames[1:], ops)
	b.n = n + 1
	var t0 time.Time
	if m.metrics != nil {
		t0 = time.Now()
	}

	// Register and enqueue under batchMu so batchq order matches wire
	// order even with concurrent batch senders — the reader matches batch
	// replies strictly FIFO.
	m.batchMu.Lock()
	m.mu.Lock()
	if m.closed {
		err := m.err
		m.mu.Unlock()
		m.batchMu.Unlock()
		m.pool.Put(call)
		m.batchPool.Put(b)
		return 0, 0, fmt.Errorf("resv: mux: client closed: %w", err)
	}
	m.batchq = append(m.batchq, call)
	m.mu.Unlock()

	select {
	case m.sendq <- muxSend{batch: b}:
		m.batchMu.Unlock()
	case <-m.dead:
		m.batchMu.Unlock()
		m.batchPool.Put(b)
		// fail already delivered the error into the call.
		<-call.done
		return m.finishBatch(ops, call, t0)
	case <-ctx.Done():
		m.batchMu.Unlock()
		m.batchPool.Put(b)
		m.withdrawBatch(call)
		if m.metrics != nil {
			m.metrics.observeBatch(ops, 0, 0, ctx.Err())
		}
		return 0, 0, ctx.Err()
	}

	select {
	case <-call.done:
		return m.finishBatch(ops, call, t0)
	case <-ctx.Done():
		if m.abandonBatch(call) {
			if m.metrics != nil {
				m.metrics.observeBatch(ops, 0, 0, ctx.Err())
			}
			return 0, 0, ctx.Err()
		}
		// Delivery raced the cancellation; the reply is here — use it.
		<-call.done
		return m.finishBatch(ops, call, t0)
	}
}

// finishBatch consumes a delivered batch call.
func (m *MuxClient) finishBatch(ops []Frame, call *muxCall, t0 time.Time) (BatchVerdict, float64, error) {
	reply, err := call.reply, call.err
	m.pool.Put(call)
	var v BatchVerdict
	var share float64
	if err == nil {
		v, share, err = batchReply(reply)
	}
	if m.metrics != nil {
		m.metrics.observeBatch(ops, v, time.Since(t0), err)
	}
	return v, share, err
}

// withdrawBatch removes a batch call whose frames were never sent. Caller
// does not hold m.mu.
func (m *MuxClient) withdrawBatch(call *muxCall) {
	m.mu.Lock()
	for i, c := range m.batchq {
		if c == call {
			m.batchq = append(m.batchq[:i], m.batchq[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	m.pool.Put(call)
}

// abandonBatch gives up on a sent batch call, keeping its FIFO slot for
// alignment (the reader recycles it). It reports false when delivery
// already happened.
func (m *MuxClient) abandonBatch(call *muxCall) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.batchq {
		if c == call {
			call.abandoned = true
			return true
		}
	}
	return false
}

// finish consumes a delivered call: record metrics, recycle, return.
func (m *MuxClient) finish(req Frame, call *muxCall, t0 time.Time) (Frame, error) {
	reply, err := call.reply, call.err
	m.pool.Put(call)
	if m.metrics != nil {
		m.metrics.observe(req, reply, time.Since(t0), err)
	}
	if err != nil {
		return Frame{}, err
	}
	return reply, nil
}

// withdraw removes a call whose frame was never sent. Caller does not hold
// m.mu.
func (m *MuxClient) withdraw(req Frame, call *muxCall, stats bool) {
	m.mu.Lock()
	if stats {
		for i, c := range m.statsq {
			if c == call {
				m.statsq = append(m.statsq[:i], m.statsq[i+1:]...)
				break
			}
		}
	} else if m.pending[req.FlowID] == call {
		delete(m.pending, req.FlowID)
	}
	m.mu.Unlock()
	m.pool.Put(call)
}

// abandon gives up on a sent call. It reports true when the waiter may
// leave (the reply, when it arrives, is dropped — or, for stats, consumed
// into the abandoned slot) and false when delivery already happened, in
// which case call.done holds the reply. Caller does not hold m.mu.
func (m *MuxClient) abandon(req Frame, call *muxCall, stats bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if stats {
		for _, c := range m.statsq {
			if c == call {
				// Keep the slot for FIFO alignment; the reader recycles it.
				call.abandoned = true
				return true
			}
		}
		return false
	}
	if m.pending[req.FlowID] == call {
		delete(m.pending, req.FlowID)
		// No deliverer can hold the call anymore; it is ours to recycle.
		// The late reply finds no pending entry and is dropped. NOTE: the
		// request may still take effect server-side — Reserve callers that
		// time out should tear the flow down (ReserveWithRetry does).
		m.pool.Put(call)
		return true
	}
	return false
}
