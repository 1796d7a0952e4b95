package resv

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Client speaks the resv protocol over a single connection. One request is
// in flight at a time; methods are safe for concurrent use (they serialize
// on an internal mutex).
//
// Over a stream transport (TCP, Unix, net.Pipe) a round trip is one write
// and one read. Over a datagram transport (NewUDPClient/DialUDP) the
// client owns reliability: it retransmits the request on a reply timeout,
// skips stale duplicated replies, and leans on the server's retransmit
// semantics — reserve dedups against the live grant, refresh is
// idempotent, and a teardown answered "unknown flow" after a retransmit
// means an earlier flight already succeeded.
type Client struct {
	clientOps

	mu sync.Mutex
	nc net.Conn
	// wbuf/rbuf are the frame scratch buffers, guarded by mu. A stack
	// array would escape through the net.Conn interface call; these keep
	// the steady-state round trip at zero allocations.
	wbuf, rbuf [FrameSize]byte
	// bbuf is ReserveBatch's reusable encode buffer (header + body frames
	// in one write), grown on first use, guarded by mu.
	bbuf []byte
	// udp, when non-nil, switches round trips to datagram mode with the
	// given retransmit parameters.
	udp *UDPConfig
	// udpStale marks that a previous datagram round trip may have left
	// late replies queued in the socket: it retransmitted (a reply that
	// was delayed rather than lost means two answers on the wire) or gave
	// up with flights unanswered. Before the next request the socket is
	// swept — a stale DENY or GRANT for a re-requested flow ID would be
	// indistinguishable from the new answer. Guarded by mu.
	udpStale bool
}

// UDPConfig tunes the datagram transport's request-level retransmit.
type UDPConfig struct {
	// Timeout is how long one flight waits for a reply before the request
	// is retransmitted (default 250ms).
	Timeout time.Duration
	// MaxFlights caps total sends per request, first attempt included
	// (default 4): a request still unanswered after MaxFlights·Timeout
	// fails the round trip.
	MaxFlights int
}

// withDefaults fills unset retransmit parameters.
func (cfg UDPConfig) withDefaults() UDPConfig {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 250 * time.Millisecond
	}
	if cfg.MaxFlights < 1 {
		cfg.MaxFlights = 4
	}
	return cfg
}

// Dial connects to a resv server at the given network address.
func Dial(ctx context.Context, network, addr string) (*Client, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, fmt.Errorf("resv: dial %s %s: %w", network, addr, err)
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection (e.g. one end of a net.Pipe).
func NewClient(nc net.Conn) *Client {
	c := &Client{nc: nc}
	c.t = c
	return c
}

// DialUDP connects to a resv server's datagram endpoint. The connection is
// a connected UDP socket: the OS filters datagrams to the server's address,
// so readDatagram never sees unrelated traffic.
func DialUDP(ctx context.Context, addr string, cfg UDPConfig) (*Client, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "udp", addr)
	if err != nil {
		return nil, fmt.Errorf("resv: dial udp %s: %w", addr, err)
	}
	return NewUDPClient(nc, cfg), nil
}

// NewUDPClient wraps an established datagram connection (a connected
// *net.UDPConn, or any net.Conn with datagram semantics — each Write sends
// one datagram, each Read returns one) in a client running the datagram
// transport's retransmit protocol.
func NewUDPClient(nc net.Conn, cfg UDPConfig) *Client {
	cfg = cfg.withDefaults()
	c := &Client{nc: nc, udp: &cfg}
	c.t = c
	return c
}

// Close tears down the connection; the server releases all reservations
// held through it.
func (c *Client) Close() error { return c.nc.Close() }

// writeFrame and readFrame are WriteFrame/ReadFrame through the client's
// scratch buffers. Callers hold c.mu.
func (c *Client) writeFrame(f Frame) error {
	putFrame(&c.wbuf, f)
	_, err := c.nc.Write(c.wbuf[:])
	return err
}

func (c *Client) readFrame() (Frame, error) {
	if _, err := io.ReadFull(c.nc, c.rbuf[:]); err != nil {
		return Frame{}, err
	}
	return DecodeFrame(c.rbuf[:])
}

// roundTrip sends one frame and reads one reply, honoring the context
// deadline. sent reports whether the request reached the wire: when it did
// and err is non-nil, the server may have processed the request even though
// no reply arrived.
func (c *Client) roundTrip(ctx context.Context, req Frame) (reply Frame, sent bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.udp != nil {
		return c.roundTripUDP(ctx, req)
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Time{}
	}
	if err := c.nc.SetDeadline(deadline); err != nil {
		return Frame{}, false, fmt.Errorf("resv: set deadline: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return Frame{}, false, err
	}
	// Clock reads only when instrumented: the uninstrumented round trip
	// stays free of time syscalls.
	var t0 time.Time
	if c.metrics != nil {
		t0 = time.Now()
	}
	if err := c.writeFrame(req); err != nil {
		err = fmt.Errorf("resv: send %s: %w", req.Type, err)
		if c.metrics != nil {
			c.metrics.observe(req, Frame{}, 0, err)
		}
		return Frame{}, false, err
	}
	reply, err = c.readFrame()
	if err != nil {
		err = fmt.Errorf("resv: awaiting reply to %s: %w", req.Type, err)
		if c.metrics != nil {
			c.metrics.observe(req, Frame{}, 0, err)
		}
		return Frame{}, true, err
	}
	if c.metrics != nil {
		c.metrics.observe(req, reply, time.Since(t0), nil)
	}
	return reply, true, nil
}

// roundTripUDP is the datagram round trip: send the request, wait up to one
// flight timeout for a matching reply, retransmit on silence, give up after
// MaxFlights. Caller holds c.mu. Non-matching replies — late duplicates
// from an earlier flight's retransmit, or garbage — are skipped without
// consuming flight budget; only the timer bounds them.
func (c *Client) roundTripUDP(ctx context.Context, req Frame) (Frame, bool, error) {
	if c.udpStale {
		c.udpStale = false
		c.drainUDP()
	}
	var overall time.Time // zero: no overall deadline
	if d, ok := ctx.Deadline(); ok {
		overall = d
	}
	var t0 time.Time
	if c.metrics != nil {
		t0 = time.Now()
	}
	sent := false
	fail := func(err error) (Frame, bool, error) {
		// Flights that went out unanswered may still draw replies after we
		// give up; sweep them before the next request touches the socket.
		if sent {
			c.udpStale = true
		}
		if c.metrics != nil {
			c.metrics.observe(req, Frame{}, 0, err)
		}
		return Frame{}, sent, err
	}
	for flight := 1; flight <= c.udp.MaxFlights; flight++ {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		if flight > 1 && c.metrics != nil {
			c.metrics.Retransmits.Inc()
		}
		if err := c.writeFrame(req); err != nil {
			// A datagram send fails only locally (closed socket, bad
			// address); on-path loss is silent and handled by the timer.
			return fail(fmt.Errorf("resv: send %s: %w", req.Type, err))
		}
		sent = true
		rto := time.Now().Add(c.udp.Timeout)
		if !overall.IsZero() && overall.Before(rto) {
			rto = overall
		}
		if err := c.nc.SetReadDeadline(rto); err != nil {
			return fail(fmt.Errorf("resv: set deadline: %w", err))
		}
		for {
			reply, err := c.readDatagram()
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					break // flight expired; retransmit
				}
				return fail(fmt.Errorf("resv: awaiting reply to %s: %w", req.Type, err))
			}
			if !udpReplyMatches(req, reply) {
				continue
			}
			// A teardown answered "unknown flow" after a retransmit means an
			// earlier flight tore the flow down and its reply was lost — the
			// operation succeeded, so synthesize the confirmation.
			if flight > 1 && req.Type == MsgTeardown && reply.Type == MsgError &&
				ErrorCode(reply.Value) == ErrCodeUnknownFlow {
				reply = Frame{Type: MsgTeardownOK, FlowID: req.FlowID}
			}
			if flight > 1 {
				// A retransmit means up to flight replies are on the wire
				// and we consumed one. If the reply was late rather than
				// lost, the extras will land in the socket buffer, where a
				// later re-request of the same flow ID could mistake one —
				// a stale DENY, say — for its own answer.
				c.udpStale = true
			}
			if c.metrics != nil {
				c.metrics.Flights.Record(uint64(flight))
				c.metrics.observe(req, reply, time.Since(t0), nil)
			}
			return reply, true, nil
		}
	}
	return fail(fmt.Errorf("resv: %s flow %d: no reply after %d flights of %v",
		req.Type, req.FlowID, c.udp.MaxFlights, c.udp.Timeout))
}

// readDatagram reads one datagram into the scratch buffer and decodes it.
// Unlike readFrame it never spans reads: a runt or oversized datagram is a
// decode error for that packet alone, not a framing desync. Caller holds
// c.mu.
func (c *Client) readDatagram() (Frame, error) {
	n, err := c.nc.Read(c.rbuf[:])
	if err != nil {
		return Frame{}, err
	}
	f, err := DecodeDatagram(c.rbuf[:n])
	if err != nil {
		// Treat garbage like a non-matching reply: report a frame that
		// matches nothing so the caller keeps waiting out the flight.
		return Frame{}, nil
	}
	return f, nil
}

// drainUDP sweeps leftover replies from an earlier round trip out of the
// socket. Everything read here predates the next request, so discarding it
// is always correct; keeping it could alias a later exchange for the same
// flow ID. The window is a fraction of the flight timeout: long enough on
// any path for a trailing duplicate to land, short enough that the cost is
// only paid after the rare round trip that retransmitted or gave up.
// Caller holds c.mu.
func (c *Client) drainUDP() {
	window := c.udp.Timeout / 2
	if window < time.Millisecond {
		window = time.Millisecond
	}
	if err := c.nc.SetReadDeadline(time.Now().Add(window)); err != nil {
		return
	}
	for {
		if _, err := c.nc.Read(c.rbuf[:]); err != nil {
			return
		}
	}
}

// udpReplyMatches reports whether reply can answer req: right flow, and a
// type the request could elicit. Anything else is a stale duplicate from an
// earlier exchange. (A stale MsgError for the same flow is indistinguishable
// from a fresh one and may be matched; errors carry no sequence numbers in
// the 20-byte frame.)
func udpReplyMatches(req, reply Frame) bool {
	switch req.Type {
	case MsgRequest:
		return reply.FlowID == req.FlowID &&
			(reply.Type == MsgGrant || reply.Type == MsgDeny || reply.Type == MsgError)
	case MsgTeardown:
		return reply.FlowID == req.FlowID &&
			(reply.Type == MsgTeardownOK || reply.Type == MsgError)
	case MsgRefresh:
		return reply.FlowID == req.FlowID &&
			(reply.Type == MsgRefreshOK || reply.Type == MsgError)
	case MsgStats:
		return reply.Type == MsgStatsReply
	default:
		return true
	}
}

// ReserveBatch ships up to MaxBatch reservation ops — MsgRequest and
// MsgTeardown frames, processed by the server strictly in order — as one
// multi-reserve frame sequence and one reply: a single round trip where N
// single ops would pay N. Bit i of the verdict reports op i (granted /
// torn down); share is the server's count-mode worst-case share, 0 in
// bandwidth mode. Stream transports only: the datagram transport has no
// retransmit story for partially-applied batches, so it refuses.
func (c *Client) ReserveBatch(ctx context.Context, ops []Frame) (BatchVerdict, float64, error) {
	if err := checkBatchLen(len(ops)); err != nil {
		return 0, 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.udp != nil {
		return 0, 0, fmt.Errorf("resv: batched reserve needs a stream transport")
	}
	deadline, _ := ctx.Deadline()
	if err := c.nc.SetDeadline(deadline); err != nil {
		return 0, 0, fmt.Errorf("resv: set deadline: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	var t0 time.Time
	if c.metrics != nil {
		t0 = time.Now()
	}
	if c.bbuf == nil {
		c.bbuf = make([]byte, 0, (MaxBatch+1)*FrameSize)
	}
	buf := AppendFrame(c.bbuf[:0], BatchHeader(len(ops)))
	for _, f := range ops {
		buf = AppendFrame(buf, f)
	}
	c.bbuf = buf[:0]
	fail := func(err error) (BatchVerdict, float64, error) {
		if c.metrics != nil {
			c.metrics.observeBatch(ops, 0, 0, err)
		}
		return 0, 0, err
	}
	if _, err := c.nc.Write(buf); err != nil {
		return fail(fmt.Errorf("resv: send batch: %w", err))
	}
	reply, err := c.readFrame()
	if err != nil {
		return fail(fmt.Errorf("resv: awaiting batch reply: %w", err))
	}
	v, share, err := batchReply(reply)
	if err != nil {
		return fail(err)
	}
	if c.metrics != nil {
		c.metrics.observeBatch(ops, v, time.Since(t0), nil)
	}
	return v, share, nil
}

// KeepAlive refreshes flowID at the given interval until ctx is canceled
// or a refresh fails (e.g. the reservation was torn down or already
// expired). It refreshes once immediately on entry — a first refresh only
// after a full interval could miss the reservation's first TTL deadline —
// and rejects interval ≥ the server's TTL, which would guarantee expiry
// between refreshes. It blocks; run it in its own goroutine. The returned
// error is nil on context cancellation.
func (c *Client) KeepAlive(ctx context.Context, flowID uint64, interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("resv: keep-alive interval must be positive, got %v", interval)
	}
	ttl, err := c.Refresh(ctx, flowID)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return err
	}
	if ttl > 0 && interval >= ttl {
		return fmt.Errorf("resv: keep-alive interval %v must be shorter than the server TTL %v", interval, ttl)
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
			if _, err := c.Refresh(ctx, flowID); err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return err
			}
		}
	}
}

// teardownBestEffort tries to release flowID after a transport failure left
// the reservation state unknown. On a stream the reply stream may still
// hold a stale reply to the failed request, so it drains frames until the
// teardown's own reply arrives (or the deadline passes).
func (c *Client) teardownBestEffort(flowID uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.udp != nil {
		// The datagram round trip already retransmits and skips stale
		// replies; on a TTL server even total loss here only delays the
		// release until the soft state expires.
		ctx, cancel := context.WithTimeout(context.Background(), bestEffortTeardownTimeout)
		defer cancel()
		_, _, _ = c.roundTripUDP(ctx, Frame{Type: MsgTeardown, FlowID: flowID})
		return
	}
	if err := c.nc.SetDeadline(time.Now().Add(bestEffortTeardownTimeout)); err != nil {
		return
	}
	if err := c.writeFrame(Frame{Type: MsgTeardown, FlowID: flowID}); err != nil {
		return
	}
	for {
		reply, err := c.readFrame()
		if err != nil {
			return
		}
		// Skip the failed request's late reply (a grant or denial for the
		// same flow); stop at the teardown's MsgTeardownOK, or at MsgError
		// if the request never took effect server-side.
		if reply.FlowID == flowID && (reply.Type == MsgTeardownOK || reply.Type == MsgError) {
			return
		}
	}
}
