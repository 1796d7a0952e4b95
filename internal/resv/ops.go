package resv

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"
)

// transport is one client transport's single-frame exchange — stream and
// datagram for Client, multiplexed for MuxClient. The reservation ops in
// clientOps are written once over it.
type transport interface {
	// roundTrip sends req and returns its reply. sent reports whether the
	// request may have reached the server: when it did and err is non-nil,
	// the server may have acted on it although no reply came back.
	roundTrip(ctx context.Context, req Frame) (reply Frame, sent bool, err error)
	// teardownBestEffort releases flowID after a failed reserve that may
	// have been granted unseen. Errors are swallowed: the connection is
	// already suspect, and closing it remains the backstop that releases
	// everything.
	teardownBestEffort(flowID uint64)
}

// clientOps is the reservation op layer Client and MuxClient share by
// embedding: request framing and reply decoding for every single-frame op,
// plus the retry loop. Only the round trip differs per transport.
type clientOps struct {
	t transport
	// metrics, if non-nil, observes every round trip (atomics-only; a set
	// may be shared across clients). Install with SetMetrics before use.
	metrics *ClientMetrics
}

// SetMetrics installs a client instrument set (see NewClientMetrics); nil
// disables instrumentation. Not safe to call concurrently with requests.
func (o *clientOps) SetMetrics(m *ClientMetrics) { o.metrics = m }

// Reserve requests a reservation for flowID with the given bandwidth
// demand. It reports whether the reservation was granted, and the granted
// share when it was. Reservations live until torn down, expired by the
// server's TTL, or the client's connection closes.
func (o *clientOps) Reserve(ctx context.Context, flowID uint64, bandwidth float64) (granted bool, share float64, err error) {
	granted, share, _, err = o.reserve(ctx, flowID, bandwidth, 0)
	return granted, share, err
}

// ReserveClass is Reserve with an admission class (policy.ClassStandard /
// ClassCritical / ClassSheddable), carried in the request frame's class
// bits. Class 0 requests are byte-identical to Reserve; class-unaware
// servers (and policies) ignore the bits.
func (o *clientOps) ReserveClass(ctx context.Context, flowID uint64, bandwidth float64, class uint8) (granted bool, share float64, err error) {
	granted, share, _, err = o.reserve(ctx, flowID, bandwidth, class)
	return granted, share, err
}

// reserve is ReserveClass plus the transport's sent indicator: when the
// request may have reached the server but the reply was lost, the server
// may hold a grant the caller never saw.
func (o *clientOps) reserve(ctx context.Context, flowID uint64, bandwidth float64, class uint8) (granted bool, share float64, sent bool, err error) {
	reply, sent, err := o.t.roundTrip(ctx, Frame{Type: MsgRequest, Class: class, FlowID: flowID, Value: bandwidth})
	if err != nil {
		return false, 0, sent, err
	}
	switch reply.Type {
	case MsgGrant:
		return true, reply.Value, true, nil
	case MsgDeny:
		return false, 0, true, nil
	}
	return false, 0, true, replyError("reserve", flowID, reply)
}

// Teardown releases flowID's reservation.
func (o *clientOps) Teardown(ctx context.Context, flowID uint64) error {
	reply, _, err := o.t.roundTrip(ctx, Frame{Type: MsgTeardown, FlowID: flowID})
	if err != nil {
		return err
	}
	if reply.Type == MsgTeardownOK {
		return nil
	}
	return replyError("teardown", flowID, reply)
}

// Refresh renews flowID's soft-state deadline on a TTL server. It returns
// the server's TTL (0 when the server never expires reservations).
func (o *clientOps) Refresh(ctx context.Context, flowID uint64) (ttl time.Duration, err error) {
	reply, _, err := o.t.roundTrip(ctx, Frame{Type: MsgRefresh, FlowID: flowID})
	if err != nil {
		return 0, err
	}
	if reply.Type == MsgRefreshOK {
		return time.Duration(reply.Value * float64(time.Second)), nil
	}
	return 0, replyError("refresh", flowID, reply)
}

// Stats returns the server's admission threshold and active reservation
// count.
func (o *clientOps) Stats(ctx context.Context) (kmax, active int, err error) {
	reply, _, err := o.t.roundTrip(ctx, Frame{Type: MsgStats})
	if err != nil {
		return 0, 0, err
	}
	return statsFromReply(reply)
}

// replyError reports a flow-scoped op's reply that is not its success
// type: a server error code, or a frame the op cannot elicit.
func replyError(op string, flowID uint64, reply Frame) error {
	if reply.Type == MsgError {
		return fmt.Errorf("resv: %s flow %d: server error code %d", op, flowID, uint64(reply.Value))
	}
	return fmt.Errorf("resv: %s flow %d: unexpected %s reply", op, flowID, reply.Type)
}

// checkBatchLen rejects a ReserveBatch body outside 1..MaxBatch ops.
func checkBatchLen(n int) error {
	if n < 1 || n > MaxBatch {
		return fmt.Errorf("resv: batch of %d ops (want 1..%d)", n, MaxBatch)
	}
	return nil
}

// batchReply unpacks a ReserveBatch reply: the per-op verdict bitmap and
// the count-mode grant share.
func batchReply(reply Frame) (BatchVerdict, float64, error) {
	if reply.Type != MsgReserveBatchReply {
		return 0, 0, fmt.Errorf("resv: batch reserve: unexpected %s reply", reply.Type)
	}
	return BatchVerdict(reply.FlowID), reply.Value, nil
}

// RetryPolicy governs ReserveWithRetry, mirroring the paper's §5.2
// retrying extension: a denied request waits and tries again, at a utility
// cost per retry that the caller accounts separately.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts (≥ 1).
	MaxAttempts int
	// BaseDelay is the wait before the first retry.
	BaseDelay time.Duration
	// Multiplier scales the delay after each attempt (≥ 1).
	Multiplier float64
	// Jitter, in [0, 1], randomizes each delay by ±Jitter·delay to avoid
	// synchronized retry storms. 0 means no jitter.
	Jitter float64
	// Rand, if non-nil, supplies the jitter draws (uniform in [0, 1)), so
	// harnesses can seed the backoff sequence and reproduce a run exactly;
	// nil falls back to the process-global generator. Ignored when Jitter
	// is 0.
	Rand func() float64
}

// jittered randomizes one backoff delay by ±Jitter·d, drawing from the
// policy's injected generator or the process-global one.
func (p RetryPolicy) jittered(d time.Duration) time.Duration {
	if p.Jitter <= 0 || d <= 0 {
		return d
	}
	r := p.Rand
	if r == nil {
		r = rand.Float64
	}
	return time.Duration(float64(d) * (1 + p.Jitter*(2*r()-1)))
}

// Validate checks the policy.
func (p RetryPolicy) Validate() error {
	if p.MaxAttempts < 1 {
		return fmt.Errorf("resv: retry policy needs MaxAttempts ≥ 1, got %d", p.MaxAttempts)
	}
	if p.BaseDelay < 0 || p.Multiplier < 1 || p.Jitter < 0 || p.Jitter > 1 {
		return fmt.Errorf("resv: invalid retry policy {MaxAttempts:%d BaseDelay:%v Multiplier:%g Jitter:%g}",
			p.MaxAttempts, p.BaseDelay, p.Multiplier, p.Jitter)
	}
	return nil
}

// bestEffortTeardownTimeout bounds how long a post-failure cleanup may
// occupy the connection.
const bestEffortTeardownTimeout = time.Second

// ReserveWithRetry requests a reservation, retrying denials per the policy
// until granted, the attempts are exhausted, or the context expires. It
// returns the granted share and the number of retries performed (0 when
// the first attempt succeeded). When all attempts are denied it returns
// granted = false with a nil error.
func (o *clientOps) ReserveWithRetry(ctx context.Context, flowID uint64, bandwidth float64, policy RetryPolicy) (granted bool, share float64, retries int, err error) {
	if err := policy.Validate(); err != nil {
		return false, 0, 0, err
	}
	delay := policy.BaseDelay
	for attempt := 1; ; attempt++ {
		ok, sh, sent, err := o.reserve(ctx, flowID, bandwidth, 0)
		if err != nil {
			if sent {
				// The request may have reached the server but its reply did
				// not come back (timeout, connection drop). The server may
				// hold the grant while we report failure — release it rather
				// than leak a reservation nobody will use or tear down.
				o.t.teardownBestEffort(flowID)
			}
			return false, 0, attempt - 1, err
		}
		if ok {
			return true, sh, attempt - 1, nil
		}
		if attempt >= policy.MaxAttempts {
			return false, 0, attempt - 1, nil
		}
		if o.metrics != nil {
			o.metrics.Retries.Inc()
		}
		d := policy.jittered(delay)
		select {
		case <-ctx.Done():
			return false, 0, attempt - 1, ctx.Err()
		case <-time.After(d):
		}
		delay = time.Duration(float64(delay) * policy.Multiplier)
	}
}
