package cluster

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"beqos/internal/resv"
)

// rawClientConn serves n's client plane over a net.Pipe and returns the
// client end, for driving the wire framing byte by byte.
func rawClientConn(t *testing.T, n *Node) net.Conn {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go n.HandleClientConn(sEnd)
	t.Cleanup(func() { _ = cEnd.Close() })
	_ = cEnd.SetDeadline(time.Now().Add(5 * time.Second))
	return cEnd
}

func writeFrames(t *testing.T, c net.Conn, fs ...resv.Frame) {
	t.Helper()
	var buf []byte
	for _, f := range fs {
		buf = resv.AppendFrame(buf, f)
	}
	if _, err := c.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func readReply(t *testing.T, c net.Conn) resv.Frame {
	t.Helper()
	f, err := resv.ReadFrame(c)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	return f
}

// TestClientPlaneBatchFraming drives the client plane's malformed-batch
// paths: an illegal header length and a body broken off by a non-op frame
// are each answered with one bad-request error and counted once in
// cluster_errors_total; the broken body's collected prefix is dropped
// un-admitted and its offending frame served on its own terms.
func TestClientPlaneBatchFraming(t *testing.T) {
	cl := startCluster(t, singleSpec, Config{})
	n := cl.Node(0)
	c := rawClientConn(t, n)
	errs := n.Metrics().Errors

	for _, length := range []uint64{0, resv.MaxBatch + 1} {
		before := errs.Load()
		writeFrames(t, c, resv.Frame{Type: resv.MsgReserveBatch, FlowID: length})
		if f := readReply(t, c); f.Type != resv.MsgError || resv.ErrorCode(f.Value) != resv.ErrCodeBadRequest {
			t.Fatalf("batch length %d: reply %+v, want a bad-request error", length, f)
		}
		if d := errs.Load() - before; d != 1 {
			t.Fatalf("batch length %d: cluster_errors_total moved by %d, want 1", length, d)
		}
	}

	before := errs.Load()
	writeFrames(t, c, resv.BatchHeader(3),
		resv.Frame{Type: resv.MsgRequest, FlowID: 1, Value: 1},
		resv.Frame{Type: resv.MsgStats})
	if f := readReply(t, c); f.Type != resv.MsgError || resv.ErrorCode(f.Value) != resv.ErrCodeBadRequest {
		t.Fatalf("broken batch body: reply %+v, want a bad-request error", f)
	}
	if f := readReply(t, c); f.Type != resv.MsgStatsReply {
		t.Fatalf("frame after the broken body: reply %+v, want %s", f, resv.MsgStatsReply)
	}
	if d := errs.Load() - before; d != 1 {
		t.Fatalf("broken batch body: cluster_errors_total moved by %d, want 1", d)
	}
	if a := n.LinkActive(0); a != 0 {
		t.Fatalf("link holds %d claims after a broken batch, want the prefix dropped un-admitted", a)
	}
}

// TestClientPlaneBatchBodySpansReads splits a batch body across two
// writes: the client plane must hold the partial body across the read
// boundary and answer the completed batch with one verdict.
func TestClientPlaneBatchBodySpansReads(t *testing.T) {
	cl := startCluster(t, singleSpec, Config{})
	n := cl.Node(0)
	c := rawClientConn(t, n)

	writeFrames(t, c, resv.BatchHeader(2), resv.Frame{Type: resv.MsgRequest, FlowID: 1, Value: 1})
	// The body is incomplete: give a mis-replying loop time to answer.
	time.Sleep(10 * time.Millisecond)
	writeFrames(t, c, resv.Frame{Type: resv.MsgRequest, FlowID: 2, Value: 1})
	f := readReply(t, c)
	if f.Type != resv.MsgReserveBatchReply {
		t.Fatalf("reply %+v, want %s", f, resv.MsgReserveBatchReply)
	}
	if v := resv.BatchVerdict(f.FlowID); v.Count() != 2 {
		t.Fatalf("verdict %02b, want both ops granted", f.FlowID)
	}
	if a := n.LinkActive(0); a != 2 {
		t.Fatalf("link holds %d claims, want 2", a)
	}
}

// failWriteConn is a stream connection whose every write fails.
type failWriteConn struct{ net.Conn }

func (failWriteConn) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }

// TestClientPlaneWriteFailure checks that a reply write the node cannot
// complete is logged through Node.Logf, ends the connection, and still
// records the read's frames in cluster_request_ns.
func TestClientPlaneWriteFailure(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	cl := startCluster(t, singleSpec, Config{Logf: func(format string, args ...interface{}) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	n := cl.Node(0)
	before := n.Metrics().RequestNS.Snapshot().Count

	cEnd, sEnd := net.Pipe()
	defer cEnd.Close()
	done := make(chan struct{})
	go func() {
		n.HandleClientConn(failWriteConn{sEnd})
		close(done)
	}()
	_ = cEnd.SetDeadline(time.Now().Add(5 * time.Second))
	writeFrames(t, cEnd, resv.Frame{Type: resv.MsgStats}, resv.Frame{Type: resv.MsgStats})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("connection kept serving after a failed write")
	}
	if d := n.Metrics().RequestNS.Snapshot().Count - before; d != 2 {
		t.Fatalf("cluster_request_ns recorded %d frames, want the read's 2", d)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range logs {
		if strings.Contains(l, "write to") && strings.Contains(l, "injected write failure") {
			return
		}
	}
	t.Fatalf("no failed-write log line among %q", logs)
}
