package resv

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// failWriteConn is a stream connection whose every write fails, so the
// frame loop's first flush is its last.
type failWriteConn struct{ net.Conn }

func (failWriteConn) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }

// recordingHandler is a FrameHandler that answers every frame with itself,
// answers a batch with flood (enough reply bytes to force a mid-read
// flush), and records the per-read hook and log calls.
type recordingHandler struct {
	flood int

	mu     sync.Mutex
	served int
	reads  [][2]int // (frames, framingErrs) per EndRead
	logs   []string
}

func (h *recordingHandler) BeginRead(time.Time) {}

func (h *recordingHandler) ServeFrame(f Frame) Frame {
	h.mu.Lock()
	h.served++
	h.mu.Unlock()
	return f
}

func (h *recordingHandler) ServeBatch(ops []Frame, wbuf []byte) []byte {
	for i := 0; i < h.flood; i++ {
		wbuf = AppendFrame(wbuf, Frame{Type: MsgReserveBatchReply})
	}
	return wbuf
}

func (h *recordingHandler) EndRead(frames, framingErrs int, elapsed time.Duration) {
	h.mu.Lock()
	h.reads = append(h.reads, [2]int{frames, framingErrs})
	h.mu.Unlock()
}

func (h *recordingHandler) Logf(format string, args ...interface{}) {
	h.mu.Lock()
	h.logs = append(h.logs, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

// TestServeFramesMidReadWriteFailure pins the loop's failure accounting: a
// reply write that fails part-way through a read still closes that read
// out through EndRead — every decoded frame counted, the framing error
// included — and is logged, and the loop stops serving.
func TestServeFramesMidReadWriteFailure(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	defer cEnd.Close()
	h := &recordingHandler{flood: writeFlushThreshold/FrameSize + 1}
	done := make(chan struct{})
	go func() {
		ServeFrames(failWriteConn{sEnd}, h)
		close(done)
	}()
	// One write, one read: an illegal batch header, a one-op batch whose
	// reply floods the buffer past the flush threshold, and a stats frame
	// the loop never reaches.
	buf := AppendFrame(nil, Frame{Type: MsgReserveBatch, FlowID: 0})
	buf = AppendFrame(buf, BatchHeader(1))
	buf = AppendFrame(buf, Frame{Type: MsgRequest, FlowID: 1, Value: 1})
	buf = AppendFrame(buf, Frame{Type: MsgStats})
	_ = cEnd.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := cEnd.Write(buf); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("loop kept serving after a failed write")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.reads) != 1 || h.reads[0] != [2]int{4, 1} {
		t.Fatalf("EndRead calls %v, want one read of 4 frames with 1 framing error", h.reads)
	}
	if h.served != 0 {
		t.Fatalf("served %d single frames past the failed flush, want 0", h.served)
	}
	if len(h.logs) != 1 || !strings.Contains(h.logs[0], "write to") || !strings.Contains(h.logs[0], "injected write failure") {
		t.Fatalf("logs %q, want one failed-write line", h.logs)
	}
}

// TestServeFramesLocalPipeCloseNotLogged: closing the server's own end of
// an in-process pipe (how the in-process cluster shuts its peer links
// down) is an orderly local close, like net.ErrClosed on a socket, and
// must not be logged as an abnormal "closed:" event.
func TestServeFramesLocalPipeCloseNotLogged(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	defer cEnd.Close()
	h := &recordingHandler{}
	done := make(chan struct{})
	go func() {
		ServeFrames(sEnd, h)
		close(done)
	}()
	if err := sEnd.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("loop kept serving a closed pipe")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, l := range h.logs {
		if strings.Contains(l, "closed:") {
			t.Fatalf("local pipe close logged as abnormal: %q", l)
		}
	}
}
