package resv

// Regression tests for the protocol/soft-state bugs fixed in the admission
// plane hardening pass. Each test fails against the pre-fix code:
//
//  1. clean client disconnects (io.EOF) were logged as connection errors;
//  2. grants reported the stale instantaneous share C/active instead of the
//     guaranteed worst-case share C/kmax;
//  3. KeepAlive waited a full interval before its first refresh (missing the
//     first TTL deadline) and accepted interval ≥ TTL; the soft-state
//     sweeper panicked on sub-4ns TTLs;
//  4. ReserveWithRetry leaked a server-side grant when the request was
//     written but the reply was lost.

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"beqos/internal/utility"
)

// captureLogs installs a log collector on s and returns a snapshot func.
func captureLogs(s *Server) func() []string {
	var mu sync.Mutex
	var lines []string
	s.Logf = func(format string, args ...interface{}) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), lines...)
	}
}

func waitActive(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.Active() != want {
		if time.Now().After(deadline) {
			t.Fatalf("active = %d, want %d", s.Active(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCleanDisconnectNotLoggedAsError(t *testing.T) {
	s := newServer(t, 2)
	logs := captureLogs(s)
	cEnd, sEnd := net.Pipe()
	go s.HandleConn(sEnd)
	c := NewClient(cEnd)
	if ok, _, err := c.Reserve(ctx(t), 1, 1); err != nil || !ok {
		t.Fatalf("reserve: %v %v", ok, err)
	}
	// Orderly close: the server's ReadFrame returns io.EOF, which must not
	// be reported as a connection error.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitActive(t, s, 0) // release runs after the logging decision
	for _, l := range logs() {
		if strings.Contains(l, "closed:") {
			t.Errorf("clean disconnect logged as error: %q", l)
		}
	}
}

func TestAbortiveDisconnectStillLogged(t *testing.T) {
	s := newServer(t, 2)
	logs := captureLogs(s)
	cEnd, sEnd := net.Pipe()
	go s.HandleConn(sEnd)
	// Half a frame then close: ReadFrame sees io.ErrUnexpectedEOF — a real
	// failure that must keep producing a log line.
	if _, err := cEnd.Write(make([]byte, FrameSize/2)); err != nil {
		t.Fatal(err)
	}
	if err := cEnd.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		var found bool
		for _, l := range logs() {
			if strings.Contains(l, "closed:") {
				found = true
			}
		}
		if found {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("truncated-frame disconnect was not logged")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGrantShareIsWorstCase(t *testing.T) {
	cases := []struct {
		name      string
		capacity  float64
		kmax      int
		wantShare float64
	}{
		{"integer capacity", 4, 4, 1},
		{"fractional capacity", 2.5, 2, 1.25},
		{"single slot", 1, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t, tc.capacity)
			if s.KMax() != tc.kmax {
				t.Fatalf("kmax = %d, want %d", s.KMax(), tc.kmax)
			}
			c := pipeClient(t, s)
			cx := ctx(t)
			// Every grant — including the first, when the flow is alone on
			// the link — reports the guaranteed worst-case share C/kmax,
			// not the stale instantaneous share C/active.
			for id := 1; id <= tc.kmax; id++ {
				ok, share, err := c.Reserve(cx, uint64(id), 1)
				if err != nil || !ok {
					t.Fatalf("reserve %d: ok=%v err=%v", id, ok, err)
				}
				if share != tc.wantShare {
					t.Errorf("flow %d: share = %v, want C/kmax = %v", id, share, tc.wantShare)
				}
			}
		})
	}
}

func TestKeepAliveRefreshesImmediately(t *testing.T) {
	const ttl = 200 * time.Millisecond
	s := newTTLServer(t, 2, ttl)
	c := pipeClient(t, s)
	cx := ctx(t)
	if ok, _, err := c.Reserve(cx, 1, 1); err != nil || !ok {
		t.Fatalf("reserve: %v %v", ok, err)
	}
	// Start the keep-alive deep into the first TTL window. Pre-fix, the
	// first refresh only fired after a full interval (~260ms from reserve),
	// past the 200ms deadline, so the reservation silently expired.
	time.Sleep(120 * time.Millisecond)
	kaCtx, cancel := context.WithCancel(cx)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- c.KeepAlive(kaCtx, 1, 140*time.Millisecond) }()
	time.Sleep(3 * ttl)
	if s.Active() != 1 {
		t.Error("reservation expired despite an active keep-alive")
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("keep-alive returned %v on cancellation", err)
	}
}

func TestKeepAliveRejectsIntervalNotBelowTTL(t *testing.T) {
	const ttl = time.Second
	s := newTTLServer(t, 2, ttl)
	c := pipeClient(t, s)
	cx := ctx(t)
	if ok, _, err := c.Reserve(cx, 1, 1); err != nil || !ok {
		t.Fatalf("reserve: %v %v", ok, err)
	}
	for _, interval := range []time.Duration{ttl, 2 * ttl} {
		if err := c.KeepAlive(cx, 1, interval); err == nil {
			t.Errorf("interval %v ≥ TTL %v should be rejected", interval, ttl)
		}
	}
	// The probe refreshes ran, so the reservation is still alive.
	if s.Active() != 1 {
		t.Error("reservation lost during interval validation")
	}
}

func TestTinyTTLDoesNotPanicSweeper(t *testing.T) {
	r, err := utility.NewRigid(1)
	if err != nil {
		t.Fatal(err)
	}
	// ttl/4 == 0 for sub-4ns TTLs; pre-fix the sweeper goroutine panicked
	// in time.NewTicker and took the process down.
	s, err := NewServerTTL(2, r, 3*time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	time.Sleep(20 * time.Millisecond)
}

// gatedProxy sits between a client and a server, forwarding request frames
// verbatim but holding all replies until the client's next request — enough
// to turn a granted reservation into a client-side timeout.
func gatedProxy(t *testing.T, s *Server) net.Conn {
	t.Helper()
	cliConn, proxyCli := net.Pipe()
	proxySrv, srvConn := net.Pipe()
	go s.HandleConn(srvConn)
	t.Cleanup(func() {
		_ = cliConn.Close()
		_ = proxyCli.Close()
		_ = proxySrv.Close()
	})
	release := make(chan struct{})
	// client → server: forward, and open the reply gate once the second
	// request (the recovery teardown) comes through.
	go func() {
		buf := make([]byte, FrameSize)
		for n := 1; ; n++ {
			if _, err := io.ReadFull(proxyCli, buf); err != nil {
				return
			}
			if n == 2 {
				close(release)
			}
			if _, err := proxySrv.Write(buf); err != nil {
				return
			}
		}
	}()
	// server → client: hold everything until released.
	go func() {
		buf := make([]byte, FrameSize)
		gated := true
		for {
			if _, err := io.ReadFull(proxySrv, buf); err != nil {
				return
			}
			if gated {
				<-release
				gated = false
			}
			if _, err := proxyCli.Write(buf); err != nil {
				return
			}
		}
	}()
	return cliConn
}

// TestReserveWithRetryReleasesLeakedGrant runs the in-doubt-grant cleanup
// over every transport: the request reaches the server (which grants it)
// but the reply never reaches the caller in time, so the call fails — and
// the shared retry loop must tear the flow down rather than leak the slot.
func TestReserveWithRetryReleasesLeakedGrant(t *testing.T) {
	type retrier interface {
		ReserveWithRetry(ctx context.Context, flowID uint64, bandwidth float64, policy RetryPolicy) (bool, float64, int, error)
	}
	cases := []struct {
		name string
		dial func(t *testing.T, s *Server) retrier
	}{
		{"client-pipe", func(t *testing.T, s *Server) retrier {
			return NewClient(gatedProxy(t, s))
		}},
		{"mux", func(t *testing.T, s *Server) retrier {
			mc := NewMuxClient(gatedProxy(t, s))
			t.Cleanup(func() { _ = mc.Close() })
			return mc
		}},
		{"client-udp", func(t *testing.T, s *Server) retrier {
			cl, fc := dialUDPTest(t, startUDPServer(t, s), fastUDP)
			// Every grant is lost on the way back; the teardown's reply
			// is not.
			fc.recvDrop = func(f Frame) bool { return f.Type == MsgGrant }
			return cl
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t, 2)
			c := tc.dial(t, s)
			short, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			ok, _, _, err := c.ReserveWithRetry(short, 7, 1, RetryPolicy{MaxAttempts: 1, Multiplier: 1})
			if ok {
				t.Fatal("reply was withheld; reservation should not appear granted")
			}
			if err == nil {
				t.Fatal("expected a transport error")
			}
			// Without the best-effort teardown for the in-doubt flow, the
			// grant leaks and the slot stays occupied forever.
			waitActive(t, s, 0)
		})
	}
}
