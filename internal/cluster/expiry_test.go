package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// expiries reads a node's cluster_expiries_total from its registry.
func expiries(t *testing.T, n *Node) uint64 {
	t.Helper()
	m, ok := n.Registry().Get("cluster_expiries_total")
	if !ok {
		t.Fatal("cluster_expiries_total not registered")
	}
	return uint64(m.Value)
}

// softStateLen counts a node's live soft state: hop claims and path flows.
func softStateLen(n *Node) int { return n.claims.Len() }

// TestTTLExpiresEachClaimOnce: unrefreshed path flows over a 2-hop path
// with one remote hop (la at the entry node a, shared at node c) expire
// on both sides, and each node counts exactly what it held — node a its
// path flows plus their la claims, node c its shared claims. Node a
// cannot reach c, so c's claims have no release path but its own TTL.
func TestTTLExpiresEachClaimOnce(t *testing.T) {
	const ttl = 150 * time.Millisecond
	const flows = 5
	cl := startCluster(t, sharedSpec, Config{TTL: ttl, AntiEntropy: -1})
	topo := cl.topo
	laIdx, shIdx := topo.LinkIndex("la"), topo.LinkIndex("shared")
	a, c := cl.Node(0), cl.Node(2)

	l := a.NewLocal()
	for i := 0; i < flows; i++ {
		granted, _, err := l.Reserve(0, uint64(i), 1)
		if err != nil || !granted {
			t.Fatalf("reserve %d: granted=%v err=%v", i, granted, err)
		}
	}
	if got := c.LinkActive(shIdx); got != flows {
		t.Fatalf("shared link holds %d claims, want %d", got, flows)
	}
	toC := a.peers[2].Load()
	a.peers[2].Store(nil)
	defer a.peers[2].Store(toC)

	waitFor(t, "every claim expired", func() bool {
		return a.LinkActive(laIdx) == 0 && c.LinkActive(shIdx) == 0 &&
			expiries(t, a) >= 2*flows && expiries(t, c) >= flows
	})
	// Let any double count land before checking the totals exactly.
	time.Sleep(ttl / 2)
	if got := expiries(t, a); got != 2*flows {
		t.Errorf("entry node counted %d expiries, want %d (%d path flows + %d la claims)", got, 2*flows, flows, flows)
	}
	if got := expiries(t, c); got != flows {
		t.Errorf("owner node counted %d expiries, want %d shared claims", got, flows)
	}
	if got := expiries(t, cl.Node(1)); got != 0 {
		t.Errorf("idle node counted %d expiries", got)
	}
}

// TestReleaseExactlyOnceUnderRace races every release path on the same
// claims: client teardowns and handle closes at the entry nodes, TTL
// expiry on both sides, and a drop of the owner's inbound peer
// connections mid-run. No link's policy may ever count below zero, and
// after quiescence plus the TTL every link is empty and no node holds any
// soft state.
func TestReleaseExactlyOnceUnderRace(t *testing.T) {
	const ttl = 30 * time.Millisecond
	cl := startCluster(t, sharedSpec, Config{TTL: ttl, AntiEntropy: -1})
	topo := cl.topo
	type ownedLink struct{ node, idx int }
	links := []ownedLink{{0, topo.LinkIndex("la")}, {1, topo.LinkIndex("lb")}, {2, topo.LinkIndex("shared")}}

	stop := make(chan struct{})
	var lowest atomic.Int64
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ol := range links {
				if a := cl.Node(ol.node).LinkActive(ol.idx); a < lowest.Load() {
					lowest.Store(a)
				}
			}
		}
	}()

	const workers = 4
	var wg sync.WaitGroup
	var handles []*Local
	end := time.Now().Add(4 * ttl)
	for entry := 0; entry < 2; entry++ {
		for w := 0; w < workers; w++ {
			l := cl.Node(entry).NewLocal()
			handles = append(handles, l)
			wg.Add(1)
			go func(l *Local, pair, w int) {
				defer wg.Done()
				for i := 0; time.Now().Before(end); i++ {
					seq := uint64(w)<<32 | uint64(i)
					granted, _, err := l.Reserve(pair, seq, 1)
					if err != nil {
						t.Errorf("reserve: %v", err)
						return
					}
					switch {
					case !granted:
					case i%3 == 0:
						_ = l.Teardown(pair, seq) // may lose to the TTL
					case i%3 == 1:
						time.Sleep(ttl)
						_ = l.Teardown(pair, seq)
					}
					// i%3 == 2: left to expire, or to the handle's close.
					time.Sleep(ttl / 16)
				}
				if w%2 == 0 {
					l.Close()
				}
			}(l, entry, w)
		}
	}
	// Drop the shared link owner's inbound peer connections mid-run.
	time.Sleep(2 * ttl)
	owner := cl.Node(2)
	owner.imu.Lock()
	for nc := range owner.inbound {
		_ = nc.Close()
	}
	owner.imu.Unlock()
	wg.Wait()

	waitFor(t, "every link drained and no soft state left", func() bool {
		if lowest.Load() < 0 {
			return true // reported below
		}
		for _, ol := range links {
			if cl.Node(ol.node).LinkActive(ol.idx) != 0 {
				return false
			}
		}
		for i := 0; i < cl.Len(); i++ {
			if softStateLen(cl.Node(i)) != 0 {
				return false
			}
		}
		return true
	})
	close(stop)
	watch.Wait()
	if low := lowest.Load(); low < 0 {
		t.Fatalf("a link's active count fell to %d: some claim was released twice", low)
	}
	for _, l := range handles {
		l.c.mu.Lock()
		left := len(l.c.flows)
		l.c.mu.Unlock()
		if left != 0 {
			t.Errorf("a client handle still maps %d path flows after expiry", left)
		}
	}
}
