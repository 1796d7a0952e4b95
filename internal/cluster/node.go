package cluster

import (
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"beqos/internal/obs"
	"beqos/internal/policy"
	"beqos/internal/resv"
)

// Node is one member of a beqos cluster: it owns the admission policies of
// its links, serves the resv wire protocol on two planes — a client plane
// (path reservations, FlowID = pairIdx<<48 | seq) and a peer plane (link
// hops from other nodes, FlowID = linkIdx<<48 | hopKey) — and gossips its
// links' occupancy so every other node can route against it.
//
// The hot paths are allocation-free at steady state: a local admission is
// a policy CAS plus a free-listed entry in the node's soft-state table, and
// a forwarded hop rides the mux transport's pooled call slots and vectored
// writes.
type Node struct {
	idx  int
	name string
	topo *Topology

	ttl        time.Duration
	staleNanos int64
	routerMode RouterMode
	hopDelay   time.Duration
	epoch      time.Time

	// links are the locally-owned links; byGlobal maps a global link index
	// to its local state (nil for links other nodes own). bounds holds
	// every link's admission bound — local and remote — since topology and
	// utility are cluster-wide knowledge; kmaxSum is their sum, the
	// cluster-wide Stats threshold.
	links    []*linkState
	byGlobal []*linkState
	bounds   []int
	kmaxSum  int

	// claims is the node's soft state (resv.Table): every hop claim on a
	// local link, keyed by wire ID (linkIdx<<48 | hopKey) and released to
	// that link's policy, plus every granted entry-side path flow, keyed
	// pathBase | hopKey. pathBase carries a link index this node owns no
	// link at, so no hop claim can take a path flow's key, and its policy
	// slot is nil: a path flow's claims are the ones on its hops.
	claims   *resv.Table
	pathBase uint64

	// peers[j] is the outbound transport to node j (nil for self, and
	// until the cluster wires it — late-joining nodes appear when their
	// pointer lands).
	peers []atomic.Pointer[peer]
	view  *view
	// own[g] counts the claims THIS node's entry plane currently holds on
	// remote link g. It is a lower bound on g's true occupancy that no
	// gossip lag can stale, so the router folds it into the load estimate —
	// without it, a burst of placements from one entry node herds onto
	// whichever path the last gossip round said was empty.
	own []atomic.Int64

	// hopSeq mints hop keys: idx<<40 | seq identifies one path admission
	// on every link it claims, unique across concurrently-placing entry
	// nodes. gossipSeq versions this node's occupancy snapshots.
	hopSeq    atomic.Uint64
	gossipSeq atomic.Uint64

	reg     *obs.Registry
	metrics *nodeMetrics

	ctx      context.Context
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	imu     sync.Mutex
	inbound map[net.Conn]struct{}

	// Logf, if non-nil, receives one line per notable event (rollbacks,
	// forward errors, expiries). Set before serving.
	Logf func(format string, args ...interface{})
}

// peer is the outbound state toward one other node: the mux transport hops
// ride, the coalescer that batches them into multi-reserve frames, and the
// piggyback dedup — the last active count gossiped per local link, so
// forwarding traffic re-advertises a link only when its occupancy actually
// moved.
type peer struct {
	mc       *resv.MuxClient
	co       *coalescer
	lastSent []atomic.Int64
}

// pathFlow is one path reservation at its entry node. A granted flow is
// also an entry in the node's claim table (ref = the pathFlow), which
// expires it; removing that entry is the exactly-once gate for releasing
// the flow's hops, so whoever removes it — teardown, connection drop or
// expiry — also unlinks and recycles the pathFlow.
type pathFlow struct {
	c      *cconn
	id     uint64 // client-facing FlowID (pairIdx<<48 | seq)
	hopKey uint64 // the 48-bit key claimed on every link of the path
	path   int32  // topology path index
	// pending marks an admission still claiming its hops; only the
	// admitting goroutine may touch a pending flow, and it is not in the
	// claim table.
	pending bool
	next    *pathFlow
}

// cconn is one client connection's (or Local handle's) path flows: its
// own FlowID namespace.
type cconn struct {
	mu     sync.Mutex
	closed bool
	flows  map[uint64]*pathFlow
	free   *pathFlow
}

func newCConn() *cconn {
	return &cconn{flows: make(map[uint64]*pathFlow)}
}

// get pops a recycled pathFlow (or makes one). Caller holds c.mu.
func (c *cconn) get() *pathFlow {
	pf := c.free
	if pf != nil {
		c.free = pf.next
		pf.next = nil
	} else {
		pf = new(pathFlow)
	}
	pf.c = c
	return pf
}

// put recycles a pathFlow. Caller holds c.mu.
func (c *cconn) put(pf *pathFlow) {
	*pf = pathFlow{next: c.free}
	c.free = pf
}

// nodeMetrics is a node's instrument set (registered as cluster_*).
type nodeMetrics struct {
	PathRequests  *obs.Counter
	PathGrants    *obs.Counter
	PathDenies    *obs.Counter
	PathTeardowns *obs.Counter
	Rollbacks     *obs.Counter
	Forwards      *obs.Counter
	ForwardErrors *obs.Counter
	GossipIn      *obs.Counter
	GossipOut     *obs.Counter
	// GossipSuppressed counts anti-entropy snapshots skipped because the
	// peer already holds the link's current occupancy — delta suppression.
	GossipSuppressed *obs.Counter
	Expiries         *obs.Counter
	RouteFallback    *obs.Counter
	RouteAlt         *obs.Counter
	Errors           *obs.Counter
	HopNS            *obs.Histogram
	RequestNS        *obs.Histogram
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	return &nodeMetrics{
		PathRequests:     reg.Counter("cluster_path_requests_total", "path reservation requests handled at this entry node"),
		PathGrants:       reg.Counter("cluster_path_grants_total", "path reservations granted end to end"),
		PathDenies:       reg.Counter("cluster_path_denies_total", "path reservations denied by some link"),
		PathTeardowns:    reg.Counter("cluster_path_teardowns_total", "path reservations torn down by their client"),
		Rollbacks:        reg.Counter("cluster_rollbacks_total", "denied paths whose upstream claims were rolled back"),
		Forwards:         reg.Counter("cluster_forwards_total", "link hops forwarded to peer nodes"),
		ForwardErrors:    reg.Counter("cluster_forward_errors_total", "forwarded hops failed by transport errors (unreachable peers)"),
		GossipIn:         reg.Counter("cluster_gossip_in_total", "occupancy snapshots received"),
		GossipOut:        reg.Counter("cluster_gossip_out_total", "occupancy snapshots sent (piggybacked + anti-entropy)"),
		GossipSuppressed: reg.Counter("cluster_gossip_suppressed_total", "anti-entropy snapshots suppressed (peer already current)"),
		Expiries:         reg.Counter("cluster_expiries_total", "claims and path flows expired by the TTL backstop"),
		RouteFallback:    reg.Counter("cluster_route_fallback_total", "two-choice placements degraded to consistent hash on stale load signals"),
		RouteAlt:         reg.Counter("cluster_route_alternate_total", "two-choice placements that picked the less-loaded alternate over the hash anchor"),
		Errors:           reg.Counter("cluster_errors_total", "protocol errors answered"),
		HopNS:            reg.Histogram("cluster_hop_ns", "per-hop forward round-trip latency, nanoseconds"),
		RequestNS:        reg.Histogram("cluster_request_ns", "per-request service latency, nanoseconds (batch-amortized)"),
	}
}

// newNode builds a node over the shared topology. bounds must hold every
// link's admission bound (the cluster computes them once from the utility
// function).
func newNode(idx int, topo *Topology, bounds []int, ttl time.Duration, router RouterMode, stale, hopDelay time.Duration) (*Node, error) {
	n := &Node{
		idx:        idx,
		name:       topo.Nodes[idx],
		topo:       topo,
		ttl:        ttl,
		staleNanos: int64(stale),
		routerMode: router,
		hopDelay:   hopDelay,
		epoch:      time.Now(),
		byGlobal:   make([]*linkState, len(topo.Links)),
		bounds:     bounds,
		peers:      make([]atomic.Pointer[peer], len(topo.Nodes)),
		view:       newView(len(topo.Links)),
		own:        make([]atomic.Int64, len(topo.Links)),
		reg:        obs.New(),
		ctx:        context.Background(),
		stop:       make(chan struct{}),
		inbound:    make(map[net.Conn]struct{}),
	}
	for gi := range topo.Links {
		l := &topo.Links[gi]
		if l.Owner != idx {
			continue
		}
		ls, err := newLinkState(*l, bounds[gi])
		if err != nil {
			return nil, fmt.Errorf("cluster: node %s link %s: %w", n.name, l.ID, err)
		}
		n.links = append(n.links, ls)
		n.byGlobal[gi] = ls
		n.kmaxSum = 0 // recomputed below over all links
	}
	for _, b := range bounds {
		n.kmaxSum += b
	}
	// Path flows take the first link index this node owns nothing at.
	pi := 0
	for pi < len(n.byGlobal) && n.byGlobal[pi] != nil {
		pi++
	}
	if pi >= MaxLinks {
		return nil, fmt.Errorf("cluster: node %s owns all %d links; no link index is left to key its path flows", n.name, MaxLinks)
	}
	n.pathBase = uint64(pi) << idxShift
	pols := make([]policy.Policy, len(topo.Links)+1)
	for _, ls := range n.links {
		pols[ls.link.Index] = ls.pol
	}
	n.metrics = newNodeMetrics(n.reg)
	n.claims = resv.NewTable(ttl, pols, idxShift, n.metrics.Expiries, n.expired)
	n.reg.GaugeFunc("cluster_node_index", "this node's index in the topology", func() float64 { return float64(idx) })
	n.reg.GaugeFunc("cluster_active_total", "cluster-wide active path claims as this node sees them", func() float64 {
		return float64(n.activeSum())
	})
	for _, ls := range n.links {
		ls := ls
		id := metricName(ls.link.ID)
		n.reg.GaugeFunc("cluster_link_active_"+id, "live claims on link "+ls.link.ID, func() float64 {
			return float64(ls.pol.Active())
		})
		n.reg.GaugeFunc("cluster_link_bound_"+id, "admission bound kmax of link "+ls.link.ID, func() float64 {
			return float64(ls.bound)
		})
	}
	return n, nil
}

// metricName makes a link ID safe as a metric-name suffix.
func metricName(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, id)
}

// Name returns the node's topology name.
func (n *Node) Name() string { return n.name }

// Index returns the node's topology index.
func (n *Node) Index() int { return n.idx }

// Registry returns the node's metrics registry, for /metrics mounting.
func (n *Node) Registry() *obs.Registry { return n.reg }

// Metrics returns the node's instrument set.
func (n *Node) Metrics() *nodeMetrics { return n.metrics }

// LinkActive returns the live claim count of a locally-owned link, or -1
// when the link is owned elsewhere.
func (n *Node) LinkActive(global int) int64 {
	if global < 0 || global >= len(n.byGlobal) || n.byGlobal[global] == nil {
		return -1
	}
	return n.byGlobal[global].pol.Active()
}

// nowNanos is the node's monotonic clock.
func (n *Node) nowNanos() int64 { return int64(time.Since(n.epoch)) }

func (n *Node) logf(format string, args ...interface{}) {
	if n.Logf != nil {
		n.Logf(format, args...)
	}
}

// connectPeer installs the outbound transport to node j over an
// established connection (the other end must be served by j's
// HandlePeerConn). Safe to call while the node is serving — late joins
// become routable the moment the pointer lands.
func (n *Node) connectPeer(j int, nc net.Conn) {
	p := &peer{mc: resv.NewMuxClient(nc), lastSent: make([]atomic.Int64, len(n.links))}
	for i := range p.lastSent {
		p.lastSent[i].Store(-1)
	}
	// Occupancy snapshots piggybacked on the owner's batch replies arrive
	// outside any request/reply pairing; route them into the gossip view.
	p.mc.OnGossip(func(f resv.Frame) { n.applyGossip(f, n.nowNanos()) })
	p.co = newCoalescer(n, p.mc, n.hopDelay)
	n.wg.Add(1)
	go p.co.run(n.stop)
	n.peers[j].Store(p)
}

// start launches the node's anti-entropy gossip tick. (The claim table's
// TTL expiry runs from construction.)
func (n *Node) start(antiEntropy time.Duration) {
	if antiEntropy > 0 {
		n.wg.Add(1)
		go n.antiEntropyLoop(antiEntropy)
	}
}

// Close stops the node: background loops, outbound peer transports,
// inbound connections, and last the claim table's expiry (whose path-flow
// hook may be waiting on a peer until the transports fail). Claims its
// outbound flows held on other nodes are released by their connection
// drops; claims held on this node die with the process (or, for tests,
// with the claim table).
func (n *Node) Close() {
	n.stopOnce.Do(func() {
		close(n.stop)
		for j := range n.peers {
			if p := n.peers[j].Load(); p != nil {
				_ = p.mc.Close()
			}
		}
		n.imu.Lock()
		for nc := range n.inbound {
			_ = nc.Close()
		}
		n.imu.Unlock()
	})
	n.wg.Wait()
	n.claims.Close()
}

func (n *Node) antiEntropyLoop(interval time.Duration) {
	defer n.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
			for j := range n.peers {
				if p := n.peers[j].Load(); p != nil {
					n.gossipAll(p)
				}
			}
		}
	}
}

// gossipAll advertises local links to one peer — the anti-entropy tick. A
// link whose occupancy the peer already holds is suppressed (and counted):
// a quiet cluster's anti-entropy traffic collapses to zero frames while a
// freshly-joined peer, whose lastSent slots are all -1, still gets the
// full snapshot.
func (n *Node) gossipAll(p *peer) {
	for li, ls := range n.links {
		a := ls.pol.Active()
		if p.lastSent[li].Load() == a {
			n.metrics.GossipSuppressed.Inc()
			continue
		}
		if n.postGossip(p, ls, a) {
			p.lastSent[li].Store(a)
		}
	}
}

// piggyback advertises local links whose occupancy moved since the last
// snapshot this peer got — called on the forward path, so gossip rides the
// vectored writes request traffic already pays for.
func (n *Node) piggyback(p *peer) {
	for li, ls := range n.links {
		a := ls.pol.Active()
		if p.lastSent[li].Load() == a {
			continue
		}
		if n.postGossip(p, ls, a) {
			p.lastSent[li].Store(a)
		}
	}
}

func (n *Node) postGossip(p *peer, ls *linkState, active int64) bool {
	v := n.gossipSeq.Add(1)
	queued, err := p.mc.Post(resv.Frame{
		Type:   resv.MsgGossip,
		FlowID: uint64(ls.link.Index)<<idxShift | v&keyMask,
		Value:  float64(active),
	})
	if err != nil || !queued {
		// Not on the wire (closed transport or full send queue): leave
		// lastSent stale so the snapshot is retried, not forgotten.
		return false
	}
	n.metrics.GossipOut.Inc()
	return true
}

// applyGossip installs a received occupancy snapshot.
func (n *Node) applyGossip(f resv.Frame, now int64) {
	g := int(f.FlowID >> idxShift)
	if g >= len(n.topo.Links) || n.byGlobal[g] != nil {
		return // unknown link, or our own (the policy is the truth)
	}
	a := f.Value
	if math.IsNaN(a) || a < 0 || a > float64(maxGossipActive) || a != math.Trunc(a) {
		return
	}
	if n.view.apply(g, f.FlowID&keyMask, int64(a), now) {
		n.metrics.GossipIn.Inc()
	}
}

// maxGossipActive bounds a gossiped count to what float64 carries exactly.
const maxGossipActive = int64(1) << 53

// activeSum is the cluster-wide active claim count as this node sees it:
// its own links' policies plus the gossip view of every remote link.
func (n *Node) activeSum() int64 {
	var sum int64
	for g := range n.topo.Links {
		if ls := n.byGlobal[g]; ls != nil {
			sum += ls.pol.Active()
		} else {
			a, _ := n.view.load(g)
			sum += a
		}
	}
	return sum
}

// expired is the claim table's expiry hook. A hop claim is already back
// with its link's policy, and counted; a path flow's hops are released
// here, outside the table's locks. Hooks run after the whole expiry pass,
// so a local claim of the flow that came due in the same pass is already
// expired and its release below is a no-op.
func (n *Node) expired(id uint64, ref any) {
	pf, ok := ref.(*pathFlow)
	if !ok {
		n.logf("cluster %s: expired claim %#x on link %s", n.name, id&keyMask, n.topo.Links[id>>idxShift].ID)
		return
	}
	c := pf.c
	c.mu.Lock()
	pathIdx, hopKey := int(pf.path), pf.hopKey
	delete(c.flows, pf.id)
	c.put(pf)
	c.mu.Unlock()
	n.releaseHops(pathIdx, hopKey, len(n.topo.Paths[pathIdx].Links))
}

// ---- serving ----

// ServeClients accepts client-plane connections until ln closes. It always
// returns a non-nil error (net.ErrClosed after a clean shutdown).
func (n *Node) ServeClients(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		go n.HandleClientConn(nc)
	}
}

// HandleClientConn serves one client-plane connection: path reservations
// addressed by pair (FlowID = pairIdx<<48 | seq), stats, refreshes, and
// teardowns. Dropping the connection rolls back every path flow it holds.
func (n *Node) HandleClientConn(nc net.Conn) {
	c := newCConn()
	if !n.trackInbound(nc) {
		return
	}
	resv.ServeFrames(nc, &clientConn{nodeConn: nodeConn{n: n}, c: c})
	_ = nc.Close()
	n.untrackInbound(nc)
	n.rollbackConn(c)
}

// HandlePeerConn serves one peer-plane connection: single-link hops
// addressed by global link index (FlowID = linkIdx<<48 | hopKey) and
// gossip. Dropping the connection releases every claim it owns — a
// crashed entry node frees its downstream hops without waiting for TTL.
func (n *Node) HandlePeerConn(nc net.Conn) {
	sess := newPeerSess(len(n.links))
	if !n.trackInbound(nc) {
		return
	}
	resv.ServeFrames(nc, &peerConn{nodeConn: nodeConn{n: n}, sess: sess})
	_ = nc.Close()
	n.untrackInbound(nc)
	n.claims.Drain(&sess.own, nil)
}

// trackInbound registers an inbound connection for Close to cut. A
// handler goroutine may start after Close has cut the tracked set (the
// in-process cluster spawns its peer handlers with go); on a closed node it
// closes nc instead and reports false, so nothing is served after Close.
func (n *Node) trackInbound(nc net.Conn) bool {
	n.imu.Lock()
	defer n.imu.Unlock()
	select {
	case <-n.stop:
		_ = nc.Close()
		return false
	default:
	}
	n.inbound[nc] = struct{}{}
	return true
}

func (n *Node) untrackInbound(nc net.Conn) {
	n.imu.Lock()
	delete(n.inbound, nc)
	n.imu.Unlock()
}

// nodeConn is the per-read half of both planes' resv.FrameHandler: it
// stamps the node clock once per read (every frame of the read is served
// at that instant) and records the read's batch-amortized service time.
type nodeConn struct {
	n   *Node
	now int64
}

func (h *nodeConn) BeginRead(t0 time.Time) { h.now = int64(t0.Sub(h.n.epoch)) }

func (h *nodeConn) EndRead(frames, framingErrs int, elapsed time.Duration) {
	if framingErrs > 0 {
		h.n.metrics.Errors.Add(uint64(framingErrs))
	}
	if frames > 0 {
		h.n.metrics.RequestNS.RecordN(uint64(elapsed)/uint64(frames), uint64(frames))
	}
}

func (h *nodeConn) Logf(format string, args ...interface{}) {
	if h.n.Logf != nil {
		h.n.Logf("cluster %s: "+format, append([]interface{}{h.n.name}, args...)...)
	}
}

// clientConn serves the client plane: path reservations over one cconn.
type clientConn struct {
	nodeConn
	c *cconn
}

func (h *clientConn) ServeFrame(f resv.Frame) resv.Frame { return h.n.dispatchClient(h.c, f, h.now) }

func (h *clientConn) ServeBatch(ops []resv.Frame, wbuf []byte) []byte {
	return resv.AppendFrame(wbuf, h.n.dispatchClientBatch(h.c, ops, h.now))
}

// peerConn serves the peer plane: link hops claimed by one peer session.
// Batch replies piggyback the session's pending occupancy gossip.
type peerConn struct {
	nodeConn
	sess *peerSess
}

func (h *peerConn) ServeFrame(f resv.Frame) resv.Frame { return h.n.dispatchPeer(h.sess, f, h.now) }

func (h *peerConn) ServeBatch(ops []resv.Frame, wbuf []byte) []byte {
	wbuf = resv.AppendFrame(wbuf, h.n.dispatchPeerBatch(h.sess, ops, h.now))
	return h.n.appendReplyGossip(h.sess, wbuf)
}

// heldFlow names one released path flow's hops.
type heldFlow struct {
	path   int32
	hopKey uint64
}

// rollbackConn releases every granted path flow of a departing client
// connection. Pending flows (an admission mid-claim on another goroutine)
// are left to their admitting goroutine, which observes closed at
// finalization and rolls itself back; flows the claim table has just
// expired are left to its expiry hook.
func (n *Node) rollbackConn(c *cconn) {
	c.mu.Lock()
	c.closed = true
	flows := make([]heldFlow, 0, len(c.flows))
	for id, pf := range c.flows {
		if pf.pending || !n.claims.Remove(n.pathBase|pf.hopKey, nil) {
			continue
		}
		flows = append(flows, heldFlow{path: pf.path, hopKey: pf.hopKey})
		delete(c.flows, id)
		c.put(pf)
	}
	c.mu.Unlock()
	for _, e := range flows {
		n.releaseHops(int(e.path), e.hopKey, len(n.topo.Paths[e.path].Links))
	}
	if len(flows) > 0 {
		n.logf("cluster %s: released %d path flows from departing client", n.name, len(flows))
	}
}

// ---- client-plane dispatch ----

func (n *Node) dispatchClient(c *cconn, f resv.Frame, now int64) resv.Frame {
	switch f.Type {
	case resv.MsgRequest:
		return n.reservePath(c, f, now)
	case resv.MsgTeardown:
		return n.teardownPath(c, f)
	case resv.MsgRefresh:
		return n.refreshPath(c, f)
	case resv.MsgStats:
		return n.statsReply(f)
	case resv.MsgGossip:
		n.applyGossip(f, now)
		return resv.Frame{}
	default:
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeBadRequest)}
	}
}

// reservePath admits one flow along a pair's routed path: all links or
// none. Upstream claims are rolled back the moment any hop denies or an
// owner is unreachable, so a denied path leaves no residue anywhere.
func (n *Node) reservePath(c *cconn, f resv.Frame, now int64) resv.Frame {
	pairIdx := int(f.FlowID >> idxShift)
	if pairIdx >= len(n.topo.Pairs) || !(f.Value >= 0) || math.IsInf(f.Value, 0) {
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeBadRequest)}
	}
	n.metrics.PathRequests.Inc()
	pr := &n.topo.Pairs[pairIdx]
	pathIdx, fallback, alternate := n.route(pr, f.FlowID, now)
	if fallback {
		n.metrics.RouteFallback.Inc()
	}
	if alternate {
		n.metrics.RouteAlt.Inc()
	}

	// Install a pending placeholder first: it reserves the client flow ID
	// on this connection, and marks the hops below as owned by this
	// admission until it finalizes.
	hopKey := uint64(n.idx)<<entryShift | n.hopSeq.Add(1)&seqMask
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeBadRequest)}
	}
	if _, dup := c.flows[f.FlowID]; dup {
		c.mu.Unlock()
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeDuplicateFlow)}
	}
	pf := c.get()
	pf.id, pf.hopKey, pf.path, pf.pending = f.FlowID, hopKey, int32(pathIdx), true
	c.flows[f.FlowID] = pf
	c.mu.Unlock()

	path := &n.topo.Paths[pathIdx]
	minShare := math.MaxFloat64
	var denyLoad float64
	claimed, failed := 0, false
	for _, g := range path.Links {
		if ls := n.byGlobal[g]; ls != nil {
			dec, st := n.admit(ls, now, uint64(g)<<idxShift|hopKey, f.Value, f.Class, nil)
			if st != admitGranted {
				denyLoad, failed = dec.Load, true
				break
			}
			if dec.Share < minShare {
				minShare = dec.Share
			}
		} else {
			p := n.peers[n.topo.Links[g].Owner].Load()
			if p == nil {
				n.metrics.ForwardErrors.Inc()
				failed = true
				break
			}
			wireID := uint64(g)<<idxShift | hopKey
			t0 := n.nowNanos()
			op := p.co.enqueue(resv.Frame{Type: resv.MsgRequest, Class: f.Class, FlowID: wireID, Value: f.Value})
			if op == nil {
				n.metrics.ForwardErrors.Inc()
				failed = true
				break
			}
			op.wait()
			granted, err := op.granted, op.err
			p.co.put(op)
			n.metrics.HopNS.Record(uint64(n.nowNanos() - t0))
			n.metrics.Forwards.Inc()
			n.piggyback(p)
			if err != nil {
				n.metrics.ForwardErrors.Inc()
				n.logf("cluster %s: forward to link %s failed: %v", n.name, n.topo.Links[g].ID, err)
				failed = true
				break
			}
			if !granted {
				a, _ := n.view.load(g)
				denyLoad, failed = float64(a), true
				break
			}
			n.own[g].Add(1)
			if share := n.linkShare(g); share < minShare {
				minShare = share
			}
		}
		claimed++
	}
	if failed {
		n.releaseHops(pathIdx, hopKey, claimed)
		if claimed > 0 {
			n.metrics.Rollbacks.Inc()
		}
		c.mu.Lock()
		delete(c.flows, f.FlowID)
		c.put(pf)
		c.mu.Unlock()
		n.metrics.PathDenies.Inc()
		return resv.Frame{Type: resv.MsgDeny, FlowID: f.FlowID, Value: denyLoad}
	}
	c.mu.Lock()
	if c.closed {
		// The connection dropped while the hops were being claimed; nobody
		// else will roll this flow back.
		delete(c.flows, f.FlowID)
		c.put(pf)
		c.mu.Unlock()
		n.releaseHops(pathIdx, hopKey, len(path.Links))
		n.metrics.PathDenies.Inc()
		return resv.Frame{Type: resv.MsgDeny, FlowID: f.FlowID, Value: 0}
	}
	pf.pending = false
	n.claims.Install(n.pathBase|hopKey, nil, 0, pf)
	c.mu.Unlock()
	n.metrics.PathGrants.Inc()
	return resv.Frame{Type: resv.MsgGrant, FlowID: f.FlowID, Value: minShare}
}

// linkShare is link g's worst-case per-flow share, computed from the
// cluster-wide topology and bounds — the same C/kmax the owner's counting
// policy reports in a single-op grant, available locally so batched grants
// need no per-op share on the wire.
func (n *Node) linkShare(g int) float64 {
	return n.topo.Links[g].Capacity / float64(n.bounds[g])
}

// releaseHops releases the first upTo links of a path claimed under
// hopKey: local links through the claim table, remote links by
// best-effort teardown (an owner that already expired the claim answers
// unknown-flow, which is exactly the release-once outcome; an unreachable
// owner's TTL reaps it). Every remote link in the released prefix was
// granted, so its own-claim count comes down with it.
func (n *Node) releaseHops(pathIdx int, hopKey uint64, upTo int) {
	path := &n.topo.Paths[pathIdx]
	for i := upTo - 1; i >= 0; i-- {
		g := path.Links[i]
		if n.byGlobal[g] != nil {
			n.claims.Remove(uint64(g)<<idxShift|hopKey, nil)
			continue
		}
		n.own[g].Add(-1)
		if p := n.peers[n.topo.Links[g].Owner].Load(); p != nil {
			if op := p.co.enqueue(resv.Frame{Type: resv.MsgTeardown, FlowID: uint64(g)<<idxShift | hopKey}); op != nil {
				op.wait()
				p.co.put(op)
			}
		}
	}
}

func (n *Node) teardownPath(c *cconn, f resv.Frame) resv.Frame {
	c.mu.Lock()
	pf, ok := c.flows[f.FlowID]
	if !ok || pf.pending || !n.claims.Remove(n.pathBase|pf.hopKey, nil) {
		c.mu.Unlock()
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeUnknownFlow)}
	}
	pathIdx, hopKey := int(pf.path), pf.hopKey
	delete(c.flows, f.FlowID)
	c.put(pf)
	c.mu.Unlock()
	n.releaseHops(pathIdx, hopKey, len(n.topo.Paths[pathIdx].Links))
	n.metrics.PathTeardowns.Inc()
	return resv.Frame{Type: resv.MsgTeardownOK, FlowID: f.FlowID, Value: float64(n.activeSum())}
}

func (n *Node) refreshPath(c *cconn, f resv.Frame) resv.Frame {
	c.mu.Lock()
	pf, ok := c.flows[f.FlowID]
	if !ok || pf.pending || !n.claims.Refresh(n.pathBase|pf.hopKey, nil) {
		c.mu.Unlock()
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeUnknownFlow)}
	}
	pathIdx, hopKey := int(pf.path), pf.hopKey
	c.mu.Unlock()
	path := &n.topo.Paths[pathIdx]
	for _, g := range path.Links {
		if n.byGlobal[g] != nil {
			n.claims.Refresh(uint64(g)<<idxShift|hopKey, nil)
		} else if p := n.peers[n.topo.Links[g].Owner].Load(); p != nil {
			_, _ = p.mc.Refresh(n.ctx, uint64(g)<<idxShift|hopKey)
		}
	}
	return resv.Frame{Type: resv.MsgRefreshOK, FlowID: f.FlowID, Value: n.ttl.Seconds()}
}

// ---- client-plane batch dispatch ----

// batchOpKind classifies one op of a client-plane batch.
type batchOpKind uint8

const (
	batchSkip    batchOpKind = iota // invalid op or completed teardown: bit already decided
	batchReserve                    // a path admission in flight
)

// batchFlow is one batch op's working state: the pending path flow, the
// claimed-or-enqueued prefix of its path, and the remote rendezvous per
// hop position (nil = local hop, claimed inline).
type batchFlow struct {
	kind     batchOpKind
	failed   bool
	pf       *pathFlow
	id       uint64
	hopKey   uint64
	pathIdx  int32
	nlinks   int // length of the path prefix claimed locally or enqueued remotely
	minShare float64
	ops      [MaxPathLinks]*hopOp
}

// batchScratch is the pooled working state of dispatchClientBatch, sized
// for resv.MaxBatch ops of MaxPathLinks hops each so the steady state
// allocates nothing.
type batchScratch struct {
	flows [resv.MaxBatch]batchFlow
	waves []*hopOp // remote teardowns (client ops + rollbacks) awaiting completion
	peers [(MaxNodes + 63) / 64]uint64
}

var batchScratchPool = sync.Pool{New: func() interface{} {
	return &batchScratch{waves: make([]*hopOp, 0, resv.MaxBatch*MaxPathLinks)}
}}

// dispatchClientBatch serves one client-plane MsgReserveBatch body: every
// request op routes, installs its pending flow, claims local hops inline
// and enqueues remote hops on their owners' coalescers — so N flows
// sharing a next hop cost one batched hop RPC instead of N round trips —
// then all rendezvous complete and each flow finalizes all-or-nothing.
// Teardown ops release in place (body order is preserved per peer, so a
// teardown's freed slot is claimable by a later op in the same batch). The
// reply's verdict bit i reports op i; Value is the minimum granted
// worst-case share across the batch's granted flows.
//
// Per-flow atomicity is exactly the single-op path's: a flow whose hops
// partially grant — some links full, an owner unreachable, or the client
// connection dropping mid-batch — rolls back every hop it claimed before
// the reply ships, leaving no residue anywhere.
func (n *Node) dispatchClientBatch(c *cconn, ops []resv.Frame, now int64) resv.Frame {
	sc := batchScratchPool.Get().(*batchScratch)
	sc.waves = sc.waves[:0]
	for i := range sc.peers {
		sc.peers[i] = 0
	}
	var verdict resv.BatchVerdict
	t0 := n.nowNanos()
	nremote := 0

	// Phase 1: walk ops in order — teardowns release, requests install and
	// fan their hop claims out.
	for i := range ops {
		f := ops[i]
		bf := &sc.flows[i]
		*bf = batchFlow{}
		switch f.Type {
		case resv.MsgTeardown:
			c.mu.Lock()
			pf, ok := c.flows[f.FlowID]
			if !ok || pf.pending || !n.claims.Remove(n.pathBase|pf.hopKey, nil) {
				c.mu.Unlock()
				n.metrics.Errors.Inc()
				continue
			}
			pathIdx, hopKey := int(pf.path), pf.hopKey
			delete(c.flows, f.FlowID)
			c.put(pf)
			c.mu.Unlock()
			verdict |= 1 << uint(i)
			n.metrics.PathTeardowns.Inc()
			for _, g := range n.topo.Paths[pathIdx].Links {
				if n.byGlobal[g] != nil {
					n.claims.Remove(uint64(g)<<idxShift|hopKey, nil)
					continue
				}
				n.own[g].Add(-1)
				owner := n.topo.Links[g].Owner
				if p := n.peers[owner].Load(); p != nil {
					if op := p.co.enqueue(resv.Frame{Type: resv.MsgTeardown, FlowID: uint64(g)<<idxShift | hopKey}); op != nil {
						sc.waves = append(sc.waves, op)
						sc.peers[owner>>6] |= 1 << uint(owner&63)
						nremote++
					}
				}
			}
		case resv.MsgRequest:
			pairIdx := int(f.FlowID >> idxShift)
			if pairIdx >= len(n.topo.Pairs) || !(f.Value >= 0) || math.IsInf(f.Value, 0) {
				n.metrics.Errors.Inc()
				continue
			}
			n.metrics.PathRequests.Inc()
			pr := &n.topo.Pairs[pairIdx]
			pathIdx, fallback, alternate := n.route(pr, f.FlowID, now)
			if fallback {
				n.metrics.RouteFallback.Inc()
			}
			if alternate {
				n.metrics.RouteAlt.Inc()
			}
			hopKey := uint64(n.idx)<<entryShift | n.hopSeq.Add(1)&seqMask
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				n.metrics.Errors.Inc()
				continue
			}
			if _, dup := c.flows[f.FlowID]; dup {
				c.mu.Unlock()
				n.metrics.Errors.Inc()
				continue
			}
			pf := c.get()
			pf.id, pf.hopKey, pf.path, pf.pending = f.FlowID, hopKey, int32(pathIdx), true
			c.flows[f.FlowID] = pf
			c.mu.Unlock()
			bf.kind, bf.pf, bf.id, bf.hopKey, bf.pathIdx = batchReserve, pf, f.FlowID, hopKey, int32(pathIdx)
			bf.minShare = math.MaxFloat64
			for pos, g := range n.topo.Paths[pathIdx].Links {
				if ls := n.byGlobal[g]; ls != nil {
					dec, st := n.admit(ls, now, uint64(g)<<idxShift|hopKey, f.Value, f.Class, nil)
					if st != admitGranted {
						bf.failed = true
						break
					}
					bf.ops[pos] = nil
					bf.nlinks = pos + 1
					if dec.Share < bf.minShare {
						bf.minShare = dec.Share
					}
					continue
				}
				owner := n.topo.Links[g].Owner
				var op *hopOp
				if p := n.peers[owner].Load(); p != nil {
					op = p.co.enqueue(resv.Frame{Type: resv.MsgRequest, Class: f.Class, FlowID: uint64(g)<<idxShift | hopKey, Value: f.Value})
				}
				if op == nil {
					n.metrics.ForwardErrors.Inc()
					bf.failed = true
					break
				}
				sc.peers[owner>>6] |= 1 << uint(owner&63)
				nremote++
				n.metrics.Forwards.Inc()
				bf.ops[pos] = op
				bf.nlinks = pos + 1
				if share := n.linkShare(g); share < bf.minShare {
					bf.minShare = share
				}
			}
		default:
			n.metrics.Errors.Inc()
		}
	}

	// Phase 2: every rendezvous completes. The coalescers have been
	// batching the enqueued ops per owner the whole time.
	for _, op := range sc.waves {
		op.wait()
		op.co.put(op)
	}
	sc.waves = sc.waves[:0]
	for i := range ops {
		bf := &sc.flows[i]
		if bf.kind != batchReserve {
			continue
		}
		for pos := 0; pos < bf.nlinks; pos++ {
			op := bf.ops[pos]
			if op == nil {
				continue
			}
			op.wait()
			switch {
			case op.err != nil:
				n.metrics.ForwardErrors.Inc()
				bf.failed = true
			case !op.granted:
				bf.failed = true
			default:
				n.own[n.topo.Paths[bf.pathIdx].Links[pos]].Add(1)
			}
		}
	}
	if nremote > 0 {
		elapsed := n.nowNanos() - t0
		if elapsed < 0 {
			elapsed = 0
		}
		n.metrics.HopNS.RecordN(uint64(elapsed)/uint64(nremote), uint64(nremote))
	}

	// Phase 3: finalize each flow all-or-nothing.
	minShare := math.MaxFloat64
	granted := 0
	for i := range ops {
		bf := &sc.flows[i]
		if bf.kind != batchReserve {
			continue
		}
		ok := !bf.failed
		if ok {
			c.mu.Lock()
			if c.closed {
				// The connection dropped while the hops were being claimed;
				// nobody else will roll this flow back.
				ok = false
			} else {
				bf.pf.pending = false
				n.claims.Install(n.pathBase|bf.hopKey, nil, 0, bf.pf)
			}
			c.mu.Unlock()
		}
		if ok {
			verdict |= 1 << uint(i)
			granted++
			n.metrics.PathGrants.Inc()
			if bf.minShare < minShare {
				minShare = bf.minShare
			}
			for pos := 0; pos < bf.nlinks; pos++ {
				if op := bf.ops[pos]; op != nil {
					op.co.put(op)
				}
			}
			continue
		}
		path := &n.topo.Paths[bf.pathIdx]
		rolled := false
		for pos := bf.nlinks - 1; pos >= 0; pos-- {
			g := path.Links[pos]
			op := bf.ops[pos]
			if op == nil {
				n.claims.Remove(uint64(g)<<idxShift|bf.hopKey, nil)
				rolled = true
				continue
			}
			if op.err == nil && op.granted {
				n.own[g].Add(-1)
				if p := n.peers[n.topo.Links[g].Owner].Load(); p != nil {
					if top := p.co.enqueue(resv.Frame{Type: resv.MsgTeardown, FlowID: uint64(g)<<idxShift | bf.hopKey}); top != nil {
						sc.waves = append(sc.waves, top)
					}
				}
				rolled = true
			}
			op.co.put(op)
		}
		if rolled {
			n.metrics.Rollbacks.Inc()
		}
		c.mu.Lock()
		delete(c.flows, bf.id)
		c.put(bf.pf)
		c.mu.Unlock()
		n.metrics.PathDenies.Inc()
	}
	// Rollback teardowns complete before the reply ships, so a client that
	// immediately retries sees the freed slots.
	for _, op := range sc.waves {
		op.wait()
		op.co.put(op)
	}

	// One piggyback pass per touched peer: gossip about this node's own
	// links rides the coalesced writes the batch already paid for.
	for j := range n.peers {
		if sc.peers[j>>6]&(1<<uint(j&63)) == 0 {
			continue
		}
		if p := n.peers[j].Load(); p != nil {
			n.piggyback(p)
		}
	}
	batchScratchPool.Put(sc)
	if granted == 0 {
		minShare = 0
	}
	return resv.Frame{Type: resv.MsgReserveBatchReply, FlowID: uint64(verdict), Value: minShare}
}

func (n *Node) statsReply(f resv.Frame) resv.Frame {
	reply, err := resv.StatsReplyFrame(n.kmaxSum, n.activeSum())
	if err != nil {
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeBadRequest)}
	}
	return reply
}

// ---- peer-plane dispatch ----

func (n *Node) dispatchPeer(sess *peerSess, f resv.Frame, now int64) resv.Frame {
	switch f.Type {
	case resv.MsgRequest:
		ls := n.localLink(f.FlowID)
		if ls == nil || !(f.Value >= 0) || math.IsInf(f.Value, 0) {
			n.metrics.Errors.Inc()
			return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeBadRequest)}
		}
		dec, st := n.admit(ls, now, f.FlowID, f.Value, f.Class, &sess.own)
		switch st {
		case admitGranted:
			return resv.Frame{Type: resv.MsgGrant, FlowID: f.FlowID, Value: dec.Share}
		case admitDuplicate:
			n.metrics.Errors.Inc()
			return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeDuplicateFlow)}
		default:
			return resv.Frame{Type: resv.MsgDeny, FlowID: f.FlowID, Value: dec.Load}
		}
	case resv.MsgTeardown:
		ls := n.localLink(f.FlowID)
		if ls == nil {
			n.metrics.Errors.Inc()
			return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeBadRequest)}
		}
		if !n.claims.Remove(f.FlowID, nil) {
			return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeUnknownFlow)}
		}
		return resv.Frame{Type: resv.MsgTeardownOK, FlowID: f.FlowID, Value: float64(ls.pol.Active())}
	case resv.MsgRefresh:
		ls := n.localLink(f.FlowID)
		if ls == nil {
			n.metrics.Errors.Inc()
			return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeBadRequest)}
		}
		if !n.claims.Refresh(f.FlowID, nil) {
			return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeUnknownFlow)}
		}
		return resv.Frame{Type: resv.MsgRefreshOK, FlowID: f.FlowID, Value: n.ttl.Seconds()}
	case resv.MsgStats:
		return n.statsReply(f)
	case resv.MsgGossip:
		n.applyGossip(f, now)
		return resv.Frame{}
	default:
		n.metrics.Errors.Inc()
		return resv.Frame{Type: resv.MsgError, FlowID: f.FlowID, Value: float64(resv.ErrCodeBadRequest)}
	}
}

// dispatchPeerBatch serves one batched peer-plane body in order: runs of
// consecutive claims on the same link with identical rate and class go
// through one vectored link admission (one policy CAS for the whole run),
// teardowns release singly, and the reply is one verdict bitmap. Value
// carries the minimum granted share across the batch's runs — entry nodes
// compute per-link shares from cluster-wide knowledge and ignore it.
func (n *Node) dispatchPeerBatch(sess *peerSess, ops []resv.Frame, now int64) resv.Frame {
	var verdict resv.BatchVerdict
	share := math.MaxFloat64
	for i := 0; i < len(ops); {
		f := ops[i]
		if f.Type == resv.MsgTeardown {
			if n.localLink(f.FlowID) != nil && n.claims.Remove(f.FlowID, nil) {
				verdict |= 1 << uint(i)
			} else {
				n.metrics.Errors.Inc()
			}
			i++
			continue
		}
		j := i + 1
		for j < len(ops) && ops[j].Type == resv.MsgRequest &&
			ops[j].FlowID>>idxShift == f.FlowID>>idxShift &&
			ops[j].Value == f.Value && ops[j].Class == f.Class {
			j++
		}
		ls := n.localLink(f.FlowID)
		if ls == nil || !(f.Value >= 0) || math.IsInf(f.Value, 0) {
			n.metrics.Errors.Add(uint64(j - i))
			i = j
			continue
		}
		installed, dec := n.admitRun(ls, now, ops[i:j], &sess.own, i, &verdict)
		if installed > 0 && dec.Share < share {
			share = dec.Share
		}
		i = j
	}
	if share == math.MaxFloat64 {
		share = 0
	}
	return resv.Frame{Type: resv.MsgReserveBatchReply, FlowID: uint64(verdict), Value: share}
}

// appendReplyGossip piggybacks occupancy snapshots of local links whose
// active count moved since this connection last saw one — batch replies
// carry the freshest load signal straight back to the entry node whose
// burst just changed it, so the two-choice router sharpens under batched
// load instead of staling until the next anti-entropy tick.
func (n *Node) appendReplyGossip(sess *peerSess, wbuf []byte) []byte {
	for li, ls := range n.links {
		a := ls.pol.Active()
		if sess.lastGossip[li] == a {
			continue
		}
		sess.lastGossip[li] = a
		v := n.gossipSeq.Add(1)
		wbuf = resv.AppendFrame(wbuf, resv.Frame{
			Type:   resv.MsgGossip,
			FlowID: uint64(ls.link.Index)<<idxShift | v&keyMask,
			Value:  float64(a),
		})
		n.metrics.GossipOut.Inc()
	}
	return wbuf
}

// localLink resolves a peer-plane FlowID's link index to local state, nil
// when out of range or owned elsewhere.
func (n *Node) localLink(flowID uint64) *linkState {
	g := int(flowID >> idxShift)
	if g >= len(n.byGlobal) {
		return nil
	}
	return n.byGlobal[g]
}

// ---- in-process client handle ----

// Local is an in-process client-plane handle: the same dispatch the wire
// serves, minus the wire. It is the zero-copy path for co-located load
// generators and the benchmark's view of the local-admit hot path. A
// Local's flows are scoped to it like a connection's: Close rolls them
// back. Safe for concurrent use.
type Local struct {
	n *Node
	c *cconn
}

// NewLocal opens an in-process client handle on the node.
func (n *Node) NewLocal() *Local {
	return &Local{n: n, c: newCConn()}
}

// Reserve requests a path reservation for (pair, seq). It reports whether
// the path was granted and the granted worst-case share.
func (l *Local) Reserve(pair int, seq uint64, bandwidth float64) (granted bool, share float64, err error) {
	f := resv.Frame{Type: resv.MsgRequest, FlowID: FlowID(pair, seq), Value: bandwidth}
	r := l.n.dispatchClient(l.c, f, l.n.nowNanos())
	switch r.Type {
	case resv.MsgGrant:
		return true, r.Value, nil
	case resv.MsgDeny:
		return false, 0, nil
	default:
		return false, 0, fmt.Errorf("cluster: reserve pair %d seq %d: error code %d", pair, seq, uint64(r.Value))
	}
}

// Teardown releases (pair, seq)'s path reservation.
func (l *Local) Teardown(pair int, seq uint64) error {
	f := resv.Frame{Type: resv.MsgTeardown, FlowID: FlowID(pair, seq)}
	r := l.n.dispatchClient(l.c, f, l.n.nowNanos())
	if r.Type != resv.MsgTeardownOK {
		return fmt.Errorf("cluster: teardown pair %d seq %d: error code %d", pair, seq, uint64(r.Value))
	}
	return nil
}

// ReserveBatch requests up to resv.MaxBatch path reservations on one pair
// in a single batched dispatch: hop claims sharing a next hop coalesce
// into one peer RPC. Bit i of the verdict reports (pair, seqs[i]); share
// is the minimum granted worst-case share across the granted flows.
func (l *Local) ReserveBatch(pair int, seqs []uint64, bandwidth float64) (resv.BatchVerdict, float64, error) {
	if len(seqs) < 1 || len(seqs) > resv.MaxBatch {
		return 0, 0, fmt.Errorf("cluster: batch of %d flows (want 1..%d)", len(seqs), resv.MaxBatch)
	}
	var ops [resv.MaxBatch]resv.Frame
	for i, s := range seqs {
		ops[i] = resv.Frame{Type: resv.MsgRequest, FlowID: FlowID(pair, s), Value: bandwidth}
	}
	r := l.n.dispatchClientBatch(l.c, ops[:len(seqs)], l.n.nowNanos())
	if r.Type != resv.MsgReserveBatchReply {
		return 0, 0, fmt.Errorf("cluster: batch reserve pair %d: error code %d", pair, uint64(r.Value))
	}
	return resv.BatchVerdict(r.FlowID), r.Value, nil
}

// TeardownBatch releases up to resv.MaxBatch path reservations on one pair
// in a single batched dispatch. Bit i of the verdict reports whether
// (pair, seqs[i]) existed and was released.
func (l *Local) TeardownBatch(pair int, seqs []uint64) (resv.BatchVerdict, error) {
	if len(seqs) < 1 || len(seqs) > resv.MaxBatch {
		return 0, fmt.Errorf("cluster: batch of %d flows (want 1..%d)", len(seqs), resv.MaxBatch)
	}
	var ops [resv.MaxBatch]resv.Frame
	for i, s := range seqs {
		ops[i] = resv.Frame{Type: resv.MsgTeardown, FlowID: FlowID(pair, s)}
	}
	r := l.n.dispatchClientBatch(l.c, ops[:len(seqs)], l.n.nowNanos())
	if r.Type != resv.MsgReserveBatchReply {
		return 0, fmt.Errorf("cluster: batch teardown pair %d: error code %d", pair, uint64(r.Value))
	}
	return resv.BatchVerdict(r.FlowID), nil
}

// Refresh renews (pair, seq)'s soft state end to end.
func (l *Local) Refresh(pair int, seq uint64) error {
	f := resv.Frame{Type: resv.MsgRefresh, FlowID: FlowID(pair, seq)}
	r := l.n.dispatchClient(l.c, f, l.n.nowNanos())
	if r.Type != resv.MsgRefreshOK {
		return fmt.Errorf("cluster: refresh pair %d seq %d: error code %d", pair, seq, uint64(r.Value))
	}
	return nil
}

// Stats returns the cluster-wide admission threshold (Σ link bounds) and
// the active claim total as this node sees it.
func (l *Local) Stats() (kmax, active int64, err error) {
	r := l.n.dispatchClient(l.c, resv.Frame{Type: resv.MsgStats}, l.n.nowNanos())
	return resv.ParseStatsReply(r)
}

// Close rolls back every flow reserved through the handle.
func (l *Local) Close() {
	l.n.rollbackConn(l.c)
}
