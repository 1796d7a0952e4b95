package cluster

import (
	"beqos/internal/policy"
	"beqos/internal/resv"
)

// linkState is one locally-owned link and the admission policy that
// bounds it. The policy's CAS-bounded counters are the no-over-admit
// guarantee — concurrent claims (from this node's entry flows and from
// every peer forwarding hops here) race on the same atomics the
// single-link serving plane uses. The claims themselves live in the node's
// soft-state table (Node.claims), keyed by wire ID, whose release funnel
// returns each one to this policy exactly once.
type linkState struct {
	link  Link
	bound int
	pol   policy.Policy
}

func newLinkState(l Link, bound int) (*linkState, error) {
	pol, err := policy.NewCounting(l.Capacity, bound)
	if err != nil {
		return nil, err
	}
	return &linkState{link: l, bound: bound, pol: pol}, nil
}

// admitStatus is admit's verdict beyond the policy's own decision.
type admitStatus int8

const (
	admitGranted admitStatus = iota
	admitDenied
	admitDuplicate
)

// admit claims one hop on local link ls under its wire ID (linkIdx<<48 |
// hopKey): the policy decides (lock-free deny), the claim table records. A
// duplicate wire ID rolls the policy claim back and leaves all state
// untouched — hop keys are minted per admission by entry nodes, so a
// duplicate is a protocol error, not a retransmit.
func (n *Node) admit(ls *linkState, now int64, wireID uint64, rate float64, class uint8, owner *resv.Owner) (policy.Decision, admitStatus) {
	dec := ls.pol.Admit(now, wireID&keyMask, rate, class)
	if !dec.Admit {
		return dec, admitDenied
	}
	if _, _, ok := n.claims.Install(wireID, owner, rate, nil); !ok {
		ls.pol.Release(now, rate)
		return dec, admitDuplicate
	}
	return dec, admitGranted
}

// admitRun claims one run of batched hops on local link ls — identical
// rate and class, distinct wire IDs — with a single vectored policy claim.
// The policy grants a prefix (exact at the kmax boundary); installed ops
// get their bit set in verdict at base+i. A duplicate wire ID inside the
// granted prefix returns its single policy claim and keeps its bit clear,
// exactly like the unbatched duplicate path.
func (n *Node) admitRun(ls *linkState, now int64, frames []resv.Frame, owner *resv.Owner, base int, verdict *resv.BatchVerdict) (installed int, dec policy.Decision) {
	rate, class := frames[0].Value, frames[0].Class
	granted, dec := policy.AdmitBatch(ls.pol, now, frames[0].FlowID&keyMask, rate, class, len(frames))
	for i := 0; i < granted; i++ {
		if _, _, ok := n.claims.Install(frames[i].FlowID, owner, rate, nil); !ok {
			ls.pol.Release(now, rate)
			continue
		}
		*verdict |= 1 << uint(base+i)
		installed++
	}
	return installed, dec
}

// peerSess is one inbound peer connection: the claims it owns, so dropping
// the connection (a crashed or partitioned entry node) releases them
// without waiting for the TTL.
type peerSess struct {
	own resv.Owner
	// lastGossip is the last active count piggybacked on a batch reply to
	// this connection, per local link (indexed like Node.links, -1 = never
	// sent). Only the serving goroutine touches it, so no lock.
	lastGossip []int64
}

func newPeerSess(nlinks int) *peerSess {
	s := &peerSess{lastGossip: make([]int64, nlinks)}
	for i := range s.lastGossip {
		s.lastGossip[i] = -1
	}
	return s
}
