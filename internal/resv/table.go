package resv

import (
	"math/bits"
	"runtime"
	"sync"
	"time"

	"beqos/internal/obs"
	"beqos/internal/policy"
)

// Table is the soft state a reservation plane keeps for its admitted
// claims (DESIGN.md §8): the resv Server holds one for its flows, and a
// cluster Node one for its links' hop claims and its entry-side path
// flows. Every claim is installed, refreshed, removed and expired through
// it, and every removal path — teardown, connection drop, TTL expiry —
// goes through one funnel, so a claim is returned to its admission policy
// exactly once.
//
//   - The id → entry map is lock-striped across shards keyed by a
//     Fibonacci hash of the ID, each with its own mutex, entry free list
//     and TTL wheel; the stripe count autotunes from GOMAXPROCS (see
//     shardCountFor).
//   - TTL expiry is a per-shard hierarchical timing wheel (wheel.go): a
//     refresh is an O(1) relink, and one expiry goroutine does work
//     proportional to the entries actually expiring.
//   - Each claim may name an Owner — the connection holding it — so a
//     departing connection releases exactly its own claims (Drain).
//
// Admission itself stays outside the table: callers decide through the
// policy (lock-free on deny) and install only what the policy granted.
type Table struct {
	ttl   int64 // soft-state lifetime in nanoseconds; 0 = claims never expire
	res   int64 // wheel level-0 tick width (TTL tables only)
	epoch time.Time

	// pols are the admission policies claims are returned to: the claim
	// with ID id goes back to pols[id>>polShift], and a nil slot marks IDs
	// that hold no policy claim.
	pols     []policy.Policy
	polShift uint
	// clock records that some policy implements policy.ClockUser and wants
	// the table clock on release; clockless policies are handed 0, so the
	// default release path never pays a time read.
	clock bool
	// expiries counts expired claims, each in the same critical section
	// that releases it, so the count and the policy's occupancy move
	// together. expired is then called once per expired claim with its ID
	// and ref, from the expiry goroutine after the shard locks are
	// released.
	expiries *obs.Counter
	expired  func(id uint64, ref any)

	// shards is the lock-striped map; the stripe count is a power of two
	// and shift the matching hash shift (64 - log2(len(shards))).
	shards []shard
	shift  uint

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// shard is one lock stripe of a Table.
type shard struct {
	mu      sync.Mutex
	entries map[uint64]*entry
	free    *entry // spent entries, next-linked, reused by installs
	wheel   *wheel // TTL expiry index; nil when the table has no TTL
}

// Owner is the set of claims one connection holds in a Table, so its
// departure releases them (Table.Drain). The zero value is an empty set.
// Lock order: a shard's mutex, then an Owner's.
type Owner struct {
	mu  sync.Mutex
	ids map[uint64]struct{}
}

// Len returns the number of claims the owner holds.
func (o *Owner) Len() int {
	o.mu.Lock()
	n := len(o.ids)
	o.mu.Unlock()
	return n
}

// NewTable returns an empty table. Claims expire ttl after their last
// install or refresh (0 disables expiry); the wheel resolution is ttl/256,
// floored at 1ms. Released claims go to pols[id>>polShift] (polShift 64
// maps every ID to pols[0]); each expired claim is counted in expiries and
// then handed to expired. Tables with a TTL run an expiry goroutine; call
// Close when done.
func NewTable(ttl time.Duration, pols []policy.Policy, polShift uint, expiries *obs.Counter, expired func(id uint64, ref any)) *Table {
	nshards := shardCountFor(runtime.GOMAXPROCS(0))
	t := &Table{
		ttl:      int64(ttl),
		epoch:    time.Now(),
		pols:     pols,
		polShift: polShift,
		expiries: expiries,
		expired:  expired,
		shards:   make([]shard, nshards),
		shift:    uint(64 - bits.TrailingZeros(uint(nshards))),
	}
	for _, p := range pols {
		if cu, ok := p.(policy.ClockUser); ok && cu.NeedsClock() {
			t.clock = true
		}
	}
	for i := range t.shards {
		t.shards[i].entries = make(map[uint64]*entry)
	}
	if ttl > 0 {
		t.res = int64(ttl) / wheelResDivisor
		if t.res < int64(time.Millisecond) {
			t.res = int64(time.Millisecond)
		}
		for i := range t.shards {
			t.shards[i].wheel = newWheel(t.res)
		}
		t.stop, t.done = make(chan struct{}), make(chan struct{})
		go t.expireLoop()
	}
	return t
}

// Now is the table clock: nanoseconds since the table was created.
func (t *Table) Now() int64 { return int64(time.Since(t.epoch)) }

// polNow is the clock handed to policies on release.
func (t *Table) polNow() int64 {
	if t.clock {
		return t.Now()
	}
	return 0
}

// shardFor picks an ID's stripe by Fibonacci-hashing it.
func (t *Table) shardFor(id uint64) *shard {
	return &t.shards[(id*0x9e3779b97f4a7c15)>>t.shift]
}

// Close stops the expiry goroutine (if any) and waits for it to exit.
func (t *Table) Close() {
	if t.stop == nil {
		return
	}
	t.stopOnce.Do(func() { close(t.stop) })
	<-t.done
}

// Install records id as a live claim of o (nil: no owner) holding rate
// against its policy; ref is handed back to the expiry hook. If id is
// already live nothing changes: ok is false and the live claim's owner and
// rate are returned, for the caller to roll its policy claim back.
func (t *Table) Install(id uint64, o *Owner, rate float64, ref any) (live *Owner, liveRate float64, ok bool) {
	sh := t.shardFor(id)
	sh.mu.Lock()
	if e, dup := sh.entries[id]; dup {
		live, liveRate = e.owner, e.rate
		sh.mu.Unlock()
		return live, liveRate, false
	}
	e := sh.free
	if e != nil {
		sh.free = e.next
		e.next = nil
	} else {
		e = new(entry)
	}
	e.id, e.owner, e.rate, e.ref = id, o, rate, ref
	sh.entries[id] = e
	if sh.wheel != nil {
		e.deadline = t.Now() + t.ttl
		sh.wheel.insert(e)
	}
	if o != nil {
		o.mu.Lock()
		if o.ids == nil {
			o.ids = make(map[uint64]struct{})
		}
		o.ids[id] = struct{}{}
		o.mu.Unlock()
	}
	sh.mu.Unlock()
	return nil, 0, true
}

// Lookup reports whether id is live, and its owner and rate, without
// touching any state.
func (t *Table) Lookup(id uint64) (o *Owner, rate float64, ok bool) {
	sh := t.shardFor(id)
	sh.mu.Lock()
	e, ok := sh.entries[id]
	if ok {
		o, rate = e.owner, e.rate
	}
	sh.mu.Unlock()
	return o, rate, ok
}

// Remove releases id's claim if it is live and held by o (nil: by any
// owner). It reports false when no such claim exists — already released,
// expired, or never installed — so racing release paths compose to
// exactly one policy release per claim.
func (t *Table) Remove(id uint64, o *Owner) bool {
	sh := t.shardFor(id)
	sh.mu.Lock()
	e, ok := sh.entries[id]
	if ok = ok && (o == nil || e.owner == o); ok {
		t.removeLocked(sh, e, true, t.polNow())
	}
	sh.mu.Unlock()
	return ok
}

// Refresh renews id's soft-state deadline — an O(1) relink into the wheel
// bucket owning the new deadline — if it is live and held by o (nil: by
// any owner). It reports whether the claim lives.
func (t *Table) Refresh(id uint64, o *Owner) bool {
	sh := t.shardFor(id)
	sh.mu.Lock()
	e, ok := sh.entries[id]
	if ok = ok && (o == nil || e.owner == o); ok && sh.wheel != nil {
		e.unlink()
		e.deadline = t.Now() + t.ttl
		sh.wheel.insert(e)
	}
	sh.mu.Unlock()
	return ok
}

// Drain releases every claim o holds — its connection is gone — and
// returns how many it released. released, if non-nil, is called with each
// released ID under that ID's shard lock.
func (t *Table) Drain(o *Owner, released func(id uint64)) int {
	o.mu.Lock()
	ids := make([]uint64, 0, len(o.ids))
	for id := range o.ids {
		ids = append(ids, id)
	}
	o.mu.Unlock()
	n := 0
	for _, id := range ids {
		sh := t.shardFor(id)
		sh.mu.Lock()
		// The claim may have expired or been removed since the snapshot;
		// only claims still held by o are released.
		if e, ok := sh.entries[id]; ok && e.owner == o {
			t.removeLocked(sh, e, true, t.polNow())
			n++
			if released != nil {
				released(id)
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Len returns the number of live claims.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// removeLocked is the release funnel: it unrecords a claim from the wheel,
// the map and its owner, returns it to its policy, and recycles the entry.
// Callers hold sh.mu; an entry being expired by the wheel (linked = false)
// is already unlinked.
func (t *Table) removeLocked(sh *shard, e *entry, linked bool, now int64) {
	if linked && sh.wheel != nil {
		e.unlink()
	}
	delete(sh.entries, e.id)
	if o := e.owner; o != nil {
		o.mu.Lock()
		delete(o.ids, e.id)
		o.mu.Unlock()
	}
	if p := t.pols[e.id>>t.polShift]; p != nil {
		p.Release(now, e.rate)
	}
	*e = entry{next: sh.free}
	sh.free = e
}

// expiredClaim is one claim the wheel expired, held until the hook runs.
type expiredClaim struct {
	id  uint64
	ref any
}

// expireLoop drives every shard's wheel at the wheel resolution. Per tick
// it does work proportional to the claims actually expiring, plus one O(1)
// bucket visit per shard. Expired claims are released and counted under
// their shard lock; the hook runs once all shards are done, with no lock
// held, so it may block (a cluster path flow tears its remote hops down
// from it).
func (t *Table) expireLoop() {
	defer close(t.done)
	tick := time.NewTicker(time.Duration(t.res))
	defer tick.Stop()
	var due []expiredClaim
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
			now := t.Now()
			pnow := int64(0)
			if t.clock {
				pnow = now
			}
			for i := range t.shards {
				sh := &t.shards[i]
				sh.mu.Lock()
				sh.wheel.advance(now, func(e *entry) {
					due = append(due, expiredClaim{id: e.id, ref: e.ref})
					t.removeLocked(sh, e, false, pnow)
					t.expiries.Inc()
				})
				sh.mu.Unlock()
			}
			for i, x := range due {
				t.expired(x.id, x.ref)
				due[i] = expiredClaim{}
			}
			due = due[:0]
		}
	}
}
