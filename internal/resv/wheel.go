package resv

// The soft-state expiry index: a two-level hierarchical timing wheel, one
// per Table shard. The wheel keeps every TTL deadline in a bucket keyed by
// its deadline tick, so a refresh is an O(1) unlink + relink and an
// advance only touches entries that actually expire (plus one
// coarse-bucket cascade every wheelSlots ticks) — never a scan of all
// entries.
//
// Level 0 buckets are one resolution tick wide and cover the next
// wheelSlots ticks; level 1 buckets are wheelSlots ticks wide and cover
// wheelSlots× that horizon. Deadlines beyond level 1 simply take extra
// laps: each cascade re-bins them until they fall within a finer window.
// All buckets are circular lists threaded through the entries themselves
// (sentinel-headed), so linking and unlinking never allocate.

const (
	wheelBits  = 6
	wheelSlots = 1 << wheelBits // 64 buckets per level
	wheelMask  = wheelSlots - 1
)

// entry is one live soft-state claim: the value of its Table shard's map
// and, on TTL tables, an intrusive node in the shard's timing wheel.
type entry struct {
	id    uint64
	owner *Owner  // the connection holding the claim; nil for none
	rate  float64 // the rate returned to the policy on release
	// ref is the caller's handle on the claim, passed back to the
	// table's expiry hook (nil for plain policy claims).
	ref any
	// deadline is the soft-state expiry instant in nanoseconds of the
	// table's clock; meaningful only on TTL tables.
	deadline int64
	// next/prev link the entry into a wheel bucket (circular, sentinel
	// headed). Freed entries reuse next as the shard free-list link.
	next, prev *entry
}

// unlink removes e from its bucket. Safe only while e is linked.
func (e *entry) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.next, e.prev = nil, nil
}

// wheel is the two-level timing wheel. All methods are called under the
// owning shard's mutex.
type wheel struct {
	res  int64 // nanoseconds per level-0 tick
	tick int64 // next unprocessed tick: every entry with deadline/res < tick has been expired or re-binned
	// slots are circular-list sentinels; an empty bucket points at itself.
	slots [2][wheelSlots]entry
}

func newWheel(res int64) *wheel {
	w := &wheel{res: res}
	for l := range w.slots {
		for i := range w.slots[l] {
			s := &w.slots[l][i]
			s.next, s.prev = s, s
		}
	}
	return w
}

// insert links e into the bucket owning its deadline. Deadlines whose tick
// has already been processed land in the imminent level-0 bucket and expire
// on the next advance.
func (w *wheel) insert(e *entry) {
	dt := e.deadline / w.res
	if dt < w.tick {
		dt = w.tick
	}
	var s *entry
	if dt-w.tick < wheelSlots {
		s = &w.slots[0][dt&wheelMask]
	} else {
		s = &w.slots[1][(dt>>wheelBits)&wheelMask]
	}
	e.prev = s.prev
	e.next = s
	s.prev.next = e
	s.prev = e
}

// advance processes every tick now has fully passed and calls expire for
// each entry that is due. Tick t is processed only once now/res > t, i.e.
// once now is past the tick's *end* — so an entry expires strictly after
// its deadline, never at it. A flow refreshed exactly at its TTL boundary
// has therefore always been relinked before its old bucket drains.
func (w *wheel) advance(now int64, expire func(*entry)) {
	for nowTick := now / w.res; w.tick < nowTick; w.tick++ {
		t := w.tick
		if t&wheelMask == 0 {
			w.cascade(t)
		}
		s := &w.slots[0][t&wheelMask]
		for e := s.next; e != s; {
			next := e.next
			e.unlink()
			expire(e)
			e = next
		}
	}
}

// cascade lazily re-bins the level-1 bucket covering the level-0 window
// that starts at tick t: entries due inside the window drop to level 0,
// entries a full lap (or more) away go back into level 1.
func (w *wheel) cascade(t int64) {
	s := &w.slots[1][(t>>wheelBits)&wheelMask]
	// Detach the whole list first: a re-binned entry may land back in this
	// very bucket (another lap out) and must not be rescanned now.
	head := s.next
	s.next, s.prev = s, s
	for e := head; e != s; {
		next := e.next
		e.next, e.prev = nil, nil
		w.insert(e)
		e = next
	}
}
