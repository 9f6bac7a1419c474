package sim

// Hierarchical timer wheel: the engine's structure for future-dated events.
//
// The wheel has numTiers tiers of tierSlots buckets each. Tier t buckets
// are 2^(tierBits*t) microseconds wide, so tier 0 resolves single
// microseconds and the whole wheel spans 2^wheelBits µs (~71 minutes of
// simulated time) ahead of the cursor. Placement is cursor-relative: an
// event lands in the tier of the highest bit in which its deadline differs
// from the cursor wpos, at slot (when >> tierBits*t) & slotMask. Because
// every tier-t resident shares the cursor's tier-(t+1) slot prefix, slot
// indices never wrap: within a tier, bucket index order equals deadline
// order, bits below the cursor are always clear, and a plain lowest-set-bit
// scan of the occupancy bitmap finds the tier's earliest bucket.
//
// The cursor only moves forward, and moving it is fused with cascading: an
// advance re-places the members of the new cursor-path bucket of every tier
// whose cursor slot changed, top tier first. Top-down order is what makes
// the (when, seq) total order exact across tiers — a bucket only ever
// receives cascaded-in members before any direct insert with the same
// prefix can occur, so every bucket holds its same-deadline members in
// sequence order and the tier-0 bucket head is the true wheel minimum.
//
// Buckets are plain append-ordered lists. For tiers >= 1, peek keys the
// earliest occupied bucket on its start time, a lower bound on its members
// that lies strictly above the cursor: peek never fires on that key, it
// advances the cursor there (cascading the bucket one tier down) and
// re-derives an exact winner. Events beyond the wheel span — and events
// scheduled behind the cursor after a speculative peek advanced it past
// Now — live in the overflow heap, which peek compares exactly against the
// wheel's minimum and which drains back into the wheel when the cursor
// crosses a span boundary.

import "math/bits"

const (
	tierBits  = 8
	tierSlots = 1 << tierBits
	slotMask  = tierSlots - 1
	numTiers  = 4
	wheelBits = tierBits * numTiers
)

// evList is one wheel bucket: an intrusive doubly-linked event list.
type evList struct {
	head, tail *event
	tier, slot int32 // wheel coordinates
}

// place files ev into the wheel bucket its deadline selects relative to the
// cursor, or pushes it on the overflow heap when it lies beyond the wheel
// span (or behind the cursor).
//
//lrp:hotpath
func (e *Engine) place(ev *event) {
	w := ev.when
	x := uint64(w ^ e.wpos)
	if w < e.wpos || x>>wheelBits != 0 {
		e.overflow.push(ev)
		return
	}
	t := 0
	if x != 0 {
		t = (bits.Len64(x) - 1) / tierBits
	}
	e.bucketAppend(&e.tiers[t][(w>>(tierBits*uint(t)))&slotMask], ev)
}

// bucketAppend links ev at the tail of wheel bucket l, maintaining the
// occupancy bit and the per-tier census.
//
//lrp:hotpath
func (e *Engine) bucketAppend(l *evList, ev *event) {
	if l.head == nil {
		l.head, l.tail = ev, ev
		e.bitmap[l.tier][l.slot>>6] |= 1 << uint(l.slot&63)
	} else {
		ev.prev = l.tail
		l.tail.next = ev
		l.tail = ev
	}
	ev.list = l
	e.tierCount[l.tier]++
	e.tierMask |= 1 << uint(l.tier)
}

// bucketRemove unlinks ev from its wheel bucket in O(1), maintaining the
// occupancy bit and the per-tier census. The detached event's own link
// fields are left stale; retire is the single point that clears them.
//
//lrp:hotpath
func (e *Engine) bucketRemove(ev *event) {
	l := ev.list
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		l.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		l.tail = ev.prev
	}
	e.tierDec(l.tier)
	if l.head == nil {
		e.bitmap[l.tier][l.slot>>6] &^= 1 << uint(l.slot&63)
	}
}

// tierDec decrements a tier's census, clearing its occupancy bit in the
// tier mask on the last resident.
//
//lrp:hotpath
func (e *Engine) tierDec(t int32) {
	e.tierCount[t]--
	if e.tierCount[t] == 0 {
		e.tierMask &^= 1 << uint(t)
	}
}

// lowestSlot returns the index of the earliest occupied bucket of tier t,
// which must have at least one resident. Bits below the cursor are always
// clear (no wrap), so the scan starts at the cursor's word and the first
// set bit is the answer.
//
//lrp:hotpath
func (e *Engine) lowestSlot(t int) int {
	bm := &e.bitmap[t]
	for w := int(e.wpos>>(tierBits*uint(t))&slotMask) >> 6; w < len(bm); w++ {
		if bm[w] != 0 {
			return w<<6 + bits.TrailingZeros64(bm[w])
		}
	}
	return -1 // unreachable while tierCount[t] > 0
}

// advance moves the wheel cursor forward to `to` and cascades, top tier
// first, the new cursor-path bucket of every tier whose cursor slot
// changed: members re-place relative to the new cursor and land in a
// strictly lower tier. When the cursor crosses a wheel-span boundary,
// overflow events that now fit the span drain back in. Called with a
// target no later than the earliest pending event, so slots skipped over
// are provably empty. A target at or behind the cursor is a no-op.
//
//lrp:hotpath
func (e *Engine) advance(to Time) {
	old := e.wpos
	if to <= old {
		return
	}
	e.wpos = to
	if uint64(old^to)>>tierBits == 0 {
		return // same cursor slot at every tier >= 1
	}
	for t := numTiers - 1; t >= 1; t-- {
		sh := tierBits * uint(t)
		if old>>sh == to>>sh {
			continue // cursor slot unchanged at this tier (and below it may differ)
		}
		if e.tierCount[t] == 0 {
			continue
		}
		s := int(to>>sh) & slotMask
		l := &e.tiers[t][s]
		if l.head == nil {
			continue
		}
		ev := l.head
		l.head, l.tail = nil, nil
		e.bitmap[t][s>>6] &^= 1 << uint(s&63)
		for ev != nil {
			next := ev.next
			ev.prev, ev.next, ev.list = nil, nil, nil
			e.tierDec(int32(t))
			e.place(ev)
			ev = next
		}
	}
	if uint64(old^to)>>wheelBits != 0 {
		// Drain overflow events that now fit the wheel span. A root behind
		// the cursor (scheduled behind wpos after a speculative peek
		// advance) intentionally stops the drain early: place would push it
		// straight back into overflow, and it fires before anything blocked
		// behind it anyway, so deferring those events' drain to a later
		// span crossing costs a few exact compares in peek — never ordering.
		for {
			r := e.overflow.root()
			if r == nil || r.when < to || uint64(r.when^to)>>wheelBits != 0 {
				break
			}
			e.overflow.pop()
			e.place(r)
		}
	}
}

// peek returns the earliest pending event, or nil. It works the winner
// out afresh on every call. It compares the exact candidates — tier-0
// bucket head, overflow root — by (when, seq); when the earliest wheel
// material sits in a tier >= 1 bucket it keys on the bucket's start time,
// which lies strictly above the cursor and no later than any member. If
// the overflow root is not strictly earlier than that key, peek advances
// the cursor there (cascading the bucket into a lower tier) and compares
// again. The loop terminates because every cascade moves the occupied
// bucket's members to a strictly lower tier.
//
//lrp:hotpath
func (e *Engine) peek() *event {
	for {
		best := e.overflow.root()
		if e.tierMask == 0 {
			return best
		}
		t := bits.TrailingZeros8(e.tierMask)
		s := e.lowestSlot(t)
		if t == 0 {
			if h := e.tiers[0][s].head; best == nil || less(h, best) {
				best = h
			}
			return best
		}
		sh := tierBits * uint(t)
		start := e.wpos>>(sh+tierBits)<<(sh+tierBits) | Time(s)<<sh
		if best != nil && best.when < start {
			return best
		}
		e.advance(start)
	}
}
