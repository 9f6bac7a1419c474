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
// Buckets track a stale-low minimum (never raised by cancellation) used as
// a conservative candidate for tiers >= 1: peek never fires on a stale key,
// it advances the cursor there and re-derives an exact winner. Events
// beyond the wheel span — and events scheduled behind the cursor after a
// speculative peek advanced it past Now — live in the overflow heap, which
// peek compares exactly against the wheel's minimum and which drains back
// into the wheel when the cursor crosses a span boundary.

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
	min        Time  // stale-low bound on members' when (tiers >= 1)
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
// occupancy bit, the per-tier census and the bucket's stale-low minimum.
//
//lrp:hotpath
func (e *Engine) bucketAppend(l *evList, ev *event) {
	if l.head == nil {
		l.head, l.tail = ev, ev
		l.min = ev.when
		e.bitmap[l.tier][l.slot>>6] |= 1 << uint(l.slot&63)
	} else {
		ev.prev = l.tail
		l.tail.next = ev
		l.tail = ev
		if ev.when < l.min {
			l.min = ev.when
		}
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

// peek returns the earliest pending event, or nil. It compares the exact
// candidates — tier-0 bucket head, overflow root — by (when, seq); when
// the earliest wheel material sits in a tier >= 1 bucket it uses the
// bucket's stale-low minimum as a conservative key and, if that key is not
// strictly beaten by the overflow root, advances the cursor to it
// (cascading the bucket toward tier 0) and compares again. The loop
// terminates because every cascade moves the occupied bucket's members to
// a strictly lower tier. The winner is cached until an earlier insert, a
// cancellation of the winner, or a fire invalidates it.
//
//lrp:hotpath
func (e *Engine) peek() *event {
	if e.peeked != nil {
		return e.peeked
	}
	for {
		best := e.overflow.root()
		if e.tierMask == 0 {
			e.peeked = best
			return best
		}
		t := bits.TrailingZeros8(e.tierMask)
		l := &e.tiers[t][e.lowestSlot(t)]
		if t == 0 {
			if h := l.head; best == nil || less(h, best) {
				best = h
			}
			e.peeked = best
			return best
		}
		m := l.min
		if m <= e.wpos {
			// The bucket minimum went stale below the cursor (its event was
			// cancelled and the cursor moved past it). Recompute the true
			// minimum — strictly above the cursor — so advance progresses.
			m = l.head.when
			for x := l.head.next; x != nil; x = x.next {
				if x.when < m {
					m = x.when
				}
			}
			l.min = m
		}
		if best != nil && best.when < m {
			e.peeked = best
			return best
		}
		e.advance(m)
	}
}
