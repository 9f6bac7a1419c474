package sim

import (
	"container/heap"
	"fmt"
	"math"
	"testing"
)

// This file checks the scheduler (timer wheel + overflow heap)
// against a reference engine that reproduces the old implementation: one
// global priority heap ordered by (when, seq). The same seeded randomized
// program — schedules, same-instant bursts, monotone per-source chains,
// cancels, cancel-then-rearm, far-future events beyond the wheel span, and
// nested scheduling from inside callbacks — runs against both, and the
// firing traces must be identical down to tie order.

// refEvent is one pending entry of the reference engine.
type refEvent struct {
	when      int64
	seq       uint64
	fn        func()
	cancelled bool
	idx       int
}

// refHeap is a plain container/heap min-heap by (when, seq) — deliberately
// the dumbest correct implementation of the engine's total order.
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ev := old[n]
	*h = old[:n]
	return ev
}

// refEngine is the single-global-heap scheduler the engine used before the
// timer wheel. Cancellation marks the entry and drops it at pop time,
// which leaves the fire order untouched.
type refEngine struct {
	now  int64
	seq  uint64
	h    refHeap
	live int
}

func (r *refEngine) at(t int64, fn func()) *refEvent {
	if t < r.now {
		panic("ref: schedule in the past")
	}
	ev := &refEvent{when: t, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.h, ev)
	r.live++
	return ev
}

func (r *refEngine) cancel(ev *refEvent) {
	if ev.cancelled || ev.fn == nil {
		return
	}
	ev.cancelled = true
	r.live--
}

func (r *refEngine) step() bool {
	for len(r.h) > 0 {
		ev := heap.Pop(&r.h).(*refEvent)
		if ev.cancelled {
			continue
		}
		r.now = ev.when
		fn := ev.fn
		ev.fn = nil
		r.live--
		fn()
		return true
	}
	return false
}

// propSched is the common surface the randomized program drives; one
// adapter wraps the real engine, the other the reference. next is
// NextEventTime: on the real engine it may advance the wheel cursor past
// Now, so interleaving it with later inserts exercises placement behind
// and around a speculatively moved cursor.
type propSched interface {
	now() int64
	next() int64
	at(t int64, fn func()) (cancel func(), active func() bool)
	step() bool
	pending() int
}

type newSched struct {
	e *Engine
}

func (s *newSched) now() int64  { return s.e.Now() }
func (s *newSched) next() int64 { return s.e.NextEventTime() }
func (s *newSched) at(t int64, fn func()) (func(), func() bool) {
	h := s.e.At(t, fn)
	return func() { s.e.Cancel(h) }, h.Active
}
func (s *newSched) step() bool   { return s.e.Step() }
func (s *newSched) pending() int { return s.e.Pending() }

type refSched struct {
	e *refEngine
}

func (s *refSched) now() int64 { return s.e.now }
func (s *refSched) next() int64 {
	// The root is the minimum once cancelled tombstones are popped off it;
	// step would skip them anyway, so popping them early leaves the fire
	// order untouched. (Fired entries have already left the heap.)
	h := &s.e.h
	for len(*h) > 0 && (*h)[0].cancelled {
		heap.Pop(h)
	}
	if len(*h) == 0 {
		return math.MaxInt64
	}
	return (*h)[0].when
}
func (s *refSched) at(t int64, fn func()) (func(), func() bool) {
	ev := s.e.at(t, fn)
	return func() { s.e.cancel(ev) },
		func() bool { return !ev.cancelled && ev.fn != nil }
}
func (s *refSched) step() bool   { return s.e.step() }
func (s *refSched) pending() int { return s.e.live }

// propSources is the number of monotone per-source chains the program
// keeps: each posts non-decreasing times while it has events pending, the
// way NIC completions, link serialization and kernel burst chains do.
const propSources = 24

// propWorld runs the randomized program against one scheduler. Both worlds
// get same-seed RNGs; as long as the engines fire in the same order, every
// draw mirrors, so any trace divergence is an ordering bug in the engine
// under test, not in the harness.
type propWorld struct {
	s     propSched
	rng   *Rand
	trace []traceEntry

	// Live cancellable handles, as parallel slices (cancel, active).
	cancels []func()
	actives []func() bool

	// Per-source bookkeeping so chain posts are non-decreasing: while a
	// source has pending events, posts must not precede its tail; once it
	// drains, any time >= now is fair game again.
	srcPending [propSources]int
	srcTail    [propSources]int64

	nextID int
}

// traceEntry is one observation of the program: kind says which, at is
// the simulated time it was made, v is the observed value. Entries compare
// with ==; they are formatted only to report a divergence.
type traceEntry struct {
	kind byte // traceFire, traceNext, traceCancel or tracePending
	at   int64
	v    int64
}

const (
	traceFire    byte = iota // v: event id
	traceNext                // v: NextEventTime
	traceCancel              // v: 1 if the handle was still active
	tracePending             // v: events left after the final drain
)

func (e traceEntry) String() string {
	switch e.kind {
	case traceFire:
		return fmt.Sprintf("t=%d id=%d", e.at, e.v)
	case traceNext:
		return fmt.Sprintf("next@%d=%d", e.at, e.v)
	case traceCancel:
		return fmt.Sprintf("cancel@%d active=%v", e.at, e.v == 1)
	default:
		return fmt.Sprintf("PENDING LEFT: %d", e.v)
	}
}

func (w *propWorld) record(id int) {
	w.trace = append(w.trace, traceEntry{traceFire, w.s.now(), int64(id)})
}

// fire builds the callback for event id: record, then maybe do nested work
// (more schedules, a cancel) using the world's RNG.
func (w *propWorld) fire(id, src int) func() {
	return func() {
		w.record(id)
		if src >= 0 {
			w.srcPending[src]--
		}
		// Nested scheduling: follow-ups with mean < 1 so cascades stay
		// finite (the outer loop keeps seeding new work anyway).
		n := 0
		switch w.rng.Int63n(8) {
		case 0:
			n = 2
		case 1, 2, 3:
			n = 1
		}
		for i := 0; i < n; i++ {
			w.scheduleOne(true)
		}
		if w.rng.Int63n(4) == 0 {
			w.cancelOne()
		}
	}
}

// scheduleOne issues one random scheduling op. nested marks calls made
// from inside a callback (they skip bursts to keep recursion shallow).
func (w *propWorld) scheduleOne(nested bool) {
	id := w.nextID
	w.nextID++
	now := w.s.now()
	switch k := w.rng.Int63n(12); {
	case k < 4: // plain At, near-term (0 often: same-instant burst)
		d := w.rng.Int63n(50)
		c, a := w.s.at(now+d, w.fire(id, -1))
		w.cancels = append(w.cancels, c)
		w.actives = append(w.actives, a)
	case k < 7: // per-source chain post
		src := int(w.rng.Int63n(propSources))
		t := now + w.rng.Int63n(40)
		if w.srcPending[src] > 0 && t < w.srcTail[src] {
			t = w.srcTail[src]
		}
		w.s.at(t, w.fire(id, src))
		w.srcPending[src]++
		w.srcTail[src] = t
	case k < 8: // far future: overflow heap, multi-tier cascades
		d := 1 + w.rng.Int63n(int64(2)<<wheelBits)
		c, a := w.s.at(now+d, w.fire(id, -1))
		w.cancels = append(w.cancels, c)
		w.actives = append(w.actives, a)
	case k < 9 && !nested: // burst of 2–4 with non-decreasing times
		n := 2 + int(w.rng.Int63n(3))
		t := now + w.rng.Int63n(30)
		for i := 0; i < n; i++ {
			w.s.at(t, w.fire(w.nextID-1+i, -1))
			t += w.rng.Int63n(3) // repeats exercise the same-bucket append
		}
		w.nextID += n - 1
	case k < 10:
		w.probeCachedWinner(id)
	default: // mid-range At, lands in a higher wheel tier
		d := 100 + w.rng.Int63n(100_000)
		c, a := w.s.at(now+d, w.fire(id, -1))
		w.cancels = append(w.cancels, c)
		w.actives = append(w.actives, a)
	}
}

// probeCachedWinner drives descending inserts into tier >= 1 buckets
// under an overflow-resident head: park event id beyond the wheel span
// (peeking the overflow heap does not advance the wheel cursor), peek via
// next(), then insert descending times. When the parked event is the
// global minimum, each insert becomes the new minimum while resident in a
// tier >= 1 bucket whose list is append-ordered, not time-ordered, so the
// engine must cascade those buckets rather than fire from their list
// heads. Decrements also exceed a tier-1 slot (256µs) across the group,
// so the inserts land both in one bucket and across bucket boundaries.
func (w *propWorld) probeCachedWinner(id int) {
	now := w.s.now()
	c, a := w.s.at(now+1<<wheelBits+1200+w.rng.Int63n(4000), w.fire(id, -1))
	w.cancels = append(w.cancels, c)
	w.actives = append(w.actives, a)
	nt := w.s.next()
	w.trace = append(w.trace, traceEntry{traceNext, now, nt})
	d := 700 + w.rng.Int63n(400)
	if gap := nt - now; gap > 1200 && gap < int64(1)<<wheelBits {
		// The queue head is far out: start just below it so every
		// descending insert becomes the new minimum.
		d = gap - 1 - w.rng.Int63n(100)
	}
	for i := 0; ; i++ {
		id = w.nextID
		w.nextID++
		c, a := w.s.at(now+d, w.fire(id, -1))
		w.cancels = append(w.cancels, c)
		w.actives = append(w.actives, a)
		if i == 2 {
			break
		}
		d -= 100 + w.rng.Int63n(120)
	}
}

// cancelOne cancels a randomly chosen outstanding handle (possibly one
// that already fired — that must be a no-op).
func (w *propWorld) cancelOne() {
	if len(w.cancels) == 0 {
		return
	}
	i := int(w.rng.Int63n(int64(len(w.cancels))))
	active := int64(0)
	if w.actives[i]() {
		active = 1
	}
	w.trace = append(w.trace, traceEntry{traceCancel, w.s.now(), active})
	w.cancels[i]()
	n := len(w.cancels) - 1
	w.cancels[i] = w.cancels[n]
	w.actives[i] = w.actives[n]
	w.cancels = w.cancels[:n]
	w.actives = w.actives[:n]
}

// run executes the program: interleaved scheduling and stepping, then a
// full drain. Every 500 steps it also fires everything within the wheel
// span, leaving only overflow residents, and runs probeCachedWinner
// against that empty wheel: the state in which every descending insert
// becomes the minimum from inside a tier >= 1 bucket.
func (w *propWorld) run(steps int) {
	for i := 0; i < steps; i++ {
		if i%500 == 499 {
			for w.s.next()-w.s.now() < 1<<wheelBits && w.s.step() {
			}
			w.probeCachedWinner(w.nextID)
			w.nextID++
		}
		for w.rng.Int63n(2) == 0 {
			w.scheduleOne(false)
		}
		if w.rng.Int63n(6) == 0 {
			w.cancelOne()
		}
		if !w.s.step() {
			continue
		}
	}
	for w.s.step() {
	}
	if w.s.pending() != 0 {
		w.trace = append(w.trace, traceEntry{kind: tracePending, v: int64(w.s.pending())})
	}
}

// matchReference runs the program for seed, steps long, against the
// engine and the reference heap, fails t at the first trace divergence, and
// returns the trace length.
func matchReference(t *testing.T, seed uint64, steps int) int {
	t.Helper()
	wNew := &propWorld{s: &newSched{e: NewEngine()}, rng: NewRand(seed)}
	wRef := &propWorld{s: &refSched{e: &refEngine{}}, rng: NewRand(seed)}

	wNew.run(steps)
	wRef.run(steps)

	for i := 0; i < len(wNew.trace) && i < len(wRef.trace); i++ {
		if wNew.trace[i] != wRef.trace[i] {
			t.Fatalf("trace diverges at %d:\n  engine:    %s\n  reference: %s",
				i, wNew.trace[i], wRef.trace[i])
		}
	}
	if len(wNew.trace) != len(wRef.trace) {
		t.Fatalf("trace lengths differ: engine %d vs reference %d",
			len(wNew.trace), len(wRef.trace))
	}
	return len(wNew.trace)
}

func TestEngineMatchesGlobalHeapReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if n := matchReference(t, seed, 4000); n < 4000 {
				t.Fatalf("workload too small to mean anything: %d trace entries", n)
			}
		})
	}
}

// FuzzEngineMatchesGlobalHeapReference explores program seeds beyond the
// six the test pins, with a shorter program that still reaches one
// periodic drain-and-probe.
func FuzzEngineMatchesGlobalHeapReference(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		matchReference(t, seed, 500)
	})
}
