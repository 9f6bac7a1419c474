// Package evhandle poses as "lrp/internal/core" in the eventhandle
// analyzer's tests, exercising handle discipline against the real
// lrp/internal/sim types.
package evhandle

import "lrp/internal/sim"

type holder struct {
	bad *sim.Event // want `\*sim\.Event pins recycled event storage`
	ok  sim.Event  // storing the handle by value is the design
}

func pointers(eng *sim.Engine) {
	ev := eng.After(10, func() {})
	p := &ev // want `taking the address of a sim\.Event`
	_ = p
}

func compare(a, b sim.Event) bool {
	if a == b { // want `comparing sim\.Event handles for identity`
		return true
	}
	if a == (sim.Event{}) { // want `comparing a sim\.Event against the zero literal`
		return true
	}
	return a.When() == b.When() // comparing firing times is fine
}

// rearmBroken never re-arms after the first firing: a fired handle is
// stale but non-zero.
func rearmBroken(eng *sim.Engine, ev sim.Event) sim.Event {
	if ev.IsZero() { // want `IsZero\(\) gates re-scheduling`
		ev = eng.After(10, func() {})
	}
	return ev
}

// rearmActive is the correct re-arm guard.
func rearmActive(eng *sim.Engine, ev sim.Event) sim.Event {
	if !ev.Active() {
		ev = eng.After(10, func() {})
	}
	return ev
}

// closeBurst is the kernel's documented pattern: IsZero answers "was a
// burst opened", and the handle is explicitly zeroed after cancelling.
func closeBurst(eng *sim.Engine, ev sim.Event) sim.Event {
	if !ev.IsZero() {
		eng.Cancel(ev)
		ev = sim.Event{}
	}
	return ev
}

// resetIfNever assigns the zero handle inside an IsZero guard; nothing is
// scheduled, so nothing is flagged.
func resetIfNever(ev sim.Event) sim.Event {
	if ev.IsZero() {
		ev = sim.Event{}
	}
	return ev
}
