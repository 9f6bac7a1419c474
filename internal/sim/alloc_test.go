package sim

import (
	"testing"

	"lrp/internal/race"
)

// TestEngineHotPathZeroAllocs pins the schedule+fire cycle at zero
// allocations per operation once the event free list is warm. Every
// simulated packet, timer and CPU burst rides this path, so a regression
// here is a regression everywhere.
func TestEngineHotPathZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	e := NewEngine()
	fn := func() {}
	// Warm up: populate the free list and the heap's backing array.
	for i := 0; i < 16; i++ {
		e.At(e.Now(), fn)
		e.Step()
	}
	if n := testing.AllocsPerRun(100, func() {
		e.At(e.Now(), fn)
		e.Step()
	}); n != 0 {
		t.Errorf("At+Step allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		ev := e.At(e.Now()+100, fn)
		e.Cancel(ev)
	}); n != 0 {
		t.Errorf("At+Cancel allocates %v per op, want 0", n)
	}
}

// TestWheelCascadeZeroAllocs pins the tier cascade: an event far enough
// out to land in a high wheel tier migrates down through the tiers as the
// cursor advances, and none of that movement may allocate.
func TestWheelCascadeZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 16; i++ { // warm the free list
		e.At(e.Now(), fn)
		e.Step()
	}
	if n := testing.AllocsPerRun(100, func() {
		// Tier-2 distance: fires only after cascading through tier 1.
		e.At(e.Now()+(1<<(2*tierBits))+3, fn)
		e.Step()
	}); n != 0 {
		t.Errorf("cascading schedule+fire allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		e.At(e.Now()+10, fn)
		e.At(e.Now()+10, fn)
		e.At(e.Now()+20, fn)
		e.Step()
		e.Step()
		e.Step()
	}); n != 0 {
		t.Errorf("same-bucket burst of 3 allocates %v per run, want 0", n)
	}
}
