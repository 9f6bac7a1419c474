package exp

import (
	"runtime"
	"testing"

	"lrp/internal/sim"
)

// TestWorldStartsNoGoroutines pins the single-threaded process model:
// every simulated process is a step function run inline by the kernel,
// so building, running and shutting down a world leaves the goroutine
// count unchanged. It covers a faults UDP point (a compute-hog victim, a
// blast sink and a ping-pong pair) and a Fig. 5 world (HTTP server with
// per-connection handlers, eight clients, SYN flood, LRP daemons).
func TestWorldStartsNoGoroutines(t *testing.T) {
	opt := Options{Quick: true, Seed: 1}
	base := runtime.NumGoroutine()
	check := func(where string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n != base {
			t.Errorf("%s: %d goroutines, want %d", where, n, base)
		}
	}

	// The install hook runs once the point's world is built; instead of
	// an impairment it arms a probe that samples mid-run.
	sample := func(r *rig, _ float64, _ uint64) {
		check("faults UDP point, built")
		r.eng.After(100*sim.Millisecond, func() { check("faults UDP point, running") })
	}
	for _, sys := range OverloadSystems() {
		udpFaultPoint(sys, 1, sample, 1, opt)
		check("faults UDP point " + sys.Name + ", shut down")
	}

	for _, sys := range fig5Systems() {
		r, _ := fig5World(sys, 14000, opt)
		check("Fig. 5 world " + sys.Name + ", built")
		r.eng.After(500*sim.Millisecond, func() { check("Fig. 5 world " + sys.Name + ", running") })
		r.eng.RunFor(sim.Second)
		r.shutdown()
		check("Fig. 5 world " + sys.Name + ", shut down")
	}
}
