package kernel

// Regression tests for the cross-CPU wakeup path: a remote wakeup is
// only an IPI until it lands, and landing must grant the woken process
// a run-queue position from its delivery time — never from the earlier
// instant the waker ran on the other CPU. An implementation that
// enqueued the process eagerly at initiation would let a remote waker
// jump its victim ahead of processes that became runnable on the home
// CPU while the IPI was in flight.

import (
	"testing"

	"lrp/internal/sim"
)

func TestRemoteWakeupDoesNotReorderSameCPURunnables(t *testing.T) {
	eng := sim.NewEngine()
	k0 := New(eng, "cpu0")
	k1 := New(eng, "cpu1")
	t.Cleanup(k0.Shutdown)
	t.Cleanup(k1.Shutdown)
	g := &Group{}
	k0.Group, k1.Group = g, g
	const ipiLat = 50
	g.RemoteWake = func(p *Proc) {
		home := p.K
		eng.At(eng.Now()+ipiLat, func() {
			home.PostHW(WorkItem{Cost: 1, Fn: p.DeliverWakeup})
		})
	}

	var order []string
	var at []sim.Time
	var wqRemote, wqLocal WaitQ
	k0.SpawnStep("remote", 0, seq(sleep(&wqRemote), do(func(p *Proc) {
		order = append(order, "remote")
		at = append(at, p.Now())
	})))
	k0.SpawnStep("local", 0, seq(sleepTimeout(&wqLocal, 120), do(func(p *Proc) {
		order = append(order, "local")
		at = append(at, p.Now())
	})))
	// t=100: a process on CPU 1 wakes "remote". The wakeup is cross-CPU,
	// so until the IPI lands "remote" is runnable nowhere.
	k1.SpawnStep("waker", 0, seq(delay(100), do(func(p *Proc) { wqRemote.WakeupAll() })))
	// CPU 0 is pinned in the interrupt band from t=90 to t=210, so both
	// wakeups — "local" at its t=120 timeout, "remote" when the IPI work
	// item drains after the band clears — join the run queue before the
	// scheduler can dispatch either. FIFO order at equal priority is then
	// the whole story.
	eng.At(90, func() { k0.PostHW(WorkItem{Cost: 120}) })
	eng.RunFor(sim.Second)

	if len(order) != 2 || order[0] != "local" || order[1] != "remote" {
		t.Fatalf("run order = %v, want [local remote]: the in-flight remote wakeup "+
			"(initiated t=100) must not outrank a process runnable since t=120", order)
	}
	if at[1] < 210+1 {
		t.Errorf("remote resumed at t=%d, want after its IPI work item drained (t>=211)", at[1])
	}
}

// TestDeliverWakeupStaleIPIIsHarmless pins the race the delivery path
// must tolerate: the process was woken by other means (here its sleep
// timeout) while the IPI was in flight. The late DeliverWakeup must
// leave it alone — no double enqueue, no state change.
func TestDeliverWakeupStaleIPIIsHarmless(t *testing.T) {
	eng, k := newTestKernel(t)
	var wq WaitQ
	runs := 0
	p := k.SpawnStep("sleeper", 0, seq(sleepTimeout(&wq, 100), do(func(p *Proc) { runs++ }), compute(50)))
	// The "IPI" lands at t=300, long after the t=100 timeout woke and ran
	// the process to completion.
	eng.At(300, p.DeliverWakeup)
	eng.RunFor(sim.Second)
	if runs != 1 {
		t.Fatalf("process ran %d times, want 1: a stale DeliverWakeup must be a no-op", runs)
	}
	if !p.Dead() {
		t.Fatalf("process not dead after its single run")
	}
}
