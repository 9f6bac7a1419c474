package kernel

import (
	"testing"

	"lrp/internal/sim"
)

// newTestKernel builds an engine+kernel pair whose kernel is shut down
// when the test ends.
func newTestKernel(t *testing.T) (*sim.Engine, *Kernel) {
	t.Helper()
	eng := sim.NewEngine()
	k := New(eng, "test")
	t.Cleanup(k.Shutdown)
	return eng, k
}

func TestComputeConsumesSimTime(t *testing.T) {
	eng, k := newTestKernel(t)
	var doneAt sim.Time
	k.SpawnStep("a", 0, seq(compute(5000), do(func(p *Proc) { doneAt = p.Now() })))
	eng.RunFor(sim.Second)
	if doneAt != 5000 {
		t.Fatalf("compute finished at %d, want 5000", doneAt)
	}
}

func TestAccountingUserVsSys(t *testing.T) {
	eng, k := newTestKernel(t)
	p := k.SpawnStep("a", 0, seq(compute(3000), computeSys(2000)))
	eng.RunFor(sim.Second)
	if p.UTime != 3000 || p.STime != 2000 {
		t.Fatalf("utime=%d stime=%d", p.UTime, p.STime)
	}
	if p.CPUTime() != 5000 {
		t.Fatalf("cputime=%d", p.CPUTime())
	}
}

func TestHWPreemptsProc(t *testing.T) {
	eng, k := newTestKernel(t)
	var doneAt sim.Time
	k.SpawnStep("a", 0, seq(compute(1000), do(func(p *Proc) { doneAt = p.Now() })))
	// At t=500, 300µs of hardware interrupt work arrives; the process's
	// compute must stretch to 1300.
	eng.At(500, func() {
		k.PostHW(WorkItem{Cost: 300})
	})
	eng.RunFor(sim.Second)
	if doneAt != 1300 {
		t.Fatalf("compute finished at %d, want 1300", doneAt)
	}
}

func TestHWPreemptsSW(t *testing.T) {
	eng, k := newTestKernel(t)
	var order []string
	eng.At(0, func() {
		k.PostSW(WorkItem{Cost: 1000, Fn: func() { order = append(order, "sw") }})
	})
	eng.At(100, func() {
		k.PostHW(WorkItem{Cost: 200, Fn: func() { order = append(order, "hw") }})
	})
	eng.RunFor(sim.Second)
	if len(order) != 2 || order[0] != "hw" || order[1] != "sw" {
		t.Fatalf("order = %v", order)
	}
	// SW work: 100µs before preemption + 900 after hw's 200 = done at 1200.
	st := k.Stats()
	if st.SWTime != 1000 || st.HWTime != 200 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSWDoesNotPreemptHW(t *testing.T) {
	eng, k := newTestKernel(t)
	var order []string
	eng.At(0, func() {
		k.PostHW(WorkItem{Cost: 500, Fn: func() { order = append(order, "hw") }})
		k.PostSW(WorkItem{Cost: 100, Fn: func() { order = append(order, "sw") }})
	})
	eng.RunFor(sim.Second)
	if len(order) != 2 || order[0] != "hw" {
		t.Fatalf("order = %v", order)
	}
}

func TestInterruptChargedToCurrentProc(t *testing.T) {
	eng, k := newTestKernel(t)
	victim := k.SpawnStep("victim", 0, seq(compute(100*1000)))
	eng.At(5000, func() {
		k.PostHW(WorkItem{Cost: 1000})
	})
	eng.RunFor(sim.Second)
	if victim.IntrCharged != 1000 {
		t.Fatalf("victim charged %d µs of interrupt time, want 1000", victim.IntrCharged)
	}
	// The mis-charge raises scheduler-visible usage beyond actual CPU time.
	if victim.EstCPU() <= victim.UTime-victim.UTime { // estcpu decays; just check it was counted
		t.Logf("estcpu=%d", victim.EstCPU())
	}
}

func TestInterruptChargedToExplicitTarget(t *testing.T) {
	eng, k := newTestKernel(t)
	victim := k.SpawnStep("victim", 0, seq(compute(100*1000)))
	other := k.SpawnStep("other", 0, seq(sleep(&WaitQ{})))
	eng.At(5000, func() {
		k.PostHW(WorkItem{Cost: 1000, ChargeTo: other})
	})
	eng.RunFor(100 * sim.Millisecond)
	if victim.IntrCharged != 0 {
		t.Fatalf("victim wrongly charged %d", victim.IntrCharged)
	}
	if other.IntrCharged != 1000 {
		t.Fatalf("target charged %d, want 1000", other.IntrCharged)
	}
}

func TestInterruptWhileIdleUnattributed(t *testing.T) {
	eng, k := newTestKernel(t)
	eng.At(100, func() { k.PostHW(WorkItem{Cost: 50}) })
	eng.RunFor(10 * sim.Millisecond)
	st := k.Stats()
	if st.IntrUnattributed != 50 {
		t.Fatalf("unattributed = %d, want 50", st.IntrUnattributed)
	}
	if st.IdleTime == 0 {
		t.Fatal("idle time not accounted")
	}
}

func TestSleepWakeup(t *testing.T) {
	eng, k := newTestKernel(t)
	wq := &WaitQ{}
	var wokeAt sim.Time
	k.SpawnStep("sleeper", 0, seq(sleep(wq), do(func(p *Proc) { wokeAt = p.Now() })))
	eng.At(7000, func() { wq.WakeupAll() })
	eng.RunFor(sim.Second)
	if wokeAt != 7000 {
		t.Fatalf("woke at %d, want 7000", wokeAt)
	}
}

func TestSleepTimeout(t *testing.T) {
	eng, k := newTestKernel(t)
	wq := &WaitQ{}
	var timedOut bool
	var at sim.Time
	k.SpawnStep("sleeper", 0, seq(sleepTimeout(wq, 3000), do(func(p *Proc) {
		timedOut = p.TimedOut()
		at = p.Now()
	})))
	eng.RunFor(sim.Second)
	if !timedOut || at != 3000 {
		t.Fatalf("timedOut=%v at=%d", timedOut, at)
	}
	if wq.Len() != 0 {
		t.Fatal("timed-out proc still on wait queue")
	}
}

func TestSleepTimeoutWokenEarly(t *testing.T) {
	eng, k := newTestKernel(t)
	wq := &WaitQ{}
	var timedOut bool
	k.SpawnStep("sleeper", 0, seq(sleepTimeout(wq, 50000), do(func(p *Proc) { timedOut = p.TimedOut() })))
	eng.At(1000, func() { wq.WakeupAll() })
	eng.RunFor(sim.Second)
	if timedOut {
		t.Fatal("reported timeout despite early wakeup")
	}
}

func TestDelay(t *testing.T) {
	eng, k := newTestKernel(t)
	var at sim.Time
	p := k.SpawnStep("d", 0, seq(delay(12345), do(func(p *Proc) { at = p.Now() })))
	eng.RunFor(sim.Second)
	if at != 12345 {
		t.Fatalf("delay ended at %d", at)
	}
	if p.CPUTime() != 0 {
		t.Fatalf("delay consumed CPU: %d", p.CPUTime())
	}
}

func TestPriorityPreemption(t *testing.T) {
	eng, k := newTestKernel(t)
	// A long-running CPU hog and a sleeper that wakes mid-run. After the
	// hog has accumulated usage, the fresh sleeper has better priority and
	// must preempt promptly (at the next dispatch opportunity).
	var hogDone, lightDone sim.Time
	k.SpawnStep("hog", 0, seq(compute(3*sim.Second), do(func(p *Proc) { hogDone = p.Now() })))
	wq := &WaitQ{}
	k.SpawnStep("light", 0, seq(sleep(wq), compute(100*1000), do(func(p *Proc) { lightDone = p.Now() })))
	eng.At(2*sim.Second, func() { wq.WakeupAll() })
	eng.RunFor(10 * sim.Second)
	if lightDone == 0 || hogDone == 0 {
		t.Fatal("processes did not finish")
	}
	// The light process should finish long before the hog's remaining
	// second of work stretches out; specifically it should not have to
	// wait for the hog to finish.
	if lightDone >= hogDone {
		t.Fatalf("light finished at %d, after hog at %d", lightDone, hogDone)
	}
}

func TestNicePenalty(t *testing.T) {
	eng, k := newTestKernel(t)
	// A nice +20 spinner must not materially delay a normal process.
	var normalDone sim.Time
	k.SpawnStep("spinner", 20, seq(repeat(1000, compute(100*1000))...))
	k.SpawnStep("normal", 0, seq(
		delay(500*1000), // arrive after spinner has the CPU
		compute(1*sim.Second),
		do(func(p *Proc) { normalDone = p.Now() }),
	))
	eng.RunFor(20 * sim.Second)
	if normalDone == 0 {
		t.Fatal("normal process starved")
	}
	// Ideal completion at 1.5s; allow some slack for round-robin effects
	// before the priorities separate.
	if normalDone > 2*sim.Second {
		t.Fatalf("normal finished at %v, niced spinner interfered too much", normalDone)
	}
}

func TestRoundRobinSharesEqualPriority(t *testing.T) {
	eng, k := newTestKernel(t)
	var aDone, bDone sim.Time
	k.SpawnStep("a", 0, seq(compute(1*sim.Second), do(func(p *Proc) { aDone = p.Now() })))
	k.SpawnStep("b", 0, seq(compute(1*sim.Second), do(func(p *Proc) { bDone = p.Now() })))
	eng.RunFor(10 * sim.Second)
	if aDone == 0 || bDone == 0 {
		t.Fatal("did not finish")
	}
	// With fair sharing both finish near 2s, far from the serial schedule
	// where one finishes at 1s.
	if aDone < 1500*sim.Millisecond || bDone < 1500*sim.Millisecond {
		t.Fatalf("a=%d b=%d: scheduling was serial, not time-shared", aDone, bDone)
	}
}

func TestContextSwitchCost(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, "test")
	defer k.Shutdown()
	k.CtxSwitchCost = 100
	var aDone, bDone sim.Time
	k.SpawnStep("a", 0, seq(compute(20*1000), do(func(p *Proc) { aDone = p.Now() })))
	k.SpawnStep("b", 0, seq(compute(20*1000), do(func(p *Proc) { bDone = p.Now() })))
	eng.RunFor(sim.Second)
	// Both bursts are short enough that neither accumulates a priority
	// point, so the schedule is a, then b; only b pays a switch cost (a's
	// dispatch had no predecessor on the CPU).
	if aDone != 20*1000 {
		t.Fatalf("a done at %d", aDone)
	}
	if bDone != 40*1000+100 {
		t.Fatalf("b done at %d, want 40100", bDone)
	}
	if k.Stats().CtxSwitches != 1 {
		t.Fatalf("switches = %d", k.Stats().CtxSwitches)
	}
}

func TestCachePenalty(t *testing.T) {
	eng, k := newTestKernel(t)
	var done sim.Time
	p := k.SpawnStep("memory-bound", 0, seq(compute(10*1000), do(func(p *Proc) { done = p.Now() })))
	p.CachePenalty = 500
	eng.At(2000, func() { k.PostHW(WorkItem{Cost: 100}) })
	eng.RunFor(sim.Second)
	// Interrupt work does not change lastOnCPU, so no cache refill charge
	// for interrupts (the penalty models losing the CPU to another proc).
	if p.CacheRefills != 0 {
		t.Fatalf("refills = %d from interrupt", p.CacheRefills)
	}
	if done != 10*1000+100 {
		t.Fatalf("done at %d", done)
	}
}

func TestCachePenaltyOnProcessSwitch(t *testing.T) {
	eng, k := newTestKernel(t)
	wq := &WaitQ{}
	worker := k.SpawnStep("worker", 0, seq(compute(400*1000)))
	worker.CachePenalty = 1000
	k.SpawnStep("intruder", 0, seq(sleep(wq), compute(1000)))
	eng.At(50*1000, func() { wq.WakeupAll() })
	eng.RunFor(5 * sim.Second)
	if worker.CacheRefills == 0 {
		t.Fatal("worker never paid a cache refill after losing the CPU")
	}
}

func TestPrioProxy(t *testing.T) {
	eng, k := newTestKernel(t)
	owner := k.SpawnStep("owner", 0, seq(sleep(&WaitQ{})))
	app := k.SpawnStep("app-thread", 0, seq(sleep(&WaitQ{})))
	app.PrioProxy = owner
	eng.RunFor(10 * sim.Millisecond)
	if app.Prio() != owner.Prio() {
		t.Fatalf("proxy prio %d != owner prio %d", app.Prio(), owner.Prio())
	}
}

func TestComputeSysForChargesOwner(t *testing.T) {
	eng, k := newTestKernel(t)
	owner := k.SpawnStep("owner", 0, seq(sleep(&WaitQ{})))
	k.SpawnStep("app-thread", 0, seq(func(p *Proc) bool { return p.ReqComputeSysFor(owner, 4000) }))
	eng.RunFor(100 * sim.Millisecond)
	if owner.STime != 4000 {
		t.Fatalf("owner stime = %d, want 4000", owner.STime)
	}
	if owner.EstCPU() == 0 {
		t.Fatal("owner scheduler usage not charged")
	}
}

func TestDecayReducesUsage(t *testing.T) {
	eng, k := newTestKernel(t)
	p := k.SpawnStep("a", 0, seq(compute(500*1000), sleep(&WaitQ{})))
	eng.RunFor(900 * sim.Millisecond)
	before := p.EstCPU()
	eng.RunFor(3 * sim.Second)
	after := p.EstCPU()
	if before == 0 {
		t.Fatal("no usage accumulated")
	}
	if after >= before {
		t.Fatalf("usage did not decay: %d -> %d", before, after)
	}
}

func TestExit(t *testing.T) {
	eng, k := newTestKernel(t)
	p := k.SpawnStep("e", 0, seq(
		compute(1000),
		func(p *Proc) bool { return p.ReqExit() },
		do(func(p *Proc) { t.Error("process ran after its exit request") }),
	))
	eng.RunFor(sim.Second)
	if !p.Dead() {
		t.Fatal("process not dead after Exit")
	}
	if p.ExitTime != 1000 {
		t.Fatalf("exit time %d", p.ExitTime)
	}
}

func TestNormalReturnExits(t *testing.T) {
	eng, k := newTestKernel(t)
	p := k.SpawnStep("r", 0, seq())
	eng.RunFor(sim.Millisecond)
	if !p.Dead() {
		t.Fatal("process not dead after return")
	}
}

func TestSpawnFromProcess(t *testing.T) {
	eng, k := newTestKernel(t)
	var childDone sim.Time
	k.SpawnStep("parent", 0, seq(
		compute(1000),
		do(func(p *Proc) {
			k.SpawnStep("child", 0, seq(compute(2000), do(func(c *Proc) { childDone = c.Now() })))
		}),
		compute(1000),
	))
	eng.RunFor(sim.Second)
	if childDone == 0 {
		t.Fatal("child never ran")
	}
}

func TestWakeupFromProcess(t *testing.T) {
	eng, k := newTestKernel(t)
	wq := &WaitQ{}
	var got sim.Time
	k.SpawnStep("sleeper", 0, seq(sleep(wq), do(func(p *Proc) { got = p.Now() })))
	k.SpawnStep("waker", 0, seq(compute(5000), do(func(p *Proc) { wq.WakeupAll() })))
	eng.RunFor(sim.Second)
	if got != 5000 {
		t.Fatalf("woke at %d, want 5000", got)
	}
}

func TestWakeupBestPicksHighestPriority(t *testing.T) {
	eng, k := newTestKernel(t)
	wq := &WaitQ{}
	var woken []string
	mk := func(name string, nice int) {
		k.SpawnStep(name, nice, seq(sleep(wq), do(func(p *Proc) { woken = append(woken, name) })))
	}
	mk("low", 10)
	mk("high", 0)
	eng.At(50*sim.Millisecond, func() { wq.WakeupBest() })
	eng.RunFor(200 * sim.Millisecond)
	if len(woken) != 1 || woken[0] != "high" {
		t.Fatalf("woken = %v, want [high]", woken)
	}
}

func TestStatsBalance(t *testing.T) {
	eng, k := newTestKernel(t)
	k.SpawnStep("a", 0, seq(compute(30*1000)))
	eng.At(1000, func() { k.PostHW(WorkItem{Cost: 2000}) })
	eng.At(2000, func() { k.PostSW(WorkItem{Cost: 3000}) })
	eng.RunFor(100 * sim.Millisecond)
	st := k.Stats()
	total := st.Busy() + st.IdleTime
	if total != eng.Now() {
		t.Fatalf("accounted %d µs of %d", total, eng.Now())
	}
	if st.HWTime != 2000 || st.SWTime != 3000 || st.ProcTime != 30*1000 {
		t.Fatalf("stats %+v", st)
	}
}

// TestShutdownTerminatesGoroutines pins that Shutdown retires every
// process — sleeping, mid-burst, or never dispatched — and leaves no
// event behind that would step one again. (Processes have no goroutines
// of their own; the name predates that.)
func TestShutdownTerminatesGoroutines(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, "test")
	wq := &WaitQ{}
	ran := false
	k.SpawnStep("sleeper", 0, seq(sleep(wq), do(func(p *Proc) { ran = true })))
	k.SpawnStep("computer", 0, seq(compute(sim.Second), do(func(p *Proc) { ran = true })))
	k.SpawnStep("never-ran", 0, seq(compute(1)))
	eng.RunFor(10 * sim.Millisecond)
	k.Shutdown()
	eng.RunFor(2 * sim.Second)
	if ran {
		t.Fatal("a process was stepped after Shutdown")
	}
	for _, p := range k.Procs() {
		if !p.Dead() {
			t.Fatalf("proc %s alive after shutdown", p.Name)
		}
	}
}

func TestMisAccountingRaisesVictimUsage(t *testing.T) {
	// The scheduling-relevant consequence of BSD charging: a process that
	// merely suffers interrupts accumulates scheduler usage and loses
	// priority relative to an identical undisturbed process.
	eng, k := newTestKernel(t)
	victim := k.SpawnStep("victim", 0, seq(compute(2*sim.Second)))
	peer := k.SpawnStep("peer", 0, seq(compute(2*sim.Second)))
	// Steady interrupt load, always charged to curproc.
	var pump func()
	pump = func() {
		if eng.Now() > 900*sim.Millisecond {
			return
		}
		k.PostHW(WorkItem{Cost: 50})
		eng.After(200, pump)
	}
	eng.At(0, pump)
	eng.RunFor(900 * sim.Millisecond)
	tot := victim.IntrCharged + peer.IntrCharged
	if tot == 0 {
		t.Fatal("no interrupt time charged")
	}
	// Both run round-robin so both get charged; the sum must equal the
	// interrupt time delivered.
	if st := k.Stats(); st.HWTime != tot {
		t.Fatalf("hw time %d, charged %d", st.HWTime, tot)
	}
}
