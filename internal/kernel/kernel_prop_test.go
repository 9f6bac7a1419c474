package kernel

// Property and invariant tests: the kernel's accounting must balance and
// its scheduler must stay fair under arbitrary workloads.

import (
	"testing"
	"testing/quick"

	"lrp/internal/sim"
)

// TestAccountingBalanceProperty: for any random mix of processes,
// interrupts and sleeps, total accounted time (bands + idle) equals
// elapsed time, and per-process CPU time sums to the process band total.
func TestAccountingBalanceProperty(t *testing.T) {
	f := func(seed uint64, nProcs, nIntrs uint8) bool {
		rng := sim.NewRand(seed)
		eng := sim.NewEngine()
		k := New(eng, "prop")
		defer k.Shutdown()

		procs := int(nProcs%5) + 1
		for i := 0; i < procs; i++ {
			nice := int(rng.Int63n(3)) * 10
			k.SpawnStep("p", nice, loop(
				func(p *Proc) bool { return p.ReqCompute(rng.Int63n(5000) + 1) },
				func(p *Proc) bool { return rng.Float64() < 0.3 && p.ReqDelay(rng.Int63n(3000)+1) },
				func(p *Proc) bool { return rng.Float64() < 0.2 && p.ReqComputeSys(rng.Int63n(1000)+1) },
			))
		}
		intrs := int(nIntrs%30) + 1
		for i := 0; i < intrs; i++ {
			at := rng.Int63n(900 * 1000)
			cost := rng.Int63n(200) + 1
			sw := rng.Float64() < 0.5
			eng.At(at, func() {
				if sw {
					k.PostSW(WorkItem{Cost: cost})
				} else {
					k.PostHW(WorkItem{Cost: cost})
				}
			})
		}
		eng.RunFor(sim.Second)
		st := k.Stats()
		if st.Busy()+st.IdleTime != eng.Now() {
			return false
		}
		var procSum int64
		var charged int64
		for _, p := range k.Procs() {
			procSum += p.UTime + p.STime
			charged += p.IntrCharged
		}
		if procSum != st.ProcTime {
			return false
		}
		if charged+st.IntrUnattributed != st.HWTime+st.SWTime {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFairShareLongRun: N identical CPU-bound processes each get ~1/N.
func TestFairShareLongRun(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, "fair")
	defer k.Shutdown()
	const n = 4
	procs := make([]*Proc, n)
	for i := 0; i < n; i++ {
		procs[i] = k.SpawnStep("worker", 0, Hog(777))
	}
	eng.RunFor(20 * sim.Second)
	for i, p := range procs {
		share := float64(p.UTime) / float64(eng.Now())
		if share < 0.22 || share > 0.28 {
			t.Fatalf("proc %d share = %.3f, want ~0.25", i, share)
		}
	}
}

// TestDeterminism: identical runs produce identical accounting.
func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		eng := sim.NewEngine()
		k := New(eng, "det")
		defer k.Shutdown()
		rng := sim.NewRand(42)
		for i := 0; i < 3; i++ {
			k.SpawnStep("p", i*5, loop(
				func(p *Proc) bool { return p.ReqCompute(rng.Int63n(900) + 1) },
				func(p *Proc) bool { return p.ReqDelay(rng.Int63n(300) + 1) },
			))
		}
		var pump func()
		pump = func() {
			k.PostHW(WorkItem{Cost: 40})
			eng.After(777, pump)
		}
		eng.At(0, pump)
		eng.RunFor(2 * sim.Second)
		var out []int64
		for _, p := range k.Procs() {
			out = append(out, p.UTime, p.STime, p.IntrCharged, int64(p.CtxSwitches))
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different process counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestPrioProxyScheduling: a proxy thread inherits its owner's priority,
// so a proxy for a fresh (high-priority) owner preempts a CPU hog.
func TestPrioProxyScheduling(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, "proxy")
	defer k.Shutdown()
	k.SpawnStep("hog", 0, Hog(sim.Second))
	owner := k.SpawnStep("owner", 0, seq(sleep(&WaitQ{})))
	var appDone sim.Time
	wq := &WaitQ{}
	appThread := k.SpawnStep("app-thread", 0, seq(
		sleep(wq),
		func(p *Proc) bool { return p.ReqComputeSysFor(owner, 10*1000) },
		do(func(p *Proc) { appDone = p.Now() }),
	))
	appThread.PrioProxy = owner
	// Let the hog accumulate usage, then wake the proxy thread.
	eng.At(2*sim.Second, func() { wq.WakeupAll() })
	eng.RunFor(5 * sim.Second)
	if appDone == 0 {
		t.Fatal("proxy thread never ran")
	}
	// The sleeping owner's priority is pristine while the hog's decayed,
	// so the proxy should get the CPU promptly (well before the hog's
	// next full second of work completes).
	if appDone > 2*sim.Second+200*sim.Millisecond {
		t.Fatalf("proxy thread done at %d, was not prioritized", appDone)
	}
	if owner.STime != 10*1000 {
		t.Fatalf("owner charged %d", owner.STime)
	}
}

// TestTwoKernelsShareEngine: two hosts on one engine stay independent.
func TestTwoKernelsShareEngine(t *testing.T) {
	eng := sim.NewEngine()
	k1 := New(eng, "host1")
	k2 := New(eng, "host2")
	defer k1.Shutdown()
	defer k2.Shutdown()
	p1 := k1.SpawnStep("a", 0, Hog(1000))
	p2 := k2.SpawnStep("b", 0, Hog(1000))
	eng.RunFor(sim.Second)
	// Each host has its own CPU: both processes run at full speed.
	if p1.UTime < 990*1000 || p2.UTime < 990*1000 {
		t.Fatalf("cross-kernel interference: %d, %d", p1.UTime, p2.UTime)
	}
	// Interrupt work on one kernel must not charge processes on the other.
	k1.PostHW(WorkItem{Cost: 100})
	eng.RunFor(sim.Millisecond)
	if p2.IntrCharged != 0 {
		t.Fatal("interrupt charged across kernels")
	}
}

// TestIntrPenaltyAppliesOncePerDisturbance: penalties fire per resume, not
// per interrupt item.
func TestIntrPenaltyAppliesOncePerDisturbance(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, "pen")
	defer k.Shutdown()
	p := k.SpawnStep("sensitive", 0, seq(compute(100*1000)))
	p.IntrPenalty = 50
	// Three back-to-back interrupts at one instant: one disturbance.
	eng.At(10*1000, func() {
		k.PostHW(WorkItem{Cost: 10})
		k.PostHW(WorkItem{Cost: 10})
		k.PostHW(WorkItem{Cost: 10})
	})
	eng.RunFor(sim.Second)
	if p.IntrRefills != 1 {
		t.Fatalf("refills = %d, want 1 for one interrupt batch", p.IntrRefills)
	}
	// Work stretched by 3 interrupts + 1 refill.
	if p.UTime != 100*1000+50 {
		t.Fatalf("utime = %d", p.UTime)
	}
}

// TestSleepBoostFavorsInteractive: a process that mostly sleeps keeps a
// better priority than a CPU hog and gets the CPU promptly on wakeup.
func TestSleepBoostFavorsInteractive(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, "boost")
	defer k.Shutdown()
	k.SpawnStep("hog", 0, Hog(sim.Second))
	var worst int64
	var start sim.Time
	inter := k.SpawnStep("interactive", 0, loop(
		delay(50*sim.Millisecond),
		do(func(p *Proc) { start = p.Now() }),
		compute(1000),
		do(func(p *Proc) {
			if d := p.Now() - start - 1000; d > worst {
				worst = d
			}
		}),
	))
	eng.RunFor(10 * sim.Second)
	if inter.UTime == 0 {
		t.Fatal("interactive process starved")
	}
	// After priorities separate, the interactive process should preempt
	// the hog within a tick or two.
	if worst > 50*sim.Millisecond {
		t.Fatalf("interactive process waited %dµs for the CPU", worst)
	}
}

// TestChargedTimeAffectsScheduling: the end-to-end consequence of BSD
// mis-accounting — two identical compute processes, one of which is
// additionally billed interrupt time, split the CPU unevenly.
func TestChargedTimeAffectsScheduling(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, "bias")
	defer k.Shutdown()
	victim := k.SpawnStep("victim", 0, Hog(500))
	peer := k.SpawnStep("peer", 0, Hog(500))
	// A steady interrupt load explicitly billed to the victim.
	var pump func()
	pump = func() {
		k.PostHW(WorkItem{Cost: 30, ChargeTo: victim})
		eng.After(100, pump)
	}
	eng.At(0, pump)
	eng.RunFor(10 * sim.Second)
	// The victim's scheduler-visible usage includes 30% phantom load, so
	// its real CPU share falls well below its peer's.
	if victim.UTime >= peer.UTime {
		t.Fatalf("victim %dµs >= peer %dµs; charged time did not bias scheduling",
			victim.UTime, peer.UTime)
	}
	gap := float64(peer.UTime-victim.UTime) / float64(peer.UTime)
	if gap < 0.15 {
		t.Fatalf("scheduling bias only %.2f; expected pronounced effect", gap)
	}
}
