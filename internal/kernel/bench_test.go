package kernel

import (
	"testing"

	"lrp/internal/sim"
)

// The kernel benchmarks measure the simulator's own execution engine: how
// much real CPU one simulated context switch, one Consume round trip, and
// one sleep/wakeup cycle cost. Every experiment in the suite is built out
// of millions of these operations, so they are the denominator of total
// suite wall-clock time. BENCH_kernel.json records the numbers.

// benchKernel builds a kernel on a fresh engine.
func benchKernel() (*sim.Engine, *Kernel) {
	eng := sim.NewEngine()
	return eng, New(eng, "bench")
}

// BenchmarkConsume measures the Compute round trip of a single stackless
// process that keeps the CPU: the process requests a 10 µs burst, the
// burst completes, and the scheduler steps the same process inline. One
// op = one step.
func BenchmarkConsume(b *testing.B) {
	eng, k := benchKernel()
	k.SpawnStep("worker", 0, func(p *Proc) {
		p.ReqCompute(10)
	})
	eng.RunFor(sim.Millisecond) // settle: clocks armed, free lists warm
	b.ResetTimer()
	eng.RunFor(int64(b.N) * 10)
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkConsumeSys is BenchmarkConsume for system-time bursts with an
// explicit charge target, the LRP protocol-thread accounting path.
func BenchmarkConsumeSys(b *testing.B) {
	eng, k := benchKernel()
	owner := k.SpawnStep("owner", 0, func(p *Proc) {
		p.ReqCompute(10)
	})
	k.SpawnStep("proto", 0, func(p *Proc) {
		p.ReqComputeSysFor(owner, 10)
	})
	eng.RunFor(sim.Millisecond)
	b.ResetTimer()
	eng.RunFor(int64(b.N) * 10)
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkContextSwitch measures a full simulated context switch
// between two stackless processes: two equal-priority state machines
// alternately compute, wake the other, and sleep. One op = one handoff
// from one process to the other — a function return plus a function
// call, no goroutine switch.
func BenchmarkContextSwitch(b *testing.B) {
	eng, k := benchKernel()
	var aq, bq WaitQ
	pingpong := func(self, other *WaitQ) StepFn {
		computed := false
		return func(p *Proc) {
			if !computed {
				computed = true
				p.ReqCompute(5)
				return
			}
			other.WakeupAll()
			computed = false
			p.ReqSleep(self)
		}
	}
	k.SpawnStep("a", 0, pingpong(&aq, &bq))
	k.SpawnStep("b", 0, pingpong(&bq, &aq))
	eng.RunFor(sim.Millisecond)
	b.ResetTimer()
	eng.RunFor(int64(b.N) * 5)
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkSleepWakeup measures the timer path: a stackless process
// sleeps with a timeout and is woken by the engine each cycle. One op =
// one SleepTimeout round trip (park, timer event, wakeup, dispatch).
func BenchmarkSleepWakeup(b *testing.B) {
	eng, k := benchKernel()
	var wq WaitQ
	k.SpawnStep("sleeper", 0, func(p *Proc) {
		p.ReqSleepTimeout(&wq, 10)
	})
	eng.RunFor(sim.Millisecond)
	b.ResetTimer()
	eng.RunFor(int64(b.N) * 10)
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkInterruptedConsume measures a compute burst that is repeatedly
// preempted by interrupt-level work, the overload scenario of Figure 3:
// the process must resume its burst after every interrupt without a
// process-level context switch. The WorkItem free list and the event
// pool make the whole cycle allocation-free.
func BenchmarkInterruptedConsume(b *testing.B) {
	eng, k := benchKernel()
	k.SpawnStep("worker", 0, func(p *Proc) {
		p.ReqCompute(10)
	})
	var post func()
	post = func() {
		if k.shutdown {
			return
		}
		k.PostHW(WorkItem{Cost: 2})
		eng.After(10, post)
	}
	eng.After(10, post)
	eng.RunFor(sim.Millisecond)
	b.ResetTimer()
	eng.RunFor(int64(b.N) * 12)
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkSpawn100k measures cold spawn throughput of stackless
// processes — the path the 100k-process worlds lean on.
func BenchmarkSpawn100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, k := benchKernel()
		var wq WaitQ
		for i := 0; i < 100_000; i++ {
			k.SpawnStep("p", 0, func(p *Proc) {
				p.ReqSleep(&wq)
			})
		}
		eng.RunFor(sim.Millisecond)
		k.Shutdown()
	}
}
