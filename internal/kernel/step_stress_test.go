package kernel

// Stress coverage for stackless processes: the 100k-proc world they make
// cheap (100k goroutines would cost gigabytes of stacks and channel-pair
// context switches).

import (
	"testing"

	"lrp/internal/sim"
)

// TestStackless100kProcs holds 100,000 stackless processes asleep in one
// world, then runs every one through a full lifecycle — wake, compute,
// wake the next, exit — and checks each finishes with exact accounting.
// Per-proc footprint is one Proc plus one closure; a goroutine per
// process would need ~100k stacks. Spawning is staggered in batches so
// the runnable set stays small (the scheduler's pick is O(runnable),
// priced for worlds where nearly everything is blocked on I/O — the
// paper's server scenario — not for 100k simultaneously-runnable procs).
func TestStackless100kProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-process world; skipped in -short")
	}
	eng, k := newTestKernel(t)
	const (
		n     = 100_000
		batch = 100
	)
	wqs := make([]WaitQ, n)
	procs := make([]*Proc, n)
	done := 0
	for b := 0; b < n/batch; b++ {
		lo := b * batch
		eng.At(int64(b+1), func() {
			for i := lo; i < lo+batch; i++ {
				i := i
				pc := 0
				procs[i] = k.SpawnStep("stress", 0, func(p *Proc) {
					for {
						switch pc {
						case 0:
							pc = 1
							p.ReqSleep(&wqs[i])
							return
						case 1:
							pc = 2
							if p.ReqCompute(10) {
								return
							}
						case 2:
							pc = 3
							if p.ReqComputeSys(5) {
								return
							}
						case 3:
							done++
							if i+1 < n {
								wqs[i+1].WakeupAll()
							}
							p.ReqExit()
							return
						}
					}
				})
			}
		})
	}
	// All batches are spawned and asleep well before t=10ms: 100k live
	// processes in one world. Then a wakeup chain passes through every
	// process in sequence.
	eng.At(10*sim.Millisecond, func() { wqs[0].WakeupAll() })
	// The chain consumes 100k × 15µs = 1.5 simulated seconds of CPU.
	eng.RunFor(3 * sim.Second)
	if done != n {
		t.Fatalf("%d of %d processes completed", done, n)
	}
	for _, p := range procs {
		if !p.Dead() {
			t.Fatalf("process %s not dead after completing", p.Name)
		}
		if p.UTime != 10 || p.STime != 5 {
			t.Fatalf("accounting utime=%d stime=%d, want 10/5", p.UTime, p.STime)
		}
	}
}
