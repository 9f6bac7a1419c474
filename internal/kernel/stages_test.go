package kernel

// Test process bodies written as lists of stages, so a test reads in the
// order the process acts.

// stage is one piece of a test process body. It runs at a dispatch and
// reports whether it issued a request; if so the process returns to the
// scheduler and the next stage runs at its next dispatch.
type stage func(p *Proc) (yielded bool)

// seq returns a StepFn that runs stages in order and then exits.
func seq(stages ...stage) StepFn {
	i := 0
	return func(p *Proc) {
		for i < len(stages) {
			i++
			if stages[i-1](p) {
				return
			}
		}
		p.ReqExit()
	}
}

// loop returns a StepFn that runs stages in order, forever. At least one
// stage must yield on every pass.
func loop(stages ...stage) StepFn {
	i := 0
	return func(p *Proc) {
		for {
			s := stages[i]
			i = (i + 1) % len(stages)
			if s(p) {
				return
			}
		}
	}
}

// repeat returns n copies of stages, for spreading into seq.
func repeat(n int, stages ...stage) []stage {
	var out []stage
	for ; n > 0; n-- {
		out = append(out, stages...)
	}
	return out
}

func compute(d int64) stage    { return func(p *Proc) bool { return p.ReqCompute(d) } }
func computeSys(d int64) stage { return func(p *Proc) bool { return p.ReqComputeSys(d) } }
func delay(d int64) stage      { return func(p *Proc) bool { return p.ReqDelay(d) } }
func sleep(wq *WaitQ) stage    { return func(p *Proc) bool { return p.ReqSleep(wq) } }

func sleepTimeout(wq *WaitQ, timeout int64) stage {
	return func(p *Proc) bool { return p.ReqSleepTimeout(wq, timeout) }
}

// do runs f without issuing a request.
func do(f func(p *Proc)) stage { return func(p *Proc) bool { f(p); return false } }
