package kernel

// Process bodies.
//
// A process has no goroutine and no stack of its own: its body is an
// explicit state machine — a StepFn closed over a state word and typed
// locals — that the scheduler calls inline at every dispatch. A step
// stores one typed request in the Proc's req* fields via a Req* setter
// (compute, sleep, delay, exit) and returns; the scheduler applies the
// request and picks the next work. A simulated context switch is then a
// function return plus a function call, with no channel operations and
// no goroutine wakeup. See DESIGN.md §11.

// StepFn is the body of a process. The scheduler calls it once per
// dispatch; it must store exactly one request via a Req* setter before
// returning (returning with no request pending is a fatal error).
// Control state lives in the closure (or a struct the closure points
// at), not on a stack.
type StepFn func(*Proc)

// Hog returns the body of a compute-bound process that never blocks: at
// every dispatch it requests quantum microseconds of user CPU. A hog's
// CPU share measures how much of the machine network processing leaves
// to an application.
func Hog(quantum int64) StepFn {
	return func(p *Proc) { p.ReqCompute(quantum) }
}

// Request setters. Each stores a typed request and reports whether the
// caller must return to the scheduler. A false result (zero-cost compute,
// zero delay) means the request is a no-op and the step may simply
// continue, so step machines can be written as
// `if p.ReqCompute(d) { frame.pc = next; return }`.

// ReqCompute requests d microseconds of user-time CPU. The process may be
// preempted and interrupted while computing; its next step runs once d
// microseconds of CPU have actually been granted.
//
//lrp:hotpath
func (p *Proc) ReqCompute(d int64) bool {
	if d <= 0 {
		return false
	}
	p.reqKind = reqConsume
	p.reqD = d
	p.reqSys = false
	p.reqChargeTo = nil
	return true
}

// ReqComputeSys requests d microseconds of system-time CPU: work done in
// kernel context on this process's behalf (system calls, lazy protocol
// processing, data copies).
//
//lrp:hotpath
func (p *Proc) ReqComputeSys(d int64) bool {
	if d <= 0 {
		return false
	}
	p.reqKind = reqConsume
	p.reqD = d
	p.reqSys = true
	p.reqChargeTo = nil
	return true
}

// ReqComputeSysFor requests d microseconds of system-time CPU whose
// scheduler usage is charged to owner. The LRP asynchronous TCP
// processing thread uses this so that "CPU usage is charged back to that
// application".
//
//lrp:hotpath
func (p *Proc) ReqComputeSysFor(owner *Proc, d int64) bool {
	if d <= 0 {
		return false
	}
	p.reqKind = reqConsume
	p.reqD = d
	p.reqSys = true
	p.reqChargeTo = owner
	return true
}

// ReqSleep requests a block on wq until a wakeup. It always requires a
// return to the scheduler.
//
//lrp:hotpath
func (p *Proc) ReqSleep(wq *WaitQ) bool {
	p.reqKind = reqSleep
	p.reqWq = wq
	p.reqTimeout = 0
	return true
}

// ReqSleepTimeout requests a block on wq until a wakeup or until
// timeout microseconds pass. After the process is next stepped, TimedOut
// reports which one ended the sleep.
//
//lrp:hotpath
func (p *Proc) ReqSleepTimeout(wq *WaitQ, timeout int64) bool {
	p.reqKind = reqSleep
	p.reqWq = wq
	if timeout > 0 {
		p.reqTimeout = timeout
	} else {
		p.reqTimeout = 0
	}
	return true
}

// ReqDelay requests a block for d microseconds of simulated time
// without consuming CPU (like sleeping on a timer), using the process's
// private delay queue.
//
//lrp:hotpath
func (p *Proc) ReqDelay(d int64) bool {
	if d <= 0 {
		return false
	}
	p.reqKind = reqSleep
	p.reqWq = &p.delayWq
	p.reqTimeout = d
	return true
}

// ReqExit requests process termination.
func (p *Proc) ReqExit() bool {
	p.reqKind = reqExit
	return true
}

// TimedOut reports whether the process's last timed sleep ended by
// timeout rather than wakeup. Valid from the dispatch that follows a
// ReqSleepTimeout until the next sleep.
func (p *Proc) TimedOut() bool { return p.timedOut }
