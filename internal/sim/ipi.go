package sim

// IPI models an inter-processor interrupt line: a one-way signal from
// one simulated CPU to another with a fixed delivery latency. Like the
// hardware it models, the line is level-triggered and coalescing —
// sending while a delivery is already in flight does not queue a second
// delivery, it is absorbed into the pending one. The receiver's handler
// must therefore drain all work made visible to it (a wakeup list, a
// reschedule flag), not assume one signal per unit of work.
//
// Deliveries are ordinary engine events, so IPIs interleave with all
// other simulated activity in deterministic (when, seq) order: two runs
// that send the same IPIs at the same instants deliver them
// identically.
type IPI struct {
	Eng *Engine
	// Latency is the signal's flight time in microseconds.
	Latency int64
	// Deliver runs in engine context when the signal lands.
	Deliver func()

	// Sent and Delivered count signals; Sent - Delivered - (0 or 1
	// in-flight) signals were coalesced.
	Sent      uint64
	Delivered uint64

	pending bool
	fire    func() // cached delivery thunk; built on first Send
}

// Send raises the line. If a delivery is already in flight the signal
// coalesces into it and no new event is scheduled.
//
//lrp:hotpath
func (i *IPI) Send() {
	i.Sent++
	if i.pending {
		return
	}
	if i.fire == nil {
		i.fire = func() { //lrp:coldalloc one thunk per line, built on first use
			i.pending = false
			i.Delivered++
			i.Deliver()
		}
	}
	i.pending = true
	i.Eng.After(i.Latency, i.fire)
}

// Pending reports whether a delivery is in flight.
func (i *IPI) Pending() bool { return i.pending }
