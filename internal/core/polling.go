package core

// The Mogul & Ramakrishnan polling mitigation (USENIX '96), which the
// paper's related work compares against: "These techniques avoid receiver
// livelock by temporarily disabling hardware interrupts and using polling
// under conditions of overload. Disabling interrupts limits the interrupt
// rate and causes early packet discard by the network interface. Polling
// is used to ensure progress by fairly allocating resources among receive
// and transmit processing." The paper notes its overload stability is
// comparable to NI-LRP's, but "their system does not achieve traffic
// separation ... does not attempt to charge resources spent in network
// processing to the receiving application, and it does not attempt to
// reduce context switching."
//
// The implementation reuses the BSD eager path verbatim: its interrupt is
// BSD's queue-0 interrupt, and its driver step is bsdDriverStepQ, whose
// one Polling-specific line is the overload check. Only the interrupt
// discipline changes. Under overload (IP queue occupancy at or above
// PollEnterThresh after a driver step), receive interrupts are disabled
// and a periodic poll admits at most PollBatch packets per PollInterval;
// arrivals beyond the ring bound die on the adaptor at no host cost. A
// poll that finds the ring empty re-enables interrupts. Polling is
// single-queue: NewHost clamps it to one receive queue, on CPU 0.

import "lrp/internal/kernel"

// enterPolledMode disables receive interrupts and starts the poll cycle.
func (h *Host) enterPolledMode() {
	if h.polled {
		return
	}
	h.polled = true
	h.stats.PollTransitions++
	h.NIC.SetIntrEnabled(false)
	h.NIC.IntrDone(0)
	h.Eng.After(h.CM.PollInterval, h.pollPass)
}

// pollPass runs once per PollInterval in polled mode: admit a bounded
// batch from the ring (as software-interrupt work, like the BSD driver
// would), or exit polled mode if the ring is empty.
func (h *Host) pollPass() {
	if !h.polled {
		return
	}
	ipq := h.ipqs[0]
	n := h.NIC.RxPending(0)
	if n == 0 && ipq.Len() == 0 {
		h.polled = false
		h.NIC.SetIntrEnabled(true)
		return
	}
	if n == 0 {
		// Ring drained but protocol work still queued: stay polled.
		h.Eng.After(h.CM.PollInterval, h.pollPass)
		return
	}
	if n > h.CM.PollBatch {
		n = h.CM.PollBatch
	}
	// The poll's driver work: one fixed dispatch plus per-packet cost,
	// charged like any interrupt-level work (to whoever runs — polling
	// does not fix BSD's accounting).
	h.K.PostSW(kernel.WorkItem{
		Cost: h.CM.SWDispatchFixed + int64(n)*h.CM.DriverPerPkt,
		Fn: func() {
			for i := 0; i < n; i++ {
				m := h.NIC.RxDequeue(0)
				if m == nil {
					break
				}
				if ipq.Enqueue(m) {
					h.K.PostSW(kernel.WorkItem{
						Cost: h.protoInCost(m.Data, true) + h.CM.EagerProtoPenalty,
						Fn:   h.bsdSoftintFns[0],
					})
				}
			}
		},
	})
	h.Eng.After(h.CM.PollInterval, h.pollPass)
}
