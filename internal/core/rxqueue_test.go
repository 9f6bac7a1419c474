package core

import (
	"testing"

	"lrp/internal/fault"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/race"
	"lrp/internal/sim"
)

// A spurious interrupt runs queue 0's driver on CPU 0, which finds the
// ring empty: the host pays the dispatch and nothing else. That cost
// must not depend on how many receive queues the NIC has.
func TestSpuriousInterruptsCostTheSameAtAnyQueueCount(t *testing.T) {
	for _, arch := range []Arch{ArchBSD, ArchSoftLRP, ArchEarlyDemux} {
		t.Run(arch.String(), func(t *testing.T) {
			var hw [2]int64
			for i, nq := range []int{1, 2} {
				eng := sim.NewEngine()
				h := NewHost(eng, netsim.New(eng), Config{Name: "server", Addr: addrB, Arch: arch, CPUs: 2, RxQueues: nq})
				plan := fault.NICPlan{SpuriousIntrs: []fault.IntrFault{{PeriodUs: 1000}}}
				if _, err := fault.InstallNIC(eng, h.NIC, h.Pool, plan); err != nil {
					t.Fatal(err)
				}
				eng.RunFor(100 * sim.Millisecond)
				hw[i] = h.K.Stats().HWTime
				h.Shutdown()
			}
			if hw[0] == 0 || hw[0] != hw[1] {
				t.Fatalf("CPU 0 interrupt time under 1000 spurious intrs/s: %d µs with one queue, %d µs with two; want equal and nonzero", hw[0], hw[1])
			}
		})
	}
}

// The uniprocessor receive path allocates nothing per packet once warmed
// up: NIC.Rx, the interrupt, driver step, demux and protocol input. The
// socket is never read, so after the warm-up its queue is full and every
// packet is dropped at the socket queue (Early-Demux: before protocol
// input).
func TestUniprocessorRxPathZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	b := pkt.UDPPacket(addrA, addrB, 9, 7, 1, 64, make([]byte, 14), true)
	for _, arch := range []Arch{ArchBSD, ArchSoftLRP, ArchEarlyDemux, ArchPolling} {
		t.Run(arch.String(), func(t *testing.T) {
			eng := sim.NewEngine()
			h := NewHost(eng, netsim.New(eng), Config{Name: "server", Addr: addrB, Arch: arch})
			defer h.Shutdown()
			if err := h.BindUDP(h.NewUDPSocket(nil), 7); err != nil {
				t.Fatal(err)
			}
			round := func() {
				h.NIC.Rx(b)
				eng.RunFor(100)
			}
			for i := 0; i < 2000; i++ {
				round()
			}
			if n := testing.AllocsPerRun(1, round); n != 0 {
				t.Fatalf("%v allocs per received packet, want 0", n)
			}
		})
	}
}
