package netsim

import (
	"testing"

	"lrp/internal/fault"
	"lrp/internal/mbuf"
	"lrp/internal/nic"
	"lrp/internal/pkt"
	"lrp/internal/sim"
)

// oneSink builds a network with a single raw-mode receiver at addrB with
// a deep ring, for fault-delivery tests.
func oneSink(t *testing.T) (*sim.Engine, *Network, *nic.NIC) {
	t.Helper()
	eng := sim.NewEngine()
	nw := New(eng)
	b := nic.New(eng, nic.Config{Name: "B", Mode: nic.ModeRaw, RxRingSize: 4096})
	nw.Attach(b, addrB, mbps155, 10)
	return eng, nw, b
}

func udpTo(dst pkt.Addr, payload []byte) []byte {
	return pkt.UDPPacket(addrA, dst, 1, 7, 1, 64, payload, true)
}

func TestSetFaultsDrop(t *testing.T) {
	eng, nw, b := oneSink(t)
	nw.SetFaults(fault.MustNew(fault.LossPlan(9, 1)))
	eng.At(0, func() { nw.Inject(udpTo(addrB, nil)) })
	eng.Run()
	if b.RxPending(0) != 0 || nw.Stats().Lost != 1 {
		t.Fatalf("total-loss pipeline: pending=%d stats=%+v", b.RxPending(0), nw.Stats())
	}
	// Clearing the pipeline restores delivery.
	nw.SetFaults(nil)
	eng.At(eng.Now()+1, func() { nw.Inject(udpTo(addrB, nil)) })
	eng.Run()
	if b.RxPending(0) != 1 {
		t.Fatal("delivery not restored after clearing faults")
	}
}

func TestPortFaultsScopedToPort(t *testing.T) {
	// A per-port pipeline impairs only its own port's traffic.
	eng := sim.NewEngine()
	nw := New(eng)
	b := nic.New(eng, nic.Config{Name: "B", Mode: nic.ModeRaw})
	c := nic.New(eng, nic.Config{Name: "C", Mode: nic.ModeRaw})
	addrC := pkt.IP(10, 0, 0, 3)
	nw.Attach(b, addrB, mbps155, 10)
	nw.Attach(c, addrC, mbps155, 10)
	if err := nw.SetPortFaults(addrB, fault.MustNew(fault.LossPlan(9, 1))); err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() {
		nw.Inject(udpTo(addrB, nil))
		nw.Inject(udpTo(addrC, nil))
	})
	eng.Run()
	if b.RxPending(0) != 0 || c.RxPending(0) != 1 {
		t.Fatalf("port scoping: b=%d c=%d, want 0/1", b.RxPending(0), c.RxPending(0))
	}
	if err := nw.SetPortFaults(pkt.IP(99, 9, 9, 9), nil); err == nil {
		t.Fatal("SetPortFaults accepted an unattached address")
	}
}

func TestFaultReorderOvertakes(t *testing.T) {
	// Packet 1 is held back 500µs by a reorder segment that expires
	// before packet 2 is sent; packet 2 must arrive first.
	eng, nw, b := oneSink(t)
	nw.SetFaults(fault.MustNew(fault.Plan{Seed: 9, Segments: []fault.Segment{
		{Kind: fault.KindReorder, Rate: 1, DelayUs: 500, End: 100},
	}}))
	eng.At(0, func() { nw.Inject(udpTo(addrB, []byte("first"))) })
	eng.At(200, func() { nw.Inject(udpTo(addrB, []byte("later"))) })
	eng.Run()
	if b.RxPending(0) != 2 {
		t.Fatalf("delivered %d of 2", b.RxPending(0))
	}
	m1 := b.RxDequeue(0)
	m2 := b.RxDequeue(0)
	p1 := string(m1.Data[pkt.IPv4HeaderLen+pkt.UDPHeaderLen:])
	if p1 != "later" {
		t.Fatalf("head of ring is %q; held packet was not overtaken", p1)
	}
	if m2.Arrival <= m1.Arrival {
		t.Fatalf("arrivals not reordered: %d then %d", m1.Arrival, m2.Arrival)
	}
}

func TestFaultDuplicateDeliversTwice(t *testing.T) {
	eng, nw, b := oneSink(t)
	nw.SetFaults(fault.MustNew(fault.DuplicatePlan(9, 1, 40)))
	pool := mbuf.NewPool(4)
	eng.At(0, func() {
		nw.InjectMbuf(pool.AllocCopy(udpTo(addrB, []byte("twin"))))
	})
	eng.Run()
	if b.RxPending(0) != 2 {
		t.Fatalf("duplicate delivered %d copies, want 2", b.RxPending(0))
	}
	m1, m2 := b.RxDequeue(0), b.RxDequeue(0)
	if gap := m2.Arrival - m1.Arrival; gap != 40 {
		t.Fatalf("copy gap %dµs, want 40", gap)
	}
	if s := pool.Stats(); s.InUse != 0 {
		t.Fatalf("duplication leaked a wire reference: %d in use", s.InUse)
	}
	if nw.Stats().Delivered != 2 {
		t.Fatalf("stats %+v, want Delivered=2", nw.Stats())
	}
}

func TestFaultCorruptFailsChecksumWithoutTouchingSource(t *testing.T) {
	eng, nw, b := oneSink(t)
	nw.SetFaults(fault.MustNew(fault.CorruptPlan(9, 1)))
	orig := udpTo(addrB, []byte("pristine"))
	saved := append([]byte(nil), orig...)
	eng.At(0, func() { nw.Inject(orig) })
	eng.Run()
	m := b.RxDequeue(0)
	if m == nil {
		t.Fatal("corrupted packet not delivered")
	}
	ih, hlen, err := pkt.DecodeIPv4(m.Data)
	if err != nil {
		t.Fatalf("IP header should still parse: %v", err)
	}
	if _, err := pkt.DecodeUDP(m.Data[hlen:], ih.Src, ih.Dst); err != pkt.ErrBadChecksum {
		t.Fatalf("want ErrBadChecksum after corruption, got %v", err)
	}
	for i := range orig {
		if orig[i] != saved[i] {
			t.Fatalf("source buffer mutated at byte %d", i)
		}
	}
	if nw.Stats().Corrupted != 1 {
		t.Fatalf("stats %+v, want Corrupted=1", nw.Stats())
	}
}

func TestFaultFlapWindowedOutage(t *testing.T) {
	// Link down over [0, 1000), up afterwards.
	eng, nw, b := oneSink(t)
	nw.SetFaults(fault.MustNew(fault.Plan{Seed: 9, Segments: []fault.Segment{
		{Kind: fault.KindFlap, DownUs: 1000, UpUs: 1000},
	}}))
	eng.At(500, func() { nw.Inject(udpTo(addrB, nil)) })  // outage
	eng.At(1500, func() { nw.Inject(udpTo(addrB, nil)) }) // link up
	eng.Run()
	if b.RxPending(0) != 1 || nw.Stats().Lost != 1 {
		t.Fatalf("flap: pending=%d stats=%+v, want 1 delivered 1 lost", b.RxPending(0), nw.Stats())
	}
}

func TestFaultDeliveryDeterministic(t *testing.T) {
	// The same plan over the same traffic gives identical stats and
	// identical arrival times, run to run.
	run := func() (Stats, []sim.Time) {
		eng, nw, b := oneSink(t)
		nw.SetFaults(fault.MustNew(fault.Plan{Seed: 31, Segments: []fault.Segment{
			{Kind: fault.KindGilbertElliott, PGoodBad: 0.05, PBadGood: 0.2, BadLoss: 1},
			{Kind: fault.KindJitter, JitterUs: 200},
			{Kind: fault.KindDuplicate, Rate: 0.1, DelayUs: 30},
		}}))
		for i := 0; i < 200; i++ {
			at := sim.Time(i * 50)
			eng.At(at, func() { nw.Inject(udpTo(addrB, []byte("d"))) })
		}
		eng.Run()
		var arrivals []sim.Time
		for {
			m := b.RxDequeue(0)
			if m == nil {
				break
			}
			arrivals = append(arrivals, m.Arrival)
			m.Free()
		}
		return nw.Stats(), arrivals
	}
	s1, a1 := run()
	s2, a2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged:\n  %+v\n  %+v", s1, s2)
	}
	if len(a1) != len(a2) {
		t.Fatalf("arrival counts diverged: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival %d diverged: %d vs %d", i, a1[i], a2[i])
		}
	}
}
