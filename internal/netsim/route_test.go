package netsim

import (
	"testing"

	"lrp/internal/mbuf"
	"lrp/internal/nic"
	"lrp/internal/pkt"
	"lrp/internal/sim"
)

var addrC = pkt.IP(10, 0, 0, 3)

func threeHosts(t *testing.T) (*sim.Engine, *Network, *nic.NIC, *nic.NIC, *nic.NIC) {
	t.Helper()
	eng := sim.NewEngine()
	nw := New(eng)
	na := nic.New(eng, nic.Config{Name: "A", Mode: nic.ModeRaw})
	nb := nic.New(eng, nic.Config{Name: "B", Mode: nic.ModeRaw})
	nc := nic.New(eng, nic.Config{Name: "C", Mode: nic.ModeRaw})
	nw.Attach(na, addrA, mbps155, 10)
	nw.Attach(nb, addrB, mbps155, 10)
	nw.Attach(nc, addrC, mbps155, 10)
	return eng, nw, na, nb, nc
}

func TestPerPortRoutePrecedesDirectAttachment(t *testing.T) {
	// A per-port next-hop route must win over direct attachment: that is
	// what makes a multi-hop chain expressible on one switch fabric. A
	// sends to C, but A's port routes C-bound traffic via B.
	eng, nw, na, nb, nc := threeHosts(t)
	if err := nw.AddRouteFrom(addrA, addrC, addrB); err != nil {
		t.Fatal(err)
	}
	pool := mbuf.NewPool(0)
	p := pkt.UDPPacket(addrA, addrC, 1, 7, 1, 64, nil, true)
	eng.At(0, func() { na.Send(pool.Alloc(p)) })
	eng.Run()
	if nb.RxPending(0) != 1 || nc.RxPending(0) != 0 {
		t.Fatalf("B got %d, C got %d; want the next-hop (B) to receive", nb.RxPending(0), nc.RxPending(0))
	}
}

func TestPerPortRouteOnlyAffectsThatPort(t *testing.T) {
	// B's traffic to C must still be delivered directly even though A
	// detours via B.
	eng, nw, _, nb, nc := threeHosts(t)
	if err := nw.AddRouteFrom(addrA, addrC, addrB); err != nil {
		t.Fatal(err)
	}
	pool := mbuf.NewPool(0)
	p := pkt.UDPPacket(addrB, addrC, 1, 7, 1, 64, nil, true)
	eng.At(0, func() { nb.Send(pool.Alloc(p)) })
	eng.Run()
	if nc.RxPending(0) != 1 {
		t.Fatalf("C got %d; direct delivery broken by another port's route", nc.RxPending(0))
	}
}

func TestInjectFromObservesPortRoutes(t *testing.T) {
	eng, nw, _, nb, nc := threeHosts(t)
	if err := nw.AddRouteFrom(addrA, addrC, addrB); err != nil {
		t.Fatal(err)
	}
	p := pkt.UDPPacket(addrA, addrC, 1, 7, 1, 64, nil, true)
	eng.At(0, func() { nw.InjectFrom(addrA, p) })
	eng.Run()
	if nb.RxPending(0) != 1 || nc.RxPending(0) != 0 {
		t.Fatalf("B got %d, C got %d; InjectFrom must follow A's routes", nb.RxPending(0), nc.RxPending(0))
	}
	// Plain Inject has no source port and still delivers directly.
	eng.At(eng.Now()+1, func() { nw.Inject(p) })
	eng.Run()
	if nc.RxPending(0) != 1 {
		t.Fatalf("C got %d after plain Inject", nc.RxPending(0))
	}
}

func TestAddRouteFromRequiresAttachment(t *testing.T) {
	_, nw, _, _, _ := threeHosts(t)
	far := pkt.IP(99, 9, 9, 9)
	if err := nw.AddRouteFrom(far, addrC, addrB); err == nil {
		t.Fatal("route from unattached port accepted")
	}
	if err := nw.AddRouteFrom(addrA, addrC, far); err == nil {
		t.Fatal("route via unattached next hop accepted")
	}
}

func TestNextHopFromPrecedence(t *testing.T) {
	_, nw, _, _, _ := threeHosts(t)
	far := pkt.IP(172, 16, 0, 9)
	// Direct attachment wins when no per-port route exists.
	if hop, ok := nw.NextHopFrom(addrA, addrC); !ok || hop != addrC {
		t.Fatalf("direct: hop=%v ok=%v", hop, ok)
	}
	// Per-port route overrides it.
	if err := nw.AddRouteFrom(addrA, addrC, addrB); err != nil {
		t.Fatal(err)
	}
	if hop, ok := nw.NextHopFrom(addrA, addrC); !ok || hop != addrB {
		t.Fatalf("per-port: hop=%v ok=%v", hop, ok)
	}
	// Network-wide routes answer for everyone else.
	nw.AddRoute(far, addrB)
	if hop, ok := nw.NextHopFrom(addrC, far); !ok || hop != addrB {
		t.Fatalf("global: hop=%v ok=%v", hop, ok)
	}
	if _, ok := nw.NextHopFrom(addrC, pkt.IP(1, 2, 3, 4)); ok {
		t.Fatal("unroutable destination reported reachable")
	}
}
