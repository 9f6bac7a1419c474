// Multi-hop forwarding regression tests (external package: these drive
// full core.Host gateways over the netsim fabric, which the internal
// netsim tests cannot import).
//
// A 3-hop chain — edge -> G1 -> G2 -> server — built from per-port
// next-hop routes must decrement TTL at every forwarding host and drop
// the packet mid-chain when the TTL budget runs out, for every kernel
// architecture that can forward.
package netsim_test

import (
	"testing"

	"lrp/internal/core"
	"lrp/internal/netsim"
	"lrp/internal/nic"
	"lrp/internal/pkt"
	"lrp/internal/sim"
)

const mbps155 = 155_000_000

// chainWorld builds edge(raw) -> G1 -> G2 -> server(raw) with the
// gateways running arch. The raw endpoints let the test inject chosen
// TTLs and decode the TTL that survives the chain.
func chainWorld(t *testing.T, arch core.Arch) (*sim.Engine, *netsim.Network, *nic.NIC, *core.Host, *core.Host) {
	t.Helper()
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	edge := pkt.IP(10, 2, 0, 1)
	srv := pkt.IP(10, 2, 0, 2)
	ne := nic.New(eng, nic.Config{Name: "E", Mode: nic.ModeRaw})
	ns := nic.New(eng, nic.Config{Name: "S", Mode: nic.ModeRaw})
	nw.Attach(ne, edge, mbps155, 10)
	nw.Attach(ns, srv, mbps155, 10)
	g1 := core.NewHost(eng, nw, core.Config{Name: "G1", Addr: pkt.IP(10, 2, 0, 3), Arch: arch})
	g2 := core.NewHost(eng, nw, core.Config{Name: "G2", Addr: pkt.IP(10, 2, 0, 4), Arch: arch})
	g1.EnableForwarding(0)
	g2.EnableForwarding(0)
	for _, r := range [][3]pkt.Addr{
		{edge, srv, g1.Addr},
		{g1.Addr, srv, g2.Addr},
		// Reverse path, unused here but part of the chain contract.
		{srv, edge, g2.Addr},
		{g2.Addr, edge, g1.Addr},
	} {
		if err := nw.AddRouteFrom(r[0], r[1], r[2]); err != nil {
			t.Fatal(err)
		}
	}
	return eng, nw, ns, g1, g2
}

func forwardingArches() []core.Arch {
	return []core.Arch{core.ArchBSD, core.ArchEarlyDemux, core.ArchSoftLRP, core.ArchNILRP}
}

func TestChainTTLDecrementedPerHop(t *testing.T) {
	for _, arch := range forwardingArches() {
		t.Run(arch.String(), func(t *testing.T) {
			eng, nw, ns, g1, g2 := chainWorld(t, arch)
			defer g1.Shutdown()
			defer g2.Shutdown()
			edge := pkt.IP(10, 2, 0, 1)
			srv := pkt.IP(10, 2, 0, 2)
			b := pkt.UDPPacket(edge, srv, 99, 7, 1, 64, []byte("abc"), true)
			eng.At(100, func() { nw.InjectFrom(edge, b) })
			eng.RunFor(200 * sim.Millisecond)
			if ns.RxPending(0) != 1 {
				t.Fatalf("server received %d packets, want 1 (g1=%+v g2=%+v net=%+v)",
					ns.RxPending(0), g1.ForwardStats(), g2.ForwardStats(), nw.Stats())
			}
			m := ns.RxDequeue(0)
			ih, _, err := pkt.DecodeIPv4(m.Data)
			if err != nil {
				t.Fatal(err)
			}
			if ih.TTL != 62 {
				t.Fatalf("TTL arrived as %d, want 62 (decremented once per forwarding hop)", ih.TTL)
			}
			if g1.ForwardStats().Forwarded != 1 || g2.ForwardStats().Forwarded != 1 {
				t.Fatalf("forward counters g1=%+v g2=%+v", g1.ForwardStats(), g2.ForwardStats())
			}
		})
	}
}

func TestChainTTLExpiryDropsMidChain(t *testing.T) {
	for _, arch := range forwardingArches() {
		t.Run(arch.String(), func(t *testing.T) {
			eng, nw, ns, g1, g2 := chainWorld(t, arch)
			defer g1.Shutdown()
			defer g2.Shutdown()
			edge := pkt.IP(10, 2, 0, 1)
			srv := pkt.IP(10, 2, 0, 2)
			// TTL 2: G1 forwards with TTL 1, G2 must drop instead of
			// forwarding a dead packet.
			b := pkt.UDPPacket(edge, srv, 99, 7, 1, 2, nil, true)
			eng.At(100, func() { nw.InjectFrom(edge, b) })
			eng.RunFor(200 * sim.Millisecond)
			if ns.RxPending(0) != 0 {
				t.Fatalf("server received %d packets, want 0", ns.RxPending(0))
			}
			if g1.ForwardStats().Forwarded != 1 {
				t.Fatalf("g1 should forward TTL 2 once: %+v", g1.ForwardStats())
			}
			if g2.ForwardStats().TTLDrops != 1 {
				t.Fatalf("g2 should TTL-drop: %+v", g2.ForwardStats())
			}
			// TTL 3 is exactly enough to cross both gateways.
			b3 := pkt.UDPPacket(edge, srv, 99, 7, 2, 3, nil, true)
			eng.At(eng.Now()+100, func() { nw.InjectFrom(edge, b3) })
			eng.RunFor(200 * sim.Millisecond)
			if ns.RxPending(0) != 1 {
				t.Fatalf("TTL 3 should survive the 3-hop chain, server got %d", ns.RxPending(0))
			}
			m := ns.RxDequeue(0)
			if ih, _, err := pkt.DecodeIPv4(m.Data); err != nil || ih.TTL != 1 {
				t.Fatalf("TTL 3 should arrive as 1, got %v (err %v)", ih.TTL, err)
			}
		})
	}
}
