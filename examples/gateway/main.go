// Gateway: the paper's §3.5 IP-forwarding daemon. A gateway host forwards
// transit traffic while also running a local application. Under BSD,
// forwarding happens at software-interrupt priority: the local app is
// starved and nothing can control it. Under LRP the forwarding daemon is
// an ordinary process — renice it and forwarding yields to local work
// ("its priority controls resources spent on IP forwarding").
package main

import (
	"fmt"

	"lrp/internal/core"
	"lrp/internal/kernel"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
)

func main() {
	fmt.Println("Transit flood (12k pkts/s) through a gateway that also runs a local app")
	fmt.Printf("%-10s %-14s %12s %18s\n", "system", "ipfwd nice", "forwarded/s", "local app CPU %")
	for _, cfg := range []struct {
		arch core.Arch
		nice int
	}{
		{core.ArchBSD, 0},
		{core.ArchSoftLRP, 0},
		{core.ArchSoftLRP, 10},
		{core.ArchSoftLRP, 20},
	} {
		fwd, appShare := run(cfg.arch, cfg.nice)
		fmt.Printf("%-10s %-14d %12.0f %17.0f%%\n", cfg.arch, cfg.nice, fwd, appShare*100)
	}
}

func run(arch core.Arch, nice int) (fwdRate, appShare float64) {
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	gwAddr := pkt.IP(10, 0, 0, 9)
	dstAddr := pkt.IP(10, 0, 0, 2)
	gw := core.NewHost(eng, nw, core.Config{Name: "gw", Addr: gwAddr, Arch: arch})
	dst := core.NewHost(eng, nw, core.Config{Name: "dst", Addr: dstAddr, Arch: arch})
	defer gw.Shutdown()
	defer dst.Shutdown()
	gw.EnableForwarding(nice)

	app := gw.K.SpawnStep("local-app", 0, kernel.Hog(sim.Millisecond))

	// Transit traffic arrives at the gateway's NIC addressed elsewhere.
	nic, _ := nw.LookupNIC(gwAddr)
	rng := sim.NewRand(3)
	var pump func()
	var n uint16
	pump = func() {
		n++
		nic.Rx(pkt.UDPPacket(pkt.IP(172, 16, 0, 1), dstAddr, 99, 7, n, 16, make([]byte, 14), true))
		eng.After(rng.Jitter(83, 0.3), pump)
	}
	eng.At(0, pump)

	const dur = 2 * sim.Second
	eng.RunFor(dur)
	return float64(gw.ForwardStats().Forwarded) / (float64(dur) / 1e6),
		float64(app.UTime) / float64(dur)
}
