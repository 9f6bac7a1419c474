package exp

import (
	"fmt"

	"lrp/internal/app"
	"lrp/internal/core"
	"lrp/internal/results"
	"lrp/internal/runner"
	"lrp/internal/sim"
)

// Fig5Point is one point of Figure 5: "HTTP Server Throughput" under a
// SYN flood (completed HTTP transfers/s vs background SYN rate).
type Fig5Point = results.Fig5Point

// Fig5Series is one system's curve.
type Fig5Series = results.Fig5Series

func fig5Rates(quick bool) []int64 {
	if quick {
		return []int64{0, 6000, 14000, 20000}
	}
	return []int64{0, 2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000, 18000, 20000}
}

// fig5Systems: the paper compares 4.4 BSD against SOFT-LRP.
func fig5Systems() []System {
	return []System{
		{Name: "4.4 BSD", Arch: core.ArchBSD, Costs: core.DefaultCosts},
		{Name: "SOFT-LRP", Arch: core.ArchSoftLRP, Costs: core.DefaultCosts},
	}
}

// Fig5 reproduces the WWW server experiment: "eight HTTP clients on a
// single machine continually request HTTP transfers from the server. The
// requested document is approximately 1300 bytes long... A second client
// machine sends fake TCP connection establishment requests (SYN packets)
// to a dummy server running on the server machine."
func Fig5(opt Options) []Fig5Series {
	spec := runner.Spec[System, int64, Fig5Point]{
		Name:    "fig5",
		Systems: fig5Systems(),
		Axis:    fig5Rates(opt.Quick),
		Run: func(sys System, rate int64) Fig5Point {
			var tput float64
			labeled(sys.Name, func() { tput = fig5Run(sys, rate, opt) })
			opt.progress(fmt.Sprintf("fig5: %s syn=%d http/s=%.1f", sys.Name, rate, tput))
			return Fig5Point{SYNRate: rate, HTTPPerSec: tput}
		},
	}
	grid := runner.Sweep(opt.pool(), spec)
	out := make([]Fig5Series, len(grid))
	for i, pts := range grid {
		out[i] = Fig5Series{System: spec.Systems[i].Name, Points: pts}
	}
	return out
}

func fig5Run(sys System, synRate int64, opt Options) float64 {
	r, clients := fig5World(sys, synRate, opt)
	defer r.shutdown()
	warm, measure := 3*sim.Second, 6*sim.Second
	if opt.Quick {
		warm, measure = sim.Second, 2*sim.Second
	}
	r.eng.RunFor(warm)
	var base uint64
	for _, c := range clients {
		base += c.Completed.Total()
	}
	r.eng.RunFor(measure)
	var total uint64
	for _, c := range clients {
		total += c.Completed.Total()
	}
	return float64(total-base) / (float64(measure) / 1e6)
}

// fig5World builds one Fig. 5 world, started but not yet run: the HTTP
// server and a never-accepting dummy server on host B, eight HTTP clients
// on host A, and (for a nonzero rate) the SYN flood from host C.
func fig5World(sys System, synRate int64, opt Options) (*rig, []*app.HTTPClient) {
	r := newRig3TimeWait(sys, opt)
	server, clientA := r.hosts[1], r.hosts[0]

	// The HTTP server with per-connection handler processes.
	httpd := &app.HTTPServer{
		Host:    server,
		Port:    80,
		Backlog: 32,
		DocSize: 1300,
	}
	httpd.Start()

	// The dummy server: listens on another port, never accepts.
	app.StartDummyServer(server, 99, 5)

	// Eight HTTP clients saturate the server.
	clients := make([]*app.HTTPClient, 8)
	for i := range clients {
		clients[i] = &app.HTTPClient{
			Host:       clientA,
			ServerAddr: AddrB,
			ServerPort: 80,
			Name:       fmt.Sprintf("http-cli-%d", i),
		}
		clients[i].Start()
	}

	// SYN flood from the second client machine.
	if synRate > 0 {
		flood := &app.SYNFlood{
			Net:   r.nw,
			Src:   AddrC,
			Dst:   AddrB,
			DPort: 99,
			Rate:  synRate,
			Rng:   sim.NewRand(opt.Seed + uint64(synRate) + 5),
		}
		flood.Start()
	}
	return r, clients
}

// newRig3TimeWait builds the Fig. 5 network: three hosts with the paper's
// methodology switches — TIME_WAIT shortened to 500 ms, and the redundant
// PCB lookup enabled so LRP gains no advantage from its cheaper demux
// ("the LRP system performed a redundant PCB lookup to eliminate any bias
// due to the greater efficiency of the early demultiplexing in LRP").
func newRig3TimeWait(sys System, opt Options) *rig {
	costs := func() *core.CostModel {
		cm := sys.Costs()
		cm.TimeWaitDur = 500 * sim.Millisecond
		cm.RedundantPCBLookup = true
		return cm
	}
	return newRig(System{Name: sys.Name, Arch: sys.Arch, Costs: costs}, 3, opt)
}
