package main

// World construction for the two traffic mixes. Every cell builds a
// fresh simulation world from the public constructors, runs for a fixed
// simulated duration, and is read back through the layers' Stats()
// accessors. All traffic is open-loop in simulated time (the HTTP
// clients of tcp-synflood are closed-loop among themselves, but the SYN
// flood beside them is not), so host speed never feeds back into what
// is simulated.

import (
	"fmt"
	"math"
	"strings"

	"lrp/internal/app"
	"lrp/internal/core"
	"lrp/internal/exp"
	"lrp/internal/fault"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/pop"
	"lrp/internal/sim"
	"lrp/internal/topo"
	"lrp/scenarios"
)

// Traffic parameters of the two mixes.
const (
	synRate     = 10000 // SYN/s: BSD near livelock, LRP keeps serving
	httpClients = 8
	tcpSimUs    = 4 * sim.Second
	wanRate     = 24000 // aggregate population pkt/s into the server
	wanClients  = 1 << 20
	wanCPUs     = 4 // server CPUs, RSS rx queues and sinks
	wanSimUs    = 1 * sim.Second
)

// world is one built cell: the engine plus every handle the benchmark
// reads back after the run.
type world struct {
	eng    *sim.Engine
	nw     *netsim.Network
	hosts  []*core.Host
	server *core.Host
	sinks  []*app.BlastSink
	httpd  *app.HTTPServer
	http   []*app.HTTPClient
	probe  *app.PingPongClient
	pipes  []*fault.Pipeline
}

func (w *world) shutdown() {
	for _, h := range w.hosts {
		h.Shutdown()
	}
}

// cell is one world of a workload: a system under test, optionally on a
// topology.
type cell struct {
	name  string
	arch  core.Arch
	simUs int64
	build func(seed uint64) *world
}

// workload is one traffic mix.
type workload struct {
	name  string
	cells []cell
	// check verifies the paper-shape invariants over one round's cells
	// (used when no reference digest is recorded for the seed).
	check func(rs []*cellResult) error
	// sizes is the workload's UDP payload size mix, for the pkt and
	// mbuf probes.
	sizes func(r *sim.Rand) int
	// plans names the scenario fault plans the workload applies, for
	// the fault probe.
	plans []string
}

var workloads = []*workload{tcpSynflood(), wanSMP()}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// archSlug names an architecture in metric names.
func archSlug(a core.Arch) string {
	switch a {
	case core.ArchBSD:
		return "bsd"
	case core.ArchNILRP:
		return "ni-lrp"
	case core.ArchSoftLRP:
		return "soft-lrp"
	}
	return "unknown"
}

// allArchs lists every architecture the per-arch metrics cover.
var allArchs = []core.Arch{core.ArchBSD, core.ArchNILRP, core.ArchSoftLRP}

// lanHosts builds count hosts of one system on a fresh LAN.
func lanHosts(sys exp.System, count int, costs func() *core.CostModel) *world {
	eng := sim.NewEngine()
	w := &world{eng: eng, nw: netsim.New(eng)}
	addrs := []pkt.Addr{exp.AddrA, exp.AddrB, exp.AddrC}
	for i := 0; i < count; i++ {
		w.hosts = append(w.hosts, core.NewHost(eng, w.nw, core.Config{
			Name:  string(rune('A' + i)),
			Addr:  addrs[i],
			Arch:  sys.Arch,
			Costs: costs(),
		}))
	}
	w.server = w.hosts[1]
	return w
}

// tcpSynflood is the Fig 5 world: eight HTTP clients on A fetch a
// 1300-byte document from B while C floods a never-accepting listener
// with SYNs. TIME_WAIT is 500 ms and LRP performs the redundant PCB
// lookup, as in the paper's methodology.
func tcpSynflood() *workload {
	wl := &workload{name: "tcp-synflood", check: checkTCP}
	for i, sys := range exp.LatencySystems() {
		sys, i := sys, i
		costs := func() *core.CostModel {
			cm := sys.Costs()
			cm.TimeWaitDur = 500 * sim.Millisecond
			cm.RedundantPCBLookup = true
			return cm
		}
		wl.cells = append(wl.cells, cell{
			name:  archSlug(sys.Arch),
			arch:  sys.Arch,
			simUs: tcpSimUs,
			build: func(seed uint64) *world {
				w := lanHosts(sys, 3, costs)
				w.httpd = &app.HTTPServer{Host: w.server, Port: 80, Backlog: 32, DocSize: 1300}
				w.httpd.Start()
				app.StartDummyServer(w.server, 99, 5)
				for c := 0; c < httpClients; c++ {
					cl := &app.HTTPClient{
						Host:       w.hosts[0],
						ServerAddr: exp.AddrB,
						ServerPort: 80,
						Name:       fmt.Sprintf("http-cli-%d", c),
					}
					cl.Start()
					w.http = append(w.http, cl)
				}
				flood := &app.SYNFlood{
					Net:   w.nw,
					Src:   exp.AddrC,
					Dst:   exp.AddrB,
					DPort: 99,
					Rate:  synRate,
					Rng:   sim.NewRand(seed*1000 + uint64(i) + 5),
				}
				flood.Start()
				return w
			},
		})
	}
	// Segment payloads: control segments carry none, the response one
	// full document.
	wl.sizes = func(r *sim.Rand) int {
		if r.Float64() < 0.5 {
			return 0
		}
		return 1300
	}
	return wl
}

// wanTopos are the impaired topologies of wan-smp, each with its
// scenario-library fault plan applied at every hop.
var wanTopos = []struct {
	topo, scenario string
}{
	{"chain3", "flaky-wan"},
	{"tree16", "datacenter-incast"},
}

// wanSMP is the internet-scale mix: a 2^20-client population with flash
// crowds and churn crosses impaired multi-hop topologies into a 4-CPU
// server with 4 RSS rx queues and one sink per CPU. Gateways run the
// server's architecture.
func wanSMP() *workload {
	wl := &workload{name: "wan-smp", check: checkWAN}
	for ti, tp := range wanTopos {
		for si, sys := range exp.LatencySystems() {
			tp, sys, idx := tp, sys, ti*10+si
			wl.cells = append(wl.cells, cell{
				name:  tp.topo + "+" + tp.scenario + "/" + archSlug(sys.Arch),
				arch:  sys.Arch,
				simUs: wanSimUs,
				build: func(seed uint64) *world {
					return buildWAN(tp.topo, tp.scenario, sys, seed*1000+uint64(idx))
				},
			})
		}
	}
	for _, tp := range wanTopos {
		wl.plans = append(wl.plans, tp.scenario)
	}
	wl.sizes = func(r *sim.Rand) int { return paretoSize(r, 14, 1400, 1.3) }
	return wl
}

func buildWAN(topoName, scenario string, sys exp.System, seed uint64) *world {
	eng := sim.NewEngine()
	w := &world{eng: eng, nw: netsim.New(eng)}
	spec := topo.Spec{
		Eng: eng,
		Net: w.nw,
		Make: func(name string, addr pkt.Addr) *core.Host {
			cfg := core.Config{Name: name, Addr: addr, Arch: sys.Arch, Costs: sys.Costs()}
			if name == "S" {
				cfg.CPUs, cfg.RxQueues = wanCPUs, wanCPUs
			}
			h := core.NewHost(eng, w.nw, cfg)
			w.hosts = append(w.hosts, h)
			return h
		},
	}
	var t *topo.Topology
	switch topoName {
	case "chain3":
		t = topo.Chain(spec, 2)
	case "tree16":
		t = topo.FanIn(spec, 4, 2)
	default:
		panic("unknown topology " + topoName)
	}
	if err := t.Validate(); err != nil {
		panic(err)
	}
	w.server = t.Server

	// One pipeline per receiving hop, each with its own derived seed, so
	// the benchmark keeps the handles for their Stats().
	plan, err := scenarios.Load(scenario)
	if err != nil {
		panic(err)
	}
	for i, h := range append(append([]*core.Host(nil), t.Gateways...), t.Server) {
		p := plan
		p.Seed = plan.Seed ^ seed ^ uint64(i+1)*0x9e3779b97f4a7c15
		pl, err := fault.New(p)
		if err != nil {
			panic(err)
		}
		if err := w.nw.SetPortFaults(h.Addr, pl); err != nil {
			panic(err)
		}
		w.pipes = append(w.pipes, pl)
	}

	for c := 0; c < wanCPUs; c++ {
		sink := &app.BlastSink{
			Host:           t.Server,
			Port:           uint16(100 + c),
			CPU:            c,
			PerPktCompute:  10,
			DisturbPenalty: t.Server.CM.RxDisturbPenalty,
		}
		sink.Start()
		w.sinks = append(w.sinks, sink)
	}

	// Populations spread over the sinks' ports round-robin: chain3's
	// single edge carries one population per port, tree16's sixteen
	// edges one each.
	nPops := max(len(t.Edges), wanCPUs)
	per := wanClients / nPops
	for i := 0; i < nPops; i++ {
		e := t.Edges[i%len(t.Edges)]
		g := &pop.Population{
			Host:  e,
			Net:   w.nw,
			Src:   e.Addr,
			Dst:   t.Server.Addr,
			DPort: uint16(100 + i%wanCPUs),
			Cfg: pop.Config{
				Clients:     per,
				RatePps:     float64(wanRate) / float64(nPops),
				SizeMin:     14,
				SizeMax:     1400,
				SizeAlpha:   1.3,
				FlashFactor: 3,
				CalmMeanUs:  100 * sim.Millisecond,
				FlashMeanUs: 25 * sim.Millisecond,
				ChurnPerSec: 50,
				ClientBase:  i * per,
				Seed:        seed*31 + uint64(i) + 0xA11,
			},
		}
		g.Start()
	}

	// A latency probe from the first edge to the server's last CPU.
	pps := &app.PingPongServer{Host: t.Server, Port: 200, CPU: wanCPUs - 1}
	pps.Start()
	w.probe = &app.PingPongClient{
		Host:         t.Edges[0],
		ServerAddr:   t.Server.Addr,
		ServerPort:   200,
		MsgSize:      14,
		Iterations:   int(wanSimUs / (5 * sim.Millisecond)),
		StartAfter:   100 * sim.Millisecond,
		Interval:     5 * sim.Millisecond,
		ReplyTimeout: 50 * sim.Millisecond,
	}
	w.probe.Start()
	return w
}

// paretoSize draws a bounded-Pareto size over [lo, hi] with tail index
// alpha: the population's request-size law, reproduced for the probes.
func paretoSize(r *sim.Rand, lo, hi int, alpha float64) int {
	u := r.Float64()
	l, h := float64(lo), float64(hi)
	la, ha := math.Pow(l, alpha), math.Pow(h, alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	if x < l {
		x = l
	}
	if x > h {
		x = h
	}
	return int(x)
}
