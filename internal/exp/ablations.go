package exp

// Ablations: experiments that isolate the contribution of individual LRP
// design choices, following the paper's §3 argument that "the two key
// techniques used in LRP — lazy protocol processing at the priority of
// the receiver, and early demultiplexing — are both necessary".

import (
	"fmt"

	"lrp/internal/app"
	"lrp/internal/core"
	"lrp/internal/kernel"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/results"
	"lrp/internal/runner"
	"lrp/internal/sim"
	"lrp/internal/socket"
)

// AblationRow is one measurement of an ablation experiment.
type AblationRow = results.AblationRow

// Ablations runs the suite and returns all rows.
func Ablations(opt Options) []AblationRow {
	var rows []AblationRow
	rows = append(rows, CorruptFlood(opt)...)
	rows = append(rows, IdleThreadLatency(opt)...)
	rows = append(rows, EarlyDiscardContribution(opt)...)
	rows = append(rows, FilterDemuxAblation(opt)...)
	return rows
}

// CorruptFlood demonstrates the paper's argument for why early
// demultiplexing alone is insufficient: "the system is still defenseless
// against overload from incoming packets that do not contain valid user
// data. For example, a flood of ... corrupted data packets can still
// cause livelock. This is because processing of these packets does not
// result in the placement of data in the socket queue, thus defeating the
// only feedback mechanism that can effect early packet discard."
//
// A victim process computes while a flood of checksum-corrupted UDP
// packets (destined to a bound socket) arrives. Under Early-Demux every
// corrupt packet is fully processed in softint context (the socket queue
// never fills, so early discard never triggers) and the victim starves;
// under SOFT-LRP the receiver pays for the garbage at its own priority
// and the victim keeps its share.
func CorruptFlood(opt Options) []AblationRow {
	rate := int64(14000)
	dur := 2 * sim.Second
	if opt.Quick {
		dur = sim.Second
	}
	systems := []System{
		{Name: "Early-Demux", Arch: core.ArchEarlyDemux, Costs: core.DefaultCosts},
		{Name: "SOFT-LRP", Arch: core.ArchSoftLRP, Costs: core.DefaultCosts},
	}
	return runner.Map(opt.pool(), systems, func(_ int, sys System) AblationRow {
		var share float64
		labeled(sys.Name, func() { share = corruptFloodRun(sys, rate, dur, opt) })
		return AblationRow{
			Experiment: "corrupt-flood",
			Variant:    sys.Name,
			Metric:     "victim_cpu_share",
			Value:      share,
		}
	})
}

// corruptFloodRun measures one corrupt-flood world: the victim's CPU
// share while a checksum-corrupt blast targets a stalled receiver.
func corruptFloodRun(sys System, rate int64, dur sim.Time, opt Options) float64 {
	r := newRig(sys, 2, opt)
	server := r.hosts[1]
	victim := server.K.SpawnStep("victim", 0, kernel.Hog(sim.Millisecond))
	// The flood's destination: a bound socket whose owner never reads
	// (a stalled receiver).
	server.K.SpawnStep("stalled-recv", 0, func(p *kernel.Proc) {
		s := server.NewUDPSocket(p)
		_ = server.BindUDP(s, 7)
		p.ReqSleep(&kernel.WaitQ{})
	})
	good := pkt.UDPPacket(AddrA, AddrB, 9, 7, 1, 64, make([]byte, 14), true)
	bad := pkt.Corrupt(good)
	gap := sim.Second / rate
	var pump func()
	pump = func() {
		if r.eng.Now() >= dur {
			return
		}
		r.nw.Inject(bad)
		r.eng.After(gap, pump)
	}
	r.eng.At(0, pump)
	r.eng.RunFor(dur)
	share := float64(victim.UTime) / float64(dur)
	opt.progress(fmt.Sprintf("ablation corrupt-flood %s: victim share %.2f", sys.Name, share))
	r.shutdown()
	return share
}

// IdleThreadLatency isolates §3.3's idle-time protocol processing: a
// receiver blocks on "disk I/O" before calling receive; without the idle
// thread the packet waits raw on the channel and the receive call must
// pay the protocol processing itself; with it, the otherwise-idle CPU has
// already produced a ready datagram, so the receive call only copies.
// The metric is the receive system call's duration.
func IdleThreadLatency(opt Options) []AblationRow {
	run := func(noIdle bool) float64 {
		eng := sim.NewEngine()
		nw := netsim.New(eng)
		opt.applyFaults(nw)
		server := core.NewHost(eng, nw, core.Config{
			Name: "server", Addr: AddrB, Arch: core.ArchSoftLRP, NoIdleThread: noIdle,
		})
		defer server.Shutdown()
		const (
			diskRead = iota // sleep until the next 10 ms boundary
			diskCall        // enter the receive call
			diskRecv        // the receive call, timed
		)
		var (
			sum, n    int64
			pc        int
			s         *socket.Socket
			callStart sim.Time
			recv      core.RecvFromOp
		)
		server.K.SpawnStep("disk-bound", 0, func(p *kernel.Proc) {
			for {
				switch pc {
				case diskRead:
					if s == nil {
						s = server.NewUDPSocket(p)
						_ = server.BindUDP(s, 7)
					}
					// The disk read: sleep until the next 10 ms boundary, so
					// the packet (arriving at 9.5 ms of each cycle) lands while
					// this process is blocked on I/O, leaving the CPU idle.
					pc = diskCall
					if p.ReqDelay(10*sim.Millisecond - p.Now()%(10*sim.Millisecond)) {
						return
					}
				case diskCall:
					callStart = p.Now()
					recv.Reset()
					pc = diskRecv
				case diskRecv:
					if !server.RecvFromStep(p, s, &recv) {
						return
					}
					if recv.Err != nil {
						p.ReqExit()
						return
					}
					sum += p.Now() - callStart
					n++
					pc = diskRead
				}
			}
		})
		// One packet per disk cycle, arriving 500µs before the disk wait
		// ends — the idle CPU has time to process it, so the receive call
		// should find it ready.
		var pump func()
		pump = func() {
			nw.Inject(pkt.UDPPacket(AddrA, AddrB, 9, 7, 1, 64, []byte("block"), true))
			eng.After(10*sim.Millisecond, pump)
		}
		eng.At(9500, pump)
		dur := 2 * sim.Second
		if opt.Quick {
			dur = 500 * sim.Millisecond
		}
		eng.RunFor(dur)
		if n == 0 {
			return 0
		}
		return float64(sum) / float64(n)
	}
	vals := runner.Map(opt.pool(), []bool{false, true}, func(_ int, noIdle bool) float64 {
		var v float64
		labeled("SOFT-LRP", func() { v = run(noIdle) })
		return v
	})
	with, without := vals[0], vals[1]
	opt.progress(fmt.Sprintf("ablation idle-thread: recv call %.0fµs with, %.0fµs without", with, without))
	return []AblationRow{
		{Experiment: "idle-thread", Variant: "enabled", Metric: "recv_call_µs", Value: with},
		{Experiment: "idle-thread", Variant: "disabled", Metric: "recv_call_µs", Value: without},
	}
}

// EarlyDiscardContribution removes early discard from SOFT-LRP by making
// the channel queues effectively unbounded. The overloaded socket's
// backlog then pins the whole mbuf pool, and — exactly as the paper warns
// for BSD's shared resources ("aggregate traffic bursts can ... exhaust
// the mbuf pool. Thus, traffic bursts destined for one server process can
// lead to the delay and/or loss of packets destined for other sockets") —
// a second, lightly loaded socket on the same host starts losing packets.
// The bounded channel preserves traffic separation.
func EarlyDiscardContribution(opt Options) []AblationRow {
	run := func(unbounded bool) (poolHW int, probesLost int) {
		cm := core.DefaultCosts()
		if unbounded {
			cm.ChannelLimit = 1 << 20
		}
		sys := System{Name: "SOFT-LRP", Arch: core.ArchSoftLRP, Costs: func() *core.CostModel { return cm }}
		r := newRig(sys, 2, opt)
		defer r.shutdown()
		server := r.hosts[1]
		// Overloaded socket: a slow consumer flooded at 16k pkts/s.
		sink := &app.BlastSink{Host: server, Port: 7, PerPktCompute: 60}
		sink.Start()
		src := &app.BlastSource{
			Net: r.nw, Src: AddrA, Dst: AddrB, SPort: 9, DPort: 7,
			Size: 14, Rate: 16000, Poisson: true, Rng: sim.NewRand(opt.Seed + 4),
		}
		src.Start()
		// Lightly loaded victim socket: a ping-pong pair.
		pps := &app.PingPongServer{Host: server, Port: 8}
		pps.Start()
		iters := 400
		if opt.Quick {
			iters = 150
		}
		ppc := &app.PingPongClient{
			Host: r.hosts[0], ServerAddr: AddrB, ServerPort: 8,
			MsgSize: 14, Iterations: iters, ReplyTimeout: 20 * sim.Millisecond,
			StartAfter: sim.Second,          // let the blast backlog build
			Interval:   2 * sim.Millisecond, // spread probes over the run
		}
		ppc.Start()
		r.eng.RunFor(sim.Second + sim.Time(iters)*25*sim.Millisecond)
		return server.Pool.Stats().HighWater, ppc.Lost
	}
	type edResult struct{ hw, lost int }
	vals := runner.Map(opt.pool(), []bool{false, true}, func(_ int, unbounded bool) edResult {
		var hw, lost int
		labeled("SOFT-LRP", func() { hw, lost = run(unbounded) })
		return edResult{hw, lost}
	})
	hwBounded, lostBounded := vals[0].hw, vals[0].lost
	hwUnbounded, lostUnbounded := vals[1].hw, vals[1].lost
	opt.progress(fmt.Sprintf("ablation early-discard: bounded %d mbufs / %d probes lost, unbounded %d mbufs / %d probes lost",
		hwBounded, lostBounded, hwUnbounded, lostUnbounded))
	return []AblationRow{
		{Experiment: "early-discard", Variant: "bounded-channel", Metric: "mbuf_highwater", Value: float64(hwBounded)},
		{Experiment: "early-discard", Variant: "bounded-channel", Metric: "probes_lost", Value: float64(lostBounded)},
		{Experiment: "early-discard", Variant: "unbounded-channel", Metric: "mbuf_highwater", Value: float64(hwUnbounded)},
		{Experiment: "early-discard", Variant: "unbounded-channel", Metric: "probes_lost", Value: float64(lostUnbounded)},
	}
}

// FilterDemuxAblation measures the related-work configuration: SOFT-LRP
// with an interpreted packet-filter demultiplexer instead of the
// hand-coded function. "Since the systems described in the literature use
// interpreted packet filters for demultiplexing, the overhead is likely
// to be high, and livelock protection poor." With a linear filter scan,
// demux cost grows with the number of bound endpoints, so a host with
// many sockets loses the overload stability LRP's cheap demux provides.
func FilterDemuxAblation(opt Options) []AblationRow {
	rate := int64(14000)
	run := func(filter bool, decoys int) float64 {
		cm := core.DefaultCosts()
		eng := sim.NewEngine()
		nw := netsim.New(eng)
		opt.applyFaults(nw)
		server := core.NewHost(eng, nw, core.Config{
			Name: "server", Addr: AddrB, Arch: core.ArchSoftLRP,
			Costs: cm, FilterDemux: filter,
		})
		defer server.Shutdown()
		// Decoy endpoints bound before the target: the interpreted scan
		// pays for each of them on every packet.
		server.K.SpawnStep("decoys", 0, func(p *kernel.Proc) {
			for i := 0; i < decoys; i++ {
				s := server.NewUDPSocket(p)
				_ = server.BindUDP(s, uint16(2000+i))
			}
			p.ReqSleep(&kernel.WaitQ{})
		})
		sink := &app.BlastSink{Host: server, Port: 7, PerPktCompute: 10}
		eng.At(1000, sink.Start)
		src := &app.BlastSource{
			Net: nw, Src: AddrA, Dst: AddrB, SPort: 9, DPort: 7,
			Size: 14, Rate: rate, Poisson: true,
			Rng: sim.NewRand(opt.Seed + uint64(decoys) + 7),
		}
		src.Start()
		dur := 2 * sim.Second
		if opt.Quick {
			dur = sim.Second
		}
		eng.RunFor(500 * sim.Millisecond)
		sink.Received.Reset(eng.Now())
		eng.RunFor(dur)
		return sink.Received.Rate(eng.Now())
	}
	decoyCounts := []int{0, 16, 48}
	// Cell order matches the serial loop: (decoys, hand), (decoys, interp).
	cells := runner.Cross(decoyCounts, []bool{false, true})
	vals := runner.Map(opt.pool(), cells, func(_ int, c runner.Pair[int, bool]) float64 {
		var v float64
		labeled("SOFT-LRP", func() { v = run(c.B, c.A) })
		return v
	})
	var rows []AblationRow
	for i, decoys := range decoyCounts {
		hand, filt := vals[2*i], vals[2*i+1]
		rows = append(rows,
			AblationRow{Experiment: "filter-demux", Variant: fmt.Sprintf("hand-coded/%d-sockets", decoys+1), Metric: "delivered_pps", Value: hand},
			AblationRow{Experiment: "filter-demux", Variant: fmt.Sprintf("interpreted/%d-sockets", decoys+1), Metric: "delivered_pps", Value: filt},
		)
		opt.progress(fmt.Sprintf("ablation filter-demux sockets=%d: hand=%.0f interp=%.0f", decoys+1, hand, filt))
	}
	return rows
}
