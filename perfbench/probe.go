package main

// Layer probes: timed calls into each layer's per-packet public
// functions, sized by what the workload's traced pass observed (pending
// population, bound endpoints, payload size mix, fault plans).

import (
	"sort"
	"time"

	"lrp/internal/demux"
	"lrp/internal/exp"
	"lrp/internal/fault"
	"lrp/internal/mbuf"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/scenarios"
)

const (
	probeBatches = 15   // timed batches per probe; the median is reported
	probeCalls   = 4096 // calls per batch
	probeRing    = 1024 // distinct precomputed inputs cycled through
)

// timeProbe returns the median over batches of the mean ns per call.
func timeProbe(op func(i int)) float64 {
	ns := make([]float64, probeBatches)
	for b := range ns {
		t0 := time.Now()
		for i := 0; i < probeCalls; i++ {
			op(b*probeCalls + i)
		}
		ns[b] = float64(time.Since(t0).Nanoseconds()) / probeCalls
	}
	sort.Float64s(ns)
	return ns[len(ns)/2]
}

// probeSim times one At plus one Step on an engine holding pending
// events, so the queue population stays constant.
func probeSim(pending int) float64 {
	eng := sim.NewEngine()
	rng := sim.NewRand(1)
	fn := func() {}
	delays := make([]int64, probeRing)
	for i := range delays {
		delays[i] = 1 + rng.Int63n(2000)
	}
	for i := 0; i < max(pending, 1); i++ {
		eng.At(delays[i%probeRing], fn)
	}
	return timeProbe(func(i int) {
		eng.At(eng.Now()+delays[i%probeRing], fn)
		eng.Step()
	})
}

// probeDemux times Table.Classify of 14-byte UDP packets over a table
// with the given number of bound connected endpoints plus one listener.
func probeDemux(endpoints int) float64 {
	endpoints = max(endpoints, 1)
	t := demux.NewTable[int]()
	t.BindListen(pkt.ProtoUDP, exp.AddrB, 7, -1)
	remote := func(i int) (pkt.Addr, uint16) {
		return pkt.IP(172, 16+byte(i>>16), byte(i>>8), byte(i)), uint16(1024 + i%60000)
	}
	for i := 0; i < endpoints; i++ {
		a, p := remote(i)
		t.BindConnected(pkt.ProtoUDP, exp.AddrB, 7, a, p, i)
	}
	rng := sim.NewRand(2)
	pkts := make([][]byte, probeRing)
	for i := range pkts {
		a, p := remote(int(rng.Int63n(int64(endpoints))))
		pkts[i] = pkt.UDPPacket(a, exp.AddrB, p, 7, uint16(i), 64, make([]byte, 14), true)
	}
	var sink int // keeps the classification live
	return timeProbe(func(i int) {
		ep, _ := t.Classify(pkts[i%probeRing], 0)
		sink += ep
	})
}

// workloadSizes draws the probe size ring from the workload's mix.
func workloadSizes(wl *workload) []int {
	rng := sim.NewRand(3)
	sizes := make([]int, probeRing)
	for i := range sizes {
		sizes[i] = wl.sizes(rng)
	}
	return sizes
}

// probePkt times building a checksummed UDP packet and decoding its IP
// and UDP headers (checksums verified) at the workload's size mix.
func probePkt(sizes []int) float64 {
	payload := make([]byte, 2048)
	buf := make([]byte, 0, 4096)
	src, dst := pkt.IP(172, 16, 0, 1), exp.AddrB
	var bad int
	ns := timeProbe(func(i int) {
		b := pkt.AppendUDP(buf[:0], src, dst, 9000, 7, uint16(i), 64, payload[:sizes[i%probeRing]], true)
		h, hl, err := pkt.DecodeIPv4(b)
		if err != nil {
			bad++
			return
		}
		if _, err := pkt.DecodeUDP(b[hl:h.TotalLen], h.Src, h.Dst); err != nil {
			bad++
		}
	})
	if bad > 0 {
		panic("pkt probe: packets failed to decode")
	}
	return ns
}

// probeMbuf times AllocCopy plus Free at the workload's size mix.
func probeMbuf(sizes []int) float64 {
	pool := mbuf.NewPool(64)
	data := make([][]byte, probeRing)
	for i := range data {
		data[i] = make([]byte, pkt.UDPTotalLen(sizes[i]))
	}
	return timeProbe(func(i int) {
		if m := pool.AllocCopy(data[i%probeRing]); m != nil {
			m.Free()
		}
	})
}

// probeFault times Pipeline.Apply on the workload's fault plans, one
// pipeline per plan, called in turn; with no plans, on an empty
// pipeline (the pass-through cost).
func probeFault(names []string) float64 {
	var pipes []*fault.Pipeline
	for _, n := range names {
		plan, err := scenarios.Load(n)
		if err != nil {
			panic(err)
		}
		pipes = append(pipes, fault.MustNew(plan))
	}
	if len(pipes) == 0 {
		pipes = append(pipes, fault.MustNew(fault.Plan{}))
	}
	return timeProbe(func(i int) {
		pipes[i%len(pipes)].Apply(sim.Time(i) * 50)
	})
}
