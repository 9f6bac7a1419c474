package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"lrp/internal/core"
)

// sampleUs is the simulated interval at which a cell's run pauses to
// sample the pending-event population and check its event budget.
const sampleUs = 1000

// setupReps is how many times a cell's world is built per run; the
// median build time is the cell's set-up time and the last world runs.
const setupReps = 3

// maxEventsPerSimSec bounds a cell's events per simulated second; a
// cell beyond it is a runaway and fails.
const maxEventsPerSimSec = 20_000_000

// cellResult is everything one cell run yields: host costs (setup and
// run CPU, allocations, retained heap), the simulated outputs' digest,
// and the layer counters read back through Stats().
type cellResult struct {
	cell *cell
	err  error

	setupNs        int64  // median wall time of the builds
	cpuNs          int64  // process CPU time inside RunFor
	mallocs        uint64 // heap allocations during the run phase
	allocBytes     uint64
	heapLive       uint64 // heap the world retains after a forced GC at cell end
	gcCPU, usedCPU float64

	digest  string // hash of the simulated outputs
	outputs string
	drops   dropTally // drops by location, over all hosts

	pkts    uint64 // netsim.Stats.Delivered
	events  uint64
	pendMax int
	pendSum float64
	pendN   int

	ctxSwitches uint64
	ipis        uint64
	steals      uint64
	intrs       uint64
	ringDrops   uint64
	nicRx       uint64
	serverRx    uint64
	consumed    uint64 // packets (UDP) or requests (TCP) the server app consumed
	faultActs   uint64
	faultSeen   uint64
	sockets     int
	transfers   uint64
	mbufAllocs  uint64
	mbufHigh    int
	samplesHeld int
}

// cpuSample reads the runtime's cumulative GC and total-used CPU
// estimates.
func cpuSample() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// processCPUNs is the CPU time all the process's threads have used:
// the simulation and the Go runtime's GC workers. Unlike wall time it
// does not count time the host takes the virtual CPU away (steal).
func processCPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runCell builds, runs and reads back one cell. A panic anywhere in the
// simulation is caught and reported as the cell's error. When traced,
// the run phase carries a pprof label so the CPU profile can tell run
// samples from set-up and bookkeeping.
func runCell(c *cell, seed uint64, traced bool) (r *cellResult) {
	r = &cellResult{cell: c}
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("panic: %v", p)
		}
	}()

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	heapBase := ms0.HeapAlloc
	var w *world
	builds := make([]int64, setupReps)
	for i := range builds {
		if w != nil {
			w.shutdown()
		}
		t0 := time.Now()
		w = c.build(seed)
		builds[i] = time.Since(t0).Nanoseconds()
	}
	defer w.shutdown()
	slices.Sort(builds)
	r.setupNs = builds[setupReps/2]

	runtime.ReadMemStats(&ms0)
	gc0, used0 := cpuSample()
	budget := uint64(maxEventsPerSimSec * float64(c.simUs) / 1e6)
	run := func() {
		for w.eng.Now() < c.simUs && r.err == nil {
			w.eng.RunFor(min(sampleUs, c.simUs-w.eng.Now()))
			n := w.eng.Pending()
			r.pendMax = max(r.pendMax, n)
			r.pendSum += float64(n)
			r.pendN++
			if w.eng.Processed() > budget {
				r.err = fmt.Errorf("event budget %d exceeded at t=%dµs", budget, w.eng.Now())
			}
		}
	}
	cpu1 := processCPUNs()
	if traced {
		pprof.Do(context.Background(), pprof.Labels("phase", "run"), func(context.Context) { run() })
	} else {
		run()
	}
	r.cpuNs = processCPUNs() - cpu1
	gc1, used1 := cpuSample()
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCPU, r.usedCPU = gc1-gc0, used1-used0

	r.events = w.eng.Processed()
	r.readBack(w)
	r.outputs = outputs(w, &r.drops)
	r.digest = hashString(r.outputs)

	// The world's retained heap: live bytes with the world still
	// referenced, less the live bytes before it was built (the
	// benchmark's own results so far).
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	r.heapLive = ms1.HeapAlloc - min(heapBase, ms1.HeapAlloc)
	runtime.KeepAlive(w)
	return r
}

// readBack collects the layer counters from the world's Stats()
// accessors.
func (r *cellResult) readBack(w *world) {
	r.pkts = w.nw.Stats().Delivered
	for _, h := range w.hosts {
		r.drops.add(h)
		for _, k := range h.CPUs {
			r.ctxSwitches += k.Stats().CtxSwitches
		}
		ns := h.NIC.Stats()
		r.intrs += ns.HostIntrs
		r.ringDrops += ns.RxRingDrops
		r.nicRx += ns.RxPackets
		r.sockets += len(h.Sockets())
		ps := h.Pool.Stats()
		r.mbufAllocs += ps.Allocs
		r.mbufHigh = max(r.mbufHigh, ps.HighWater)
	}
	if cl := w.server.Cluster; cl != nil {
		for _, s := range cl.Stats() {
			r.ipis += s.IPIsDelivered
			r.steals += s.Steals
		}
	}
	r.serverRx = w.server.NIC.Stats().RxPackets
	for _, s := range w.sinks {
		r.consumed += s.Received.Total()
	}
	if w.httpd != nil {
		r.consumed += w.httpd.Served.Total()
	}
	for _, c := range w.http {
		r.transfers += c.Completed.Total()
		r.samplesHeld += c.Latency.Count()
	}
	if w.probe != nil {
		r.samplesHeld += w.probe.RTT.Count()
	}
	for _, p := range w.pipes {
		s := p.Stats()
		r.faultSeen += s.Applied
		r.faultActs += s.Dropped + s.BurstDrops + s.FlapDrops + s.Reordered +
			s.Duplicated + s.Corrupted + s.Jittered
	}
}

// dropTally counts drops by location.
type dropTally struct {
	ipq, channel, early, sockq, nomatch, malformed, proto, disabled uint64
	ring, nic, txq, fault                                           uint64
}

func (d *dropTally) add(h *core.Host) {
	st := h.Stats()
	ns := h.NIC.Stats()
	d.ipq += st.IPQDrops
	d.channel += st.ChannelDrops
	d.early += st.EarlyDrops
	d.sockq += st.SockQDrops
	d.nomatch += st.NoMatchDrops
	d.malformed += st.MalformedDrops
	d.proto += st.ProtoDrops
	d.disabled += st.DisabledDrops
	d.ring += ns.RxRingDrops
	d.nic += ns.NICDrops
	d.txq += ns.TxQueueDrops
	d.fault += ns.FaultDrops
}
