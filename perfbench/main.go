// Command perfbench measures what the LRP simulator costs to run: host
// CPU time and memory per simulated packet, end to end and per layer, on
// two traffic mixes (tcp-synflood, wan-smp).
//
//	perfbench --workload wan-smp --seed 1 --seconds 10 --trace 0
//
// A run repeats rounds of the workload's cells (each cell one fresh
// simulation world at a fixed simulated duration) until --seconds have
// passed and reports medians over rounds. With --trace 0 it prints the
// end-to-end metrics. With --trace 1 it splits the time between an
// untraced pass and a traced pass (CPU profile on), then times the
// layer probes, and prints the per-layer metrics. Every cell's
// simulated outputs are checked against the reference digests in
// refs.json, or against the paper-shape invariants for unrecorded
// seeds. The last line of standard output is one JSON object.
//
//	perfbench --record 1-20 > refs.json
//
// re-records the reference digests.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minRounds is the fewest rounds a pass runs, whatever --seconds says.
const minRounds = 3

// profileHz is the traced pass's CPU-profile sampling rate.
const profileHz = 1000

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wlName := fs.String("workload", "", "traffic mix: tcp-synflood or wan-smp")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	record := fs.String("record", "", "record reference digests for the seed range lo-hi of every workload and print them as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		return recordRefs(*record, stdout, stderr)
	}
	wl, err := findWorkload(*wlName)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := measure(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, minRounds, refs.reference(wl.name, *seed), stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "workload %s seed %d: %d cell runs, %d failed (failed_frac %g)\n",
		wl.name, *seed, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(rep.Attempted))
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runPass runs rounds of every cell until budget has passed and at
// least rounds rounds are done.
func runPass(wl *workload, seed uint64, budget time.Duration, traced bool, rounds int) [][]*cellResult {
	deadline := time.Now().Add(budget)
	var out [][]*cellResult
	for len(out) < rounds || time.Now().Before(deadline) {
		round := make([]*cellResult, len(wl.cells))
		for i := range wl.cells {
			round[i] = runCell(&wl.cells[i], seed, traced)
		}
		out = append(out, round)
	}
	return out
}

// verify checks every round of a pass: outputs against the reference or
// invariants, and digests against want (the first round's when want is
// nil). It returns the cell runs attempted and failed, and logs each
// failure.
func verify(wl *workload, ref map[string]string, rounds [][]*cellResult, want []*cellResult, what string, stderr io.Writer) (attempted, failed int) {
	if want == nil {
		want = rounds[0]
	}
	for ri, round := range rounds {
		bad := checkRound(wl, ref, round)
		for i, r := range round {
			if r.err == nil && bad[r.cell.name] == nil && r.digest != want[i].digest {
				bad[r.cell.name] = fmt.Errorf("%s round %d digest %s differs from %s (outputs: %s vs %s)",
					what, ri, r.digest, want[i].digest, r.outputs, want[i].outputs)
			}
		}
		attempted += len(round)
		// A failed invariant belongs to the round, not one cell: count
		// it as one failed cell run.
		failed += len(bad)
		for name, err := range bad {
			fmt.Fprintf(stderr, "perfbench: FAIL %s %s: %v\n", wl.name, name, err)
		}
	}
	return attempted, failed
}

// measure runs the passes and assembles the report.
func measure(wl *workload, seed uint64, budget time.Duration, traced bool, rounds int, ref map[string]string, stderr io.Writer) (*report, error) {
	rep := &report{Metrics: map[string]metric{}}
	if !traced {
		plain := runPass(wl, seed, budget, false, rounds)
		rep.Attempted, rep.Failed = verify(wl, ref, plain, nil, "untraced", stderr)
		endToEnd(rep.Metrics, plain)
		rep.Correct = rep.Failed == 0
		return rep, nil
	}

	plain := runPass(wl, seed, budget*45/100, false, rounds)
	a, f := verify(wl, ref, plain, nil, "untraced", stderr)

	// Sample at profileHz rather than pprof's default 100 Hz, so small
	// layers collect enough samples. Setting the rate first makes
	// StartCPUProfile keep it (it prints a warning to standard error).
	runtime.SetCPUProfileRate(profileHz)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	tracedRounds := runPass(wl, seed, budget*45/100, true, rounds)
	pprof.StopCPUProfile()
	ta, tf := verify(wl, ref, tracedRounds, plain[0], "traced", stderr)
	if tf > 0 {
		fmt.Fprintf(stderr, "perfbench: FAIL %s: %d traced cell runs failed or did not reproduce the untraced pass's outputs\n", wl.name, tf)
	}
	rep.Attempted, rep.Failed = a+ta, f+tf
	rep.Correct = rep.Failed == 0

	self, total, err := foldProfile(prof.Bytes(), "phase", "run")
	if err != nil {
		return nil, err
	}
	perLayer(rep.Metrics, wl, plain, tracedRounds, self, total)
	return rep, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perRound evaluates f on every round and returns the median.
func perRound(rounds [][]*cellResult, f func([]*cellResult) float64) float64 {
	v := make([]float64, len(rounds))
	for i, r := range rounds {
		v[i] = f(r)
	}
	return median(v)
}

// sum adds f over a round's cells.
func sum(round []*cellResult, f func(*cellResult) float64) float64 {
	var s float64
	for _, r := range round {
		s += f(r)
	}
	return s
}

// maxOf is the largest f over a round's cells.
func maxOf(round []*cellResult, f func(*cellResult) float64) float64 {
	var m float64
	for _, r := range round {
		m = max(m, f(r))
	}
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func cpuNs(r *cellResult) float64 { return float64(r.cpuNs) }
func pkts(r *cellResult) float64  { return float64(r.pkts) }

// endToEnd fills the end-to-end metrics from an untraced pass.
func endToEnd(m map[string]metric, rounds [][]*cellResult) {
	m["cpu_s"] = metric{perRound(rounds, func(r []*cellResult) float64 { return sum(r, cpuNs) / 1e9 }), "s"}
	m["setup_s"] = metric{perRound(rounds, func(r []*cellResult) float64 {
		return sum(r, func(c *cellResult) float64 { return float64(c.setupNs) }) / 1e9
	}), "s"}
	m["ns_per_pkt"] = metric{perRound(rounds, func(r []*cellResult) float64 { return ratio(sum(r, cpuNs), sum(r, pkts)) }), "ns/pkt"}
	m["allocs_per_pkt"] = metric{perRound(rounds, func(r []*cellResult) float64 {
		return ratio(sum(r, func(c *cellResult) float64 { return float64(c.mallocs) }), sum(r, pkts))
	}), "allocs/pkt"}
	m["heap_retained_mib"] = metric{perRound(rounds, func(r []*cellResult) float64 {
		return maxOf(r, func(c *cellResult) float64 { return float64(c.heapLive) }) / (1 << 20)
	}), "MiB"}
}

// perLayer fills the per-layer metrics: deterministic counts from the
// untraced pass's first round, CPU times as medians over its rounds,
// self time per package from the traced pass's profile, and the probes.
func perLayer(m map[string]metric, wl *workload, plain, traced [][]*cellResult, self map[string]float64, selfTotal float64) {
	r0 := plain[0]
	n := sum(r0, pkts)
	count := func(f func(*cellResult) uint64) float64 {
		return sum(r0, func(c *cellResult) float64 { return float64(f(c)) })
	}
	perPkt := func(f func(*cellResult) uint64) float64 { return ratio(count(f), n) }

	// Self time per package: its share of run-phase CPU samples, times
	// the traced pass's run CPU per packet.
	tracedNsPerPkt := ratio(sumAll(traced, cpuNs), sumAll(traced, pkts))
	for _, l := range layerPkgs {
		m[l+".self_ns_per_pkt"] = metric{ratio(self[l], selfTotal) * tracedNsPerPkt, "ns/pkt"}
	}

	events := func(c *cellResult) uint64 { return c.events }
	m["sim.events_per_pkt"] = metric{perPkt(events), "events/pkt"}
	m["sim.ns_per_event"] = metric{perRound(plain, func(r []*cellResult) float64 {
		return ratio(sum(r, cpuNs), sum(r, func(c *cellResult) float64 { return float64(c.events) }))
	}), "ns/event"}
	pendMean := ratio(sum(r0, func(c *cellResult) float64 { return c.pendSum }), sum(r0, func(c *cellResult) float64 { return float64(c.pendN) }))
	m["sim.pending_max"] = metric{maxOf(r0, func(c *cellResult) float64 { return float64(c.pendMax) }), "events"}
	m["sim.pending_mean"] = metric{pendMean, "events"}

	m["kernel.ctx_switches_per_pkt"] = metric{perPkt(func(c *cellResult) uint64 { return c.ctxSwitches }), "switches/pkt"}
	m["smp.ipis_per_pkt"] = metric{perPkt(func(c *cellResult) uint64 { return c.ipis }), "ipis/pkt"}
	m["smp.steals_per_pkt"] = metric{perPkt(func(c *cellResult) uint64 { return c.steals }), "steals/pkt"}
	m["nic.intrs_per_pkt"] = metric{perPkt(func(c *cellResult) uint64 { return c.intrs }), "intrs/pkt"}
	m["nic.ring_drop_frac"] = metric{ratio(count(func(c *cellResult) uint64 { return c.ringDrops }), count(func(c *cellResult) uint64 { return c.nicRx })), "frac"}
	m["netsim.pkts"] = metric{n, "pkts"}
	m["fault.impaired_frac"] = metric{ratio(count(func(c *cellResult) uint64 { return c.faultActs }), count(func(c *cellResult) uint64 { return c.faultSeen })), "frac"}
	m["core.useful_frac"] = metric{ratio(count(func(c *cellResult) uint64 { return c.consumed }), count(func(c *cellResult) uint64 { return c.serverRx })), "frac"}
	sockets := maxOf(r0, func(c *cellResult) float64 { return float64(c.sockets) })
	m["core.sockets_end"] = metric{sockets, "count"}
	for _, a := range allArchs {
		slug := archSlug(a)
		of := func(c *cellResult) bool { return c.cell.arch == a }
		m["arch."+slug+".ns_per_pkt"] = metric{perRound(plain, func(r []*cellResult) float64 {
			return ratio(sum(r, func(c *cellResult) float64 { return pick(of(c), cpuNs(c)) }),
				sum(r, func(c *cellResult) float64 { return pick(of(c), pkts(c)) }))
		}), "ns/pkt"}
	}
	simSeconds := sum(r0, func(c *cellResult) float64 { return float64(c.cell.simUs) / 1e6 })
	m["tcp.conns_per_sim_s"] = metric{ratio(count(func(c *cellResult) uint64 { return c.transfers }), simSeconds), "conns/sim_s"}
	m["mbuf.allocs_per_pkt"] = metric{perPkt(func(c *cellResult) uint64 { return c.mbufAllocs }), "allocs/pkt"}
	m["mbuf.high_water"] = metric{maxOf(r0, func(c *cellResult) float64 { return float64(c.mbufHigh) }), "mbufs"}
	m["metrics.samples_held"] = metric{maxOf(r0, func(c *cellResult) float64 { return float64(c.samplesHeld) }), "samples"}
	m["runtime.gc_cpu_frac"] = metric{ratio(sumAll(plain, func(c *cellResult) float64 { return c.gcCPU }),
		sumAll(plain, func(c *cellResult) float64 { return c.usedCPU })), "frac"}
	m["runtime.alloc_bytes_per_pkt"] = metric{perRound(plain, func(r []*cellResult) float64 {
		return ratio(sum(r, func(c *cellResult) float64 { return float64(c.allocBytes) }), sum(r, pkts))
	}), "B/pkt"}
	plainCPU := perRound(plain, func(r []*cellResult) float64 { return sum(r, cpuNs) })
	tracedCPU := perRound(traced, func(r []*cellResult) float64 { return sum(r, cpuNs) })
	m["trace.overhead_frac"] = metric{ratio(tracedCPU, plainCPU) - 1, "frac"}

	sizes := workloadSizes(wl)
	m["sim.probe_ns"] = metric{probeSim(int(pendMean + 0.5)), "ns/op"}
	m["demux.probe_ns"] = metric{probeDemux(int(sockets)), "ns/op"}
	m["pkt.probe_ns"] = metric{probePkt(sizes), "ns/op"}
	m["mbuf.probe_ns"] = metric{probeMbuf(sizes), "ns/op"}
	m["fault.probe_ns"] = metric{probeFault(wl.plans), "ns/op"}
}

func pick(ok bool, v float64) float64 {
	if ok {
		return v
	}
	return 0
}

// sumAll adds f over every cell of every round.
func sumAll(rounds [][]*cellResult, f func(*cellResult) float64) float64 {
	var s float64
	for _, r := range rounds {
		s += sum(r, f)
	}
	return s
}

// recordRefs runs one round of every workload for each seed in lo-hi
// and prints the digests as refs.json. A seed whose round fails its
// invariants is an error: references are recorded only from outputs
// that show the paper's shapes.
func recordRefs(span string, stdout, stderr io.Writer) int {
	lo, hi, ok := strings.Cut(span, "-")
	a, err1 := strconv.ParseUint(lo, 10, 64)
	b, err2 := strconv.ParseUint(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || b < a {
		fmt.Fprintln(stderr, "perfbench: --record wants lo-hi")
		return 2
	}
	t := refTable{}
	for _, wl := range workloads {
		t[wl.name] = map[string]map[string]string{}
		for s := a; s <= b; s++ {
			round := runPass(wl, s, 0, false, 1)[0]
			if bad := checkRound(wl, nil, round); len(bad) > 0 {
				for name, err := range bad {
					fmt.Fprintf(stderr, "perfbench: %s seed %d %s: %v\n", wl.name, s, name, err)
				}
				return 1
			}
			d := map[string]string{}
			for _, r := range round {
				d[r.cell.name] = r.digest
			}
			t[wl.name][strconv.FormatUint(s, 10)] = d
		}
	}
	out, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}
