package main

// Output check. Each cell's simulated results fold into a digest that
// is compared with a reference recorded for the seed (refs.json). For
// seeds without a reference the workload's paper-shape invariants are
// checked instead.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// outputs renders the simulated results of one cell canonically:
// packets delivered, drops by location over all hosts, application
// receives and transfers, kernel busy time, forwarding, and probe
// latency percentiles where the cell has a probe.
func outputs(w *world, d *dropTally) string {
	var busy int64
	var fwd uint64
	for _, h := range w.hosts {
		for _, k := range h.CPUs {
			busy += k.Stats().Busy()
		}
		fwd += h.ForwardStats().Forwarded
	}
	ns := w.nw.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "delivered=%d injected=%d lost=%d noroute=%d", ns.Delivered, ns.Injected, ns.Lost, ns.NoRoute)
	fmt.Fprintf(&b, " drops=%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d",
		d.ipq, d.channel, d.early, d.sockq, d.nomatch, d.malformed, d.proto, d.disabled,
		d.ring, d.nic, d.txq, d.fault)
	fmt.Fprintf(&b, " busy=%dus fwd=%d", busy, fwd)
	b.WriteString(" rx=")
	for i, s := range w.sinks {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(strconv.FormatUint(s.Received.Total(), 10))
	}
	if w.httpd != nil {
		var done, fails uint64
		for _, c := range w.http {
			done += c.Completed.Total()
			fails += c.Failures.Total()
		}
		fmt.Fprintf(&b, " served=%d xfers=%d xferfails=%d", w.httpd.Served.Total(), done, fails)
		// The clients' latency percentiles, in client order.
		b.WriteString(" lat=")
		for i, c := range w.http {
			if i > 0 {
				b.WriteByte('/')
			}
			fmt.Fprintf(&b, "%d:%d", c.Latency.Percentile(50), c.Latency.Percentile(99))
		}
	}
	if p := w.probe; p != nil {
		fmt.Fprintf(&b, " rtt=%d:%d:%d lost=%d", p.RTT.Count(), p.RTT.Percentile(50), p.RTT.Percentile(99), p.Lost)
	}
	return b.String()
}

func hashString(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// refs maps workload -> seed -> cell name -> digest.
type refTable map[string]map[string]map[string]string

//go:embed refs.json
var refsJSON []byte

func loadRefs() (refTable, error) {
	var t refTable
	if err := json.Unmarshal(refsJSON, &t); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return t, nil
}

// reference returns the recorded digests for (workload, seed), or nil.
func (t refTable) reference(wl string, seed uint64) map[string]string {
	return t[wl][strconv.FormatUint(seed, 10)]
}

// checkRound verifies one round's outputs: against the recorded
// reference when one exists, else against the workload's invariants.
// It returns one error per failed cell, keyed by cell name.
func checkRound(wl *workload, ref map[string]string, rs []*cellResult) map[string]error {
	bad := map[string]error{}
	for _, r := range rs {
		if r.err != nil {
			bad[r.cell.name] = r.err
		}
	}
	if ref != nil {
		for _, r := range rs {
			if want, ok := ref[r.cell.name]; r.err == nil && (!ok || want != r.digest) {
				bad[r.cell.name] = fmt.Errorf("digest %s, reference %q (outputs: %s)", r.digest, want, r.outputs)
			}
		}
		return bad
	}
	if len(bad) == 0 {
		if err := wl.check(rs); err != nil {
			bad["invariants"] = err
		}
	}
	return bad
}

// byArch indexes a round's results by architecture, grouped by the cell
// name's topology prefix (empty for LAN workloads).
func byArch(rs []*cellResult) map[string]map[string]*cellResult {
	out := map[string]map[string]*cellResult{}
	for _, r := range rs {
		group := ""
		if i := strings.LastIndexByte(r.cell.name, '/'); i >= 0 {
			group = r.cell.name[:i]
		}
		if out[group] == nil {
			out[group] = map[string]*cellResult{}
		}
		out[group][archSlug(r.cell.arch)] = r
	}
	return out
}

// lrpBeatsBSD checks, in every group, that each LRP cell's measure
// exceeds the BSD cell's.
func lrpBeatsBSD(rs []*cellResult, what string, measure func(*cellResult) uint64) error {
	for group, m := range byArch(rs) {
		bsd := m["bsd"]
		if bsd == nil {
			return fmt.Errorf("%s: no BSD cell", group)
		}
		for _, arch := range []string{"ni-lrp", "soft-lrp"} {
			l := m[arch]
			if l == nil {
				return fmt.Errorf("%s: no %s cell", group, arch)
			}
			if measure(l) <= measure(bsd) {
				return fmt.Errorf("%s: %s %s %d not above BSD's %d", group, arch, what, measure(l), measure(bsd))
			}
		}
	}
	return nil
}

// checkTCP: under the SYN flood, LRP completes more HTTP transfers than
// BSD.
func checkTCP(rs []*cellResult) error {
	return lrpBeatsBSD(rs, "transfers", func(r *cellResult) uint64 { return r.transfers })
}

// checkWAN: LRP goodput holds through the gateways. Overload past the
// single-CPU gateways is shed early under LRP (at NI channels, never at
// an IP queue) and late under BSD (at the IP queues); NI-LRP delivers
// more than BSD on every topology; the server's CPUs exchange IPIs.
// SOFT-LRP's goodput is not compared: with its demux in the gateways'
// interrupt handlers it sits near BSD's at this rate, on either side
// depending on the seed.
func checkWAN(rs []*cellResult) error {
	for group, m := range byArch(rs) {
		bsd, ni := m["bsd"], m["ni-lrp"]
		if bsd == nil || ni == nil {
			return fmt.Errorf("%s: missing BSD or NI-LRP cell", group)
		}
		if ni.consumed <= bsd.consumed {
			return fmt.Errorf("%s: ni-lrp goodput %d not above BSD's %d", group, ni.consumed, bsd.consumed)
		}
	}
	for _, r := range rs {
		lrp := r.cell.arch.IsLRP()
		switch {
		case lrp && (r.drops.ipq != 0 || r.drops.channel == 0):
			return fmt.Errorf("%s: LRP dropped %d at IP queues and %d at channels, want early discard only", r.cell.name, r.drops.ipq, r.drops.channel)
		case !lrp && r.drops.ipq == 0:
			return fmt.Errorf("%s: BSD dropped nothing at its IP queues under overload", r.cell.name)
		case r.ipis == 0:
			return fmt.Errorf("%s: no IPIs on the %d-CPU server", r.cell.name, wanCPUs)
		}
	}
	return nil
}
