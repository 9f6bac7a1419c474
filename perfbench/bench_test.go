package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
)

type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloads runs every workload for one round per pass: every named
// metric is emitted with its unit, both runs reproduce the recorded
// reference digests (so digests repeat across runs and between the
// traced and untraced passes), and no cell fails.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	layer := map[string]map[string]float64{}
	for _, s := range spec.Workloads {
		wl, err := findWorkload(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		ref := refs.reference(wl.name, 1)
		if ref == nil {
			t.Fatalf("%s: no reference digests for seed 1", wl.name)
		}
		var log strings.Builder
		for _, traced := range []bool{false, true} {
			rep, err := measure(wl, 1, 0, traced, 1, ref, &log)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d/%d\n%s", wl.name, traced, rep.Correct, rep.Failed, rep.Attempted, log.String())
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", wl.name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", wl.name, m.Name, got, m.Unit)
				}
			}
			if traced {
				layer[wl.name] = map[string]float64{}
				for n, m := range rep.Metrics {
					layer[wl.name][n] = m.Value
				}
			}
		}
	}

	// Layer counts are nonzero on their heavy workload and zero where the
	// layer does no work.
	only := map[string]string{
		"smp.ipis_per_pkt":    "wan-smp",
		"fault.impaired_frac": "wan-smp",
		"tcp.conns_per_sim_s": "tcp-synflood",
	}
	for metric, heavy := range only {
		for wl, m := range layer {
			if got := m[metric]; (wl == heavy) != (got > 0) {
				t.Errorf("%s on %s = %g", metric, wl, got)
			}
		}
	}
	if tcp, wan := layer["tcp-synflood"]["sim.pending_max"], layer["wan-smp"]["sim.pending_max"]; tcp < 2*wan {
		t.Errorf("sim.pending_max: tcp-synflood %g, wan-smp %g", tcp, wan)
	}
}

// TestVerifyCatchesMismatch: a round whose digest differs from the
// reference pass, or a cell that failed, counts as a failed cell run.
func TestVerifyCatchesMismatch(t *testing.T) {
	wl := &workload{name: "fake", check: func([]*cellResult) error { return nil }}
	c := &cell{name: "x"}
	ok := &cellResult{cell: c, digest: "a"}
	rounds := [][]*cellResult{{ok}, {{cell: c, digest: "b"}}, {{cell: c, err: errors.New("boom")}}}
	if a, f := verify(wl, nil, rounds, nil, "test", io.Discard); a != 3 || f != 2 {
		t.Errorf("verify = %d attempted, %d failed; want 3, 2", a, f)
	}
	if _, f := verify(wl, map[string]string{"x": "a"}, rounds[:1], nil, "test", io.Discard); f != 0 {
		t.Errorf("matching reference: %d failed", f)
	}
	if _, f := verify(wl, map[string]string{"x": "z"}, rounds[:1], nil, "test", io.Discard); f != 1 {
		t.Errorf("mismatched reference: %d failed, want 1", f)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"lrp/internal/sim.(*Engine).Step":                                            "sim",
		"lrp/internal/demux.(*Table[go.shape.*lrp/internal/socket.Socket]).Classify": "demux",
		"lrp/internal/core.NewHost.func1":                                            "core",
		"runtime.mallocgc":                                                           "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                                    "runtime",
		"main.runCell":       "other",
		"math.Pow":           "other",
		"lrp/scenarios.Load": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
