package determinism_test

import (
	"testing"

	"lrp/internal/analysis/analysistest"
	"lrp/internal/analysis/determinism"
)

// TestSimCoreViolations is the acceptance demonstration: a time.Now (or
// timer, global rand, map range, goroutine, select) introduced into a
// sim-core package such as internal/core fails the build.
func TestSimCoreViolations(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "testdata/simcore", "lrp/internal/core")
}

// TestTransitiveHelpers drives the interprocedural sweep: a helper
// package outside the sim-core set is held to the wall-clock and
// map-order rules once a sim-core function reaches it, and the findings
// carry the call chain from the sim-core root.
func TestTransitiveHelpers(t *testing.T) {
	analysistest.RunProgram(t, determinism.Analyzer,
		analysistest.Fixture{Dir: "testdata/dethelper", Path: "lrp/internal/dethelper"},
		analysistest.Fixture{Dir: "testdata/detroot", Path: "lrp/internal/core"},
	)
}

// TestRunnerConcurrencyAllowed pins the allowlist: the experiment runner's
// worker-pool goroutines and sync primitives are not findings.
func TestRunnerConcurrencyAllowed(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "testdata/runnerok", "lrp/internal/runner")
}

// TestKernelGoStatementRejected pins that the kernel, like every other
// simulation package, may start no goroutine.
func TestKernelGoStatementRejected(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "testdata/kernelco", "lrp/internal/kernel")
}
