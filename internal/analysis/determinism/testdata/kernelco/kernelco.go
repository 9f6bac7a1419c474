// Package kernelco poses as "lrp/internal/kernel" in the determinism
// analyzer's tests: processes are stackless step functions, so the kernel
// gets no exemption from the goroutine rule — it may start no goroutine
// in any form.
package kernelco

func start(fn func()) {
	go fn()              // want `go statement spawns a goroutine`
	go func() { fn() }() // want `go statement spawns a goroutine`
}
