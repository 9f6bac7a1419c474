package sim

import "testing"

// BenchmarkEngineAtFire measures the steady-state cost of scheduling one
// event and firing it: the engine hot path every simulated packet, timer
// and CPU burst goes through.
func BenchmarkEngineAtFire(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now(), fn)
		e.Step()
	}
}

// BenchmarkEngineDeepQueue measures scheduling and firing against a queue
// that already holds many pending events (heap reheapification cost).
func BenchmarkEngineDeepQueue(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for j := 0; j < 1024; j++ {
		e.At(Time(1_000_000+j), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now(), fn)
		e.Step()
	}
}

// BenchmarkEngineCancel measures the schedule+cancel cycle used by every
// retransmit timer that is armed and then disarmed by an ACK.
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.At(e.Now()+100, fn)
		e.Cancel(ev)
	}
}

// BenchmarkWheelCascade measures the worst-case timer-wheel path: every
// event lands at tier-2 distance, so firing it first migrates it down
// through tier 1 and into tier 0 as the cursor advances.
func BenchmarkWheelCascade(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+(1<<(2*tierBits))+3, fn)
		e.Step()
	}
}
