package app

import (
	"lrp/internal/core"
	"lrp/internal/kernel"
	"lrp/internal/mbuf"
	"lrp/internal/metrics"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
)

// The paper's §2.2 motivates LRP for multimedia: "Scheduling anomalies,
// such as those related to bursty data, can be ill-afforded by systems
// that run multimedia applications." A MediaSource emits a fixed-rate
// frame stream; a MediaPlayer measures per-frame delivery jitter, which
// under BSD inflates with unrelated bursty traffic and under LRP does not
// (traffic separation + receiver-priority processing).

// MediaSource injects periodic "frames" (one datagram each) at a fixed
// frame rate, like a video sender.
type MediaSource struct {
	Net       *netsim.Network
	Src, Dst  pkt.Addr
	SPort     uint16
	DPort     uint16
	FrameSize int
	// Interval is the frame period in µs (e.g. 33_333 for 30 fps).
	Interval int64

	Sent    metrics.Counter
	stopped bool
	ipid    uint16
	pool    *mbuf.Pool
	// emit is the single reusable firing thunk; rebuilding it per frame
	// would allocate a closure on every emission.
	emit func()
}

// Start begins the stream.
func (m *MediaSource) Start() {
	if m.FrameSize == 0 {
		m.FrameSize = 1400
	}
	if m.Interval == 0 {
		m.Interval = 33_333
	}
	m.pool = mbuf.NewPool(genPoolLimit)
	m.emit = func() {
		if m.stopped {
			return
		}
		m.ipid++
		m.Sent.Inc()
		injectUDP(m.Net, m.pool, m.Src, m.Dst, m.SPort, m.DPort, m.ipid, m.FrameSize)
		m.schedule()
	}
	m.schedule()
}

// Stop halts the stream.
func (m *MediaSource) Stop() { m.stopped = true }

func (m *MediaSource) schedule() {
	if m.stopped {
		return
	}
	m.Net.Eng.After(m.Interval, m.emit)
}

// MediaPlayer receives the stream and records inter-frame delivery
// jitter: the absolute deviation of each gap between consecutive frame
// *deliveries to the application* from the nominal frame interval.
type MediaPlayer struct {
	Host *core.Host
	Port uint16
	// Interval is the nominal frame period (µs).
	Interval int64
	// PerFrameCompute models decode work.
	PerFrameCompute int64

	Frames metrics.Counter
	Jitter metrics.Histogram
	Proc   *kernel.Proc
}

// Start spawns the player process.
func (m *MediaPlayer) Start() {
	if m.Interval == 0 {
		m.Interval = 33_333
	}
	var (
		pc   int
		sock *socket.Socket
		last sim.Time
		recv core.RecvFromOp
	)
	m.Proc = m.Host.K.SpawnStep("media-player", 0, func(p *kernel.Proc) {
		for {
			switch pc {
			case 0:
				sock = m.Host.NewUDPSocket(p)
				if err := m.Host.BindUDP(sock, m.Port); err != nil {
					panic(err)
				}
				pc = 1
			case 1:
				if !m.Host.RecvFromStep(p, sock, &recv) {
					return
				}
				if recv.Err != nil {
					p.ReqExit()
					return
				}
				recv.D.Release() // the player only times frames
				recv.Reset()
				now := p.Now()
				if last != 0 {
					dev := now - last - m.Interval
					if dev < 0 {
						dev = -dev
					}
					m.Jitter.Add(dev)
				}
				last = now
				m.Frames.Inc()
				if p.ReqCompute(m.PerFrameCompute) {
					return
				}
			}
		}
	})
}
