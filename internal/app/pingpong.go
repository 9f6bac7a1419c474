package app

import (
	"lrp/internal/core"
	"lrp/internal/kernel"
	"lrp/internal/metrics"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
)

// PingPongServer echoes datagrams on a port ("a server process (ping-pong
// server) running on machine B").
type PingPongServer struct {
	Host *core.Host
	Port uint16
	// CPU is the simulated CPU the echo process is spawned on (multi-CPU
	// hosts; 0 — the boot CPU — otherwise).
	CPU  int
	Proc *kernel.Proc
}

// Echo-server machine states.
const (
	ppsSetup = iota
	ppsRecv
	ppsSend
)

// Start spawns the echo process.
func (s *PingPongServer) Start() {
	var (
		pc   int
		sock *socket.Socket
		d    socket.Datagram
		recv core.RecvFromOp
		send core.SendToOp
	)
	s.Proc = s.Host.KernelAt(s.CPU).SpawnStep("pingpong-srv", 0, func(p *kernel.Proc) {
		for {
			switch pc {
			case ppsSetup:
				sock = s.Host.NewUDPSocket(p)
				if err := s.Host.BindUDP(sock, s.Port); err != nil {
					panic(err)
				}
				pc = ppsRecv
			case ppsRecv:
				if !s.Host.RecvFromStep(p, sock, &recv) {
					return
				}
				if recv.Err != nil {
					p.ReqExit()
					return
				}
				d = recv.D
				recv.Reset()
				send.Reset()
				pc = ppsSend
			case ppsSend:
				if !s.Host.SendToStep(p, sock, d.Src, d.SPort, d.Data, &send) {
					return
				}
				if send.Err != nil {
					p.ReqExit()
					return
				}
				d.Release() // echoed (send copied the bytes); buffer is dead
				pc = ppsRecv
			}
		}
	})
}

// PingPongClient ping-pongs a short message with a PingPongServer and
// records round-trip times ("Latency was measured by ping-ponging a 1-byte
// message between two workstations 10,000 times").
type PingPongClient struct {
	Host       *core.Host
	ServerAddr pkt.Addr
	ServerPort uint16
	MsgSize    int
	Iterations int
	// Warmup discards the first Warmup round trips from the histogram so
	// measurements reflect scheduler steady state (priorities take a
	// second or two to equilibrate under background load).
	Warmup int
	// StartAfter delays the first probe (µs), e.g. until background load
	// reaches steady state.
	StartAfter int64
	// Interval spaces probes apart (µs); 0 sends back-to-back.
	Interval int64
	// ReplyTimeout bounds one round trip; timed-out probes count as lost
	// (BSD's IP-queue drops under load make some probes unanswerable:
	// "packet dropping at the IP queue makes latency measurements
	// impossible at rates beyond 15,000 pkts/sec").
	ReplyTimeout int64

	RTT  metrics.Histogram
	Lost int
	Done bool
	Proc *kernel.Proc
}

// Probe-client machine states.
const (
	ppcSetup = iota
	ppcLoop
	ppcProbe
	ppcSend
	ppcRecv
)

// Start spawns the client process.
func (c *PingPongClient) Start() {
	if c.MsgSize == 0 {
		c.MsgSize = 1
	}
	if c.ReplyTimeout == 0 {
		c.ReplyTimeout = 500 * sim.Millisecond
	}
	var (
		pc    int
		sock  *socket.Socket
		msg   []byte
		total int
		i     int
		start sim.Time
		recv  core.RecvFromOp
		send  core.SendToOp
	)
	c.Proc = c.Host.K.SpawnStep("pingpong-cli", 0, func(p *kernel.Proc) {
		for {
			switch pc {
			case ppcSetup:
				sock = c.Host.NewUDPSocket(p)
				if err := c.Host.BindUDP(sock, 0); err != nil {
					panic(err)
				}
				msg = make([]byte, c.MsgSize)
				total = c.Iterations + c.Warmup
				recv = core.RecvFromOp{Timed: true, Timeout: c.ReplyTimeout}
				pc = ppcLoop
				if p.ReqDelay(c.StartAfter) {
					return
				}
			case ppcLoop:
				if c.Iterations != 0 && i >= total {
					c.Done = true
					p.ReqExit()
					return
				}
				pc = ppcProbe
				if p.ReqDelay(c.Interval) {
					return
				}
			case ppcProbe:
				start = p.Now()
				send.Reset()
				pc = ppcSend
			case ppcSend:
				if !c.Host.SendToStep(p, sock, c.ServerAddr, c.ServerPort, msg, &send) {
					return
				}
				if send.Err != nil {
					p.ReqExit()
					return
				}
				recv.Reset()
				pc = ppcRecv
			case ppcRecv:
				if !c.Host.RecvFromStep(p, sock, &recv) {
					return
				}
				if recv.Err != nil {
					p.ReqExit()
					return
				}
				recv.D.Release() // only the round-trip time matters
				i++
				pc = ppcLoop
				if i-1 < c.Warmup {
					continue
				}
				if !recv.OK {
					c.Lost++
					continue
				}
				c.RTT.Add(p.Now() - start)
			}
		}
	})
}
