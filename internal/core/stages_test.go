package core

// Test process bodies written as lists of stages, so a test reads in the
// order the process acts. Each socket-call stage drives one of the
// host's step machines (steps.go, tcpsteps.go) through a frame the test
// owns, so results are read from the frame once the stage completes.

import (
	"testing"

	"lrp/internal/kernel"
	"lrp/internal/pkt"
	"lrp/internal/socket"
)

// stage is one piece of a test process body. The process calls it at each
// dispatch until it reports done; a stage that is not done has issued a
// request (possibly an exit).
type stage func(p *kernel.Proc) (done bool)

// body returns a StepFn that runs stages in order and then exits.
func body(stages ...stage) kernel.StepFn {
	s := seq(stages...)
	return func(p *kernel.Proc) {
		if s(p) {
			p.ReqExit()
		}
	}
}

// seq runs stages in order as one stage, rewinding when done so a loop
// can run it again.
func seq(stages ...stage) stage {
	i := 0
	return func(p *kernel.Proc) bool {
		for i < len(stages) {
			if !stages[i](p) {
				return false
			}
			i++
		}
		i = 0
		return true
	}
}

// loop runs stages n times in order (forever when n < 0).
func loop(n int, stages ...stage) stage {
	s := seq(stages...)
	i := 0
	return func(p *kernel.Proc) bool {
		for n < 0 || i < n {
			if !s(p) {
				return false
			}
			i++
		}
		i = 0
		return true
	}
}

// while runs stages in order for as long as cond holds at the top of a
// pass.
func while(cond func() bool, stages ...stage) stage {
	s := seq(stages...)
	inPass := false
	return func(p *kernel.Proc) bool {
		for inPass || cond() {
			inPass = true
			if !s(p) {
				return false
			}
			inPass = false
		}
		return true
	}
}

// do runs f and completes.
func do(f func(p *kernel.Proc)) stage {
	return func(p *kernel.Proc) bool { f(p); return true }
}

// exitIf runs cond; it ends the process when cond reports true and
// completes otherwise.
func exitIf(cond func(p *kernel.Proc) bool) stage {
	return func(p *kernel.Proc) bool {
		if cond(p) {
			p.ReqExit()
			return false
		}
		return true
	}
}

// req issues one request (a Req* call) and completes at the dispatch
// after it has been served; a request that is a no-op completes at once.
func req(issue func(p *kernel.Proc) bool) stage {
	pending := false
	return func(p *kernel.Proc) bool {
		if pending {
			pending = false
			return true
		}
		pending = issue(p)
		return !pending
	}
}

func compute(d int64) stage {
	return req(func(p *kernel.Proc) bool { return p.ReqCompute(d) })
}

func delay(d int64) stage {
	return req(func(p *kernel.Proc) bool { return p.ReqDelay(d) })
}

func sleepOn(wq *kernel.WaitQ) stage {
	return req(func(p *kernel.Proc) bool { return p.ReqSleep(wq) })
}

// op drives one step machine: start prepares its frame when the stage is
// entered, step advances it until it completes.
func op(start func(), step func(p *kernel.Proc) bool) stage {
	started := false
	return func(p *kernel.Proc) bool {
		if !started {
			start()
			started = true
		}
		if !step(p) {
			return false
		}
		started = false
		return true
	}
}

// The socket-call stages. Sockets are passed by address because a body
// usually creates them in an earlier stage.

func recvFrom(h *Host, s **socket.Socket, fr *RecvFromOp) stage {
	return op(fr.Reset, func(p *kernel.Proc) bool { return h.RecvFromStep(p, *s, fr) })
}

func sendTo(h *Host, s **socket.Socket, dst pkt.Addr, dport uint16, data func() []byte, fr *SendToOp) stage {
	var b []byte
	return op(func() { fr.Reset(); b = data() }, func(p *kernel.Proc) bool {
		return h.SendToStep(p, *s, dst, dport, b, fr)
	})
}

func listen(h *Host, s **socket.Socket, backlog int, fr *ListenOp) stage {
	return op(func() { *fr = ListenOp{} }, func(p *kernel.Proc) bool { return h.ListenStep(p, *s, backlog, fr) })
}

func accept(h *Host, l **socket.Socket, fr *AcceptOp) stage {
	return op(func() { *fr = AcceptOp{} }, func(p *kernel.Proc) bool { return h.AcceptStep(p, *l, fr) })
}

func connect(h *Host, s **socket.Socket, raddr pkt.Addr, rport uint16, fr *ConnectTCPOp) stage {
	return op(func() { *fr = ConnectTCPOp{} }, func(p *kernel.Proc) bool {
		return h.ConnectTCPStep(p, *s, raddr, rport, fr)
	})
}

func sendStream(h *Host, s **socket.Socket, data func() []byte, fr *SendStreamOp) stage {
	return op(func() { *fr = SendStreamOp{Data: data()} }, func(p *kernel.Proc) bool {
		return h.SendStreamStep(p, *s, fr)
	})
}

func recvStream(h *Host, s **socket.Socket, max int, fr *RecvStreamOp) stage {
	return op(func() { *fr = RecvStreamOp{} }, func(p *kernel.Proc) bool { return h.RecvStreamStep(p, *s, max, fr) })
}

func closeTCP(h *Host, s **socket.Socket) stage {
	var fr CloseTCPOp
	return op(func() { fr = CloseTCPOp{} }, func(p *kernel.Proc) bool { return h.CloseTCPStep(p, *s, &fr) })
}

// bytesOf returns a constant data source for sendTo and sendStream.
func bytesOf(b []byte) func() []byte { return func() []byte { return b } }

// readToEOF reads s until end of stream or an error (left in fr),
// passing each chunk to each (which may be nil).
func readToEOF(h *Host, s **socket.Socket, max int, fr *RecvStreamOp, each func([]byte)) stage {
	eof := false
	return seq(
		while(func() bool { return !eof },
			recvStream(h, s, max, fr),
			do(func(*kernel.Proc) {
				if fr.Err != nil || fr.Data == nil {
					eof = true
				} else if each != nil {
					each(fr.Data)
				}
			}),
		),
		do(func(*kernel.Proc) { eof = false }),
	)
}

// failed reports err as a test error and returns whether there was one.
func failed(t *testing.T, err error) bool {
	t.Helper()
	if err != nil {
		t.Error(err)
		return true
	}
	return false
}

// udpReceiver is the body of a process that binds a UDP socket to port
// and receives on it until the socket fails, passing each datagram to
// each (which may be nil) and then computing perPkt µs.
func udpReceiver(h *Host, port uint16, perPkt int64, each func(p *kernel.Proc, d socket.Datagram)) kernel.StepFn {
	var s *socket.Socket
	var recv RecvFromOp
	return body(
		do(func(p *kernel.Proc) {
			s = h.NewUDPSocket(p)
			_ = h.BindUDP(s, port)
		}),
		loop(-1,
			recvFrom(h, &s, &recv),
			exitIf(func(p *kernel.Proc) bool {
				if recv.Err != nil {
					return true
				}
				if each != nil {
					each(p, recv.D)
				}
				return false
			}),
			compute(perPkt),
		),
	)
}

// tcpSink is the body of a TCP server on port that accepts one connection
// and reads it to end of stream, passing each chunk to each (which may be
// nil).
func tcpSink(h *Host, port uint16, each func([]byte)) kernel.StepFn {
	var (
		l   *socket.Socket
		lis ListenOp
		acc AcceptOp
		rs  RecvStreamOp
	)
	return body(
		do(func(p *kernel.Proc) {
			l = h.NewTCPSocket(p)
			_ = h.BindTCP(l, port)
		}),
		listen(h, &l, 5, &lis),
		accept(h, &l, &acc),
		exitIf(func(*kernel.Proc) bool { return acc.Err != nil }),
		readToEOF(h, &acc.NS, 64*1024, &rs, each),
	)
}
