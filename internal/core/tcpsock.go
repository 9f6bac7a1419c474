package core

// TCP socket system calls and the LRP asynchronous protocol processing
// (APP) machinery. TCP cannot be processed purely lazily — "transmission
// of data is paced by the receiver via acknowledgments", so incoming
// segments are processed asynchronously by a kernel thread that is
// scheduled at the receiving application's priority and whose CPU usage is
// charged back to that application. Under BSD and Early-Demux the same
// protocol code runs in software-interrupt context instead.

import (
	"lrp/internal/kernel"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
	"lrp/internal/tcp"
)

// initTCPHooks wires the tcp package's environment callbacks.
func (h *Host) initTCPHooks() {
	h.hooks = tcp.Hooks{
		Now: h.Eng.Now,
		Output: func(c *tcp.Conn, b []byte) {
			var s *socket.Socket
			if us, ok := c.UserData.(*socket.Socket); ok {
				s = us
			}
			_ = h.ipOutput(s, b)
		},
		ArmTimer:      h.armConnTimer,
		DisarmTimer:   h.disarmConnTimer,
		Notify:        h.connNotify,
		NewChild:      h.newChildConn,
		Dealloc:       h.deallocConn,
		TimeWaitDur:   h.CM.TimeWaitDur,
		MaxSynRetries: 4,
	}
}

// armConnTimer schedules a connection timer. When it fires, processing is
// routed to the architecture's protocol-processing context.
func (h *Host) armConnTimer(c *tcp.Conn, t tcp.Timer, delay int64) {
	ct := h.timers[c]
	if ct == nil {
		ct = &connTimers{}
		h.timers[c] = ct
	}
	h.Eng.Cancel(ct.ev[t])
	ct.gen[t]++
	gen := ct.gen[t]
	ct.ev[t] = h.Eng.After(delay, func() {
		ct.ev[t] = sim.Event{}
		h.dispatchTimer(c, t, gen)
	})
}

func (h *Host) disarmConnTimer(c *tcp.Conn, t tcp.Timer) {
	ct := h.timers[c]
	if ct == nil {
		return
	}
	ct.gen[t]++ // invalidate any queued expiry
	h.Eng.Cancel(ct.ev[t])
	ct.ev[t] = sim.Event{}
}

// dispatchTimer routes a fired timer into protocol-processing context.
func (h *Host) dispatchTimer(c *tcp.Conn, t tcp.Timer, gen uint64) {
	if h.Arch.IsLRP() {
		h.appQ = append(h.appQ, appWork{conn: c, timer: t, gen: gen})
		h.appWq.WakeupAll()
		return
	}
	// BSD / Early-Demux: timer processing in software interrupt context.
	h.K.PostSW(kernel.WorkItem{Cost: h.CM.TCPTimerCost, Fn: func() {
		if h.timerValid(c, t, gen) {
			c.TimerExpire(t)
		}
	}})
}

func (h *Host) timerValid(c *tcp.Conn, t tcp.Timer, gen uint64) bool {
	ct := h.timers[c]
	return ct != nil && ct.gen[t] == gen
}

// connSocket returns the socket behind a connection, if any.
func connSocket(c *tcp.Conn) *socket.Socket {
	if s, ok := c.UserData.(*socket.Socket); ok {
		return s
	}
	return nil
}

// connNotify maps protocol events to socket wakeups and LRP channel
// management.
func (h *Host) connNotify(c *tcp.Conn, ev tcp.Event) {
	s := connSocket(c)
	if s == nil {
		return
	}
	switch ev {
	case tcp.EvEstablished:
		s.Connected = true
		s.SndWait.WakeupAll()
	case tcp.EvAcceptable:
		s.AcceptWait.WakeupAll()
		h.syncListenChannel(s)
	case tcp.EvReadable:
		s.RcvWait.WakeupAll()
	case tcp.EvWritable:
		s.SndWait.WakeupAll()
	case tcp.EvTimeWait:
		if h.Arch == ArchNILRP && s.NIChan != nil {
			// "deallocating an NI channel as soon as the associated TCP
			// connection enters the TIME_WAIT state. Any subsequently
			// arriving packets on this connection are queued at a special
			// NI channel."
			h.detachChannel(s)
			s.NIChan = nil
			h.redirectToTimeWaitChannel(s)
		}
	case tcp.EvReset, tcp.EvClosed:
		s.RcvWait.WakeupAll()
		s.SndWait.WakeupAll()
		s.AcceptWait.WakeupAll()
	}
}

// redirectToTimeWaitChannel rebinds a TIME_WAIT socket's demux entry onto
// the shared TIME_WAIT channel, drained by the APP thread.
func (h *Host) redirectToTimeWaitChannel(s *socket.Socket) {
	s.NIChan = h.twChan
}

// newChildConn services an incoming SYN on a listener: allocate the
// socket, the connection, the demultiplexing entry, and (LRP) the NI
// channel.
func (h *Host) newChildConn(l *tcp.Conn, remote pkt.Addr, rport uint16) *tcp.Conn {
	ls := connSocket(l)
	if ls == nil {
		return nil
	}
	s := socket.NewSocket(socket.Stream, ls.Owner)
	s.Local = h.Addr
	s.LPort = l.LPort
	s.Remote = remote
	s.RPort = rport
	s.Bound = true
	h.sockets = append(h.sockets, s)

	c := tcp.NewConn(&h.hooks, h.Addr, l.LPort, remote, rport, h.nextISS())
	c.SetBufSizes(l.SndBuf.Limit, l.RcvBuf.Limit)
	c.UserData = s
	s.Conn = c
	h.pcbs.BindConnected(pkt.ProtoTCP, h.Addr, l.LPort, remote, rport, s)
	h.attachChannel(s)
	return c
}

// deallocConn tears down host state when a connection dies.
func (h *Host) deallocConn(c *tcp.Conn) {
	delete(h.timers, c)
	s := connSocket(c)
	if s == nil {
		return
	}
	if s.Listening {
		h.pcbs.UnbindListen(pkt.ProtoTCP, pkt.Addr{}, s.LPort)
		h.unregisterFilter(s)
	} else if s.Bound && s.RPort != 0 {
		h.pcbs.UnbindConnected(pkt.ProtoTCP, h.Addr, s.LPort, s.Remote, s.RPort)
	}
	if s.NIChan != nil && s.NIChan != h.twChan {
		h.detachChannel(s)
	}
	s.NIChan = nil
	s.Closed = true
}

// syncListenChannel enables/disables protocol processing on a listener's
// channel according to its backlog: "protocol processing is disabled for
// listening sockets that have exceeded their listen backlog limit, thus
// causing the discard of further SYN packets at the NI channel queue."
func (h *Host) syncListenChannel(s *socket.Socket) {
	if s.NIChan == nil || !s.Listening {
		return
	}
	if c, ok := s.Conn.(*tcp.Conn); ok {
		s.NIChan.ProcessingDisabled = c.BacklogFull()
	}
}

// ---------------------------------------------------------------------------
// APP: the asynchronous protocol processing thread (LRP).

// queueChannelWork asks the APP thread to drain a TCP socket's channel.
//
//lrp:coldalloc amortized: appQ is drained in place and keeps its capacity across APP rounds
func (h *Host) queueChannelWork(s *socket.Socket) {
	h.appQ = append(h.appQ, appWork{sock: s})
	h.appWq.WakeupAll()
}

// appOwner resolves the process to charge for a socket's processing.
func appOwner(s *socket.Socket) *kernel.Proc {
	if s == nil {
		return nil
	}
	return s.Owner
}
