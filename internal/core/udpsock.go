package core

// UDP socket system calls. The receive path is where the architectures
// diverge: under BSD and Early-Demux, datagrams were already processed by
// a software interrupt and sit in the socket queue; under LRP, raw packets
// wait on the socket's NI channel and are processed lazily here, in the
// context (and at the expense) of the receiving process.

import (
	"errors"

	"lrp/internal/demux"
	"lrp/internal/ipv4"
	"lrp/internal/kernel"
	"lrp/internal/pkt"
	"lrp/internal/socket"
)

// Socket-layer errors.
var (
	ErrClosed       = errors.New("core: socket closed")
	ErrNotBound     = errors.New("core: socket not bound")
	ErrPortInUse    = errors.New("core: port in use")
	ErrNoBufs       = errors.New("core: out of mbufs")
	ErrConnRefused  = errors.New("core: connection refused")
	ErrConnTimedOut = errors.New("core: connection timed out")
	ErrConnReset    = errors.New("core: connection reset")
	ErrNotListening = errors.New("core: socket not listening")
)

// NewUDPSocket creates a datagram socket owned by owner.
func (h *Host) NewUDPSocket(owner *kernel.Proc) *socket.Socket {
	s := socket.NewSocket(socket.Dgram, owner)
	s.RecvDgrams = socket.NewDgramQueue(h.CM.SockQueueLimit)
	s.Local = h.Addr
	h.sockets = append(h.sockets, s)
	return s
}

// BindUDP binds s to a local port (0 allocates an ephemeral port). On LRP
// hosts this also creates the socket's NI channel ("When a socket is bound
// to a local port... an NI channel is created").
func (h *Host) BindUDP(s *socket.Socket, port uint16) error {
	if s.Bound {
		return ErrPortInUse
	}
	if port == 0 {
		port = h.allocPort()
	} else if _, used := h.pcbs.LookupListen(pkt.ProtoUDP, pkt.Addr{}, port); used {
		return ErrPortInUse
	}
	s.LPort = port
	s.Bound = true
	h.pcbs.BindListen(pkt.ProtoUDP, pkt.Addr{}, port, s)
	h.registerFilter(s, demux.CompileUDPPortFilter(port))
	h.attachChannel(s)
	return nil
}

// ConnectUDP fixes the remote address of a datagram socket, installing an
// exact demultiplexing entry.
func (h *Host) ConnectUDP(s *socket.Socket, raddr pkt.Addr, rport uint16) error {
	if !s.Bound {
		if err := h.BindUDP(s, 0); err != nil {
			return err
		}
	}
	s.Remote = raddr
	s.RPort = rport
	s.Connected = true
	h.pcbs.BindConnected(pkt.ProtoUDP, h.Addr, s.LPort, raddr, rport, s)
	return nil
}

// ipOutput fragments and queues packets on the interface from engine
// context (the caller's costs were pre-charged or are not modelled).
func (h *Host) ipOutput(s *socket.Socket, b []byte) error {
	frags := [][]byte{b} //lrp:nolint hotalloc -- single-element scratch slice that does not escape: sendFrags only ranges over it
	if len(b) > h.MTU {
		frags = ipv4.Fragment(b, h.MTU)
		if frags == nil {
			return ErrNoBufs
		}
	}
	return h.sendFrags(s, frags)
}

// sendFrags copies each fragment into pool-owned storage and queues it on
// the interface: senders build packets in scratch buffers they reuse, so
// the mbufs must not alias them.
func (h *Host) sendFrags(s *socket.Socket, frags [][]byte) error {
	for _, f := range frags {
		m := h.Pool.AllocCopy(f)
		if m == nil {
			if s != nil {
				s.Stats.ProtoDrops++
			}
			return ErrNoBufs
		}
		if s != nil {
			s.Stats.TxPackets++
			s.Stats.TxBytes += uint64(len(f))
		}
		h.NIC.Send(m)
	}
	return nil
}

// CloseUDP closes a datagram socket, releasing its port, channel and any
// queued data, and wakes blocked receivers. It takes effect at once and
// charges no CPU; a closing process that models the syscall requests
// SyscallFixed itself.
func (h *Host) CloseUDP(s *socket.Socket) {
	if s.Closed {
		return
	}
	s.Closed = true
	if s.Bound {
		h.pcbs.UnbindListen(pkt.ProtoUDP, pkt.Addr{}, s.LPort)
		h.unregisterFilter(s)
	}
	if s.Connected {
		h.pcbs.UnbindConnected(pkt.ProtoUDP, h.Addr, s.LPort, s.Remote, s.RPort)
	}
	h.detachChannel(s)
	s.RcvWait.WakeupAll()
}
