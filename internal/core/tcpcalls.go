package core

// TCP socket setup and teardown. As in the paper, transmit-side
// processing happens in the sender's context; receive-side processing
// happens in softint context (BSD/Early-Demux) or in the APP thread (LRP).
// The calls that consume CPU or wait on protocol events are step machines
// in tcpsteps.go (ListenOp, AcceptOp, ConnectTCPOp, SendStreamOp,
// RecvStreamOp, CloseTCPOp).

import (
	"lrp/internal/kernel"
	"lrp/internal/pkt"
	"lrp/internal/socket"
	"lrp/internal/tcp"
)

// NewTCPSocket creates a stream socket owned by owner.
func (h *Host) NewTCPSocket(owner *kernel.Proc) *socket.Socket {
	s := socket.NewSocket(socket.Stream, owner)
	s.Local = h.Addr
	h.sockets = append(h.sockets, s)
	return s
}

// BindTCP reserves a local TCP port for s (0 allocates ephemeral).
func (h *Host) BindTCP(s *socket.Socket, port uint16) error {
	if s.Bound {
		return ErrPortInUse
	}
	if port == 0 {
		port = h.allocPort()
	} else if _, used := h.pcbs.LookupListen(pkt.ProtoTCP, pkt.Addr{}, port); used {
		return ErrPortInUse
	}
	s.LPort = port
	s.Bound = true
	return nil
}

// AbortTCP resets the connection immediately, from engine context (no
// CPU is charged).
func (h *Host) AbortTCP(s *socket.Socket) {
	if c, ok := s.Conn.(*tcp.Conn); ok {
		c.Abort()
	}
	s.Closed = true
}

// ConnOf returns the TCP connection behind a stream socket (nil if none).
func ConnOf(s *socket.Socket) *tcp.Conn {
	if c, ok := s.Conn.(*tcp.Conn); ok {
		return c
	}
	return nil
}
