package core

// Resumable socket operations for process step bodies.
//
// Every socket call that consumes CPU or waits is a step machine in this
// file (or tcpsteps.go): an exported *Op frame holding the operation's
// program counter and locals, plus a Step method the caller's StepFn
// invokes repeatedly. A Step method returns true when the operation has
// completed (results live in the frame) and false when it has issued a
// scheduling request via the kernel's Req* setters; the StepFn then
// returns to the scheduler and calls Step again at its next dispatch.
//
// Ordering rule: each machine fixes the interleaving of reads, mutations
// and requests the archives pin — e.g. the receive deadline is computed
// before the syscall charge, a raw packet's bytes are read only after the
// protocol-processing charge, and zero-cost charges fall through inline
// without returning to the scheduler.

import (
	"lrp/internal/ipv4"
	"lrp/internal/kernel"
	"lrp/internal/mbuf"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
)

// SendToOp is the frame of one UDP transmit (SendToStep).
type SendToOp struct {
	pc    int
	frags [][]byte

	// Err is the operation's result, valid once Step returns true.
	Err error
}

// Reset prepares the frame for a fresh transmit, keeping the fragment
// scratch so repeated sends through one frame do not allocate.
func (fr *SendToOp) Reset() {
	fr.pc = sendCharge
	fr.Err = nil
}

// SendTo machine states.
const (
	sendCharge = iota // charge the syscall + transmit-side protocol cost
	sendBuild         // build the packet, fragment, charge per extra fragment
	sendXmit          // copy fragments into mbufs and hand to the NIC
)

// SendToStep advances one UDP transmit. All architectures perform
// transmit-side processing in the sender's context, as BSD does. dst,
// dport and data must be the same values on every call for one operation.
func (h *Host) SendToStep(p *kernel.Proc, s *socket.Socket, dst pkt.Addr, dport uint16, data []byte, fr *SendToOp) bool {
	for {
		switch fr.pc {
		case sendCharge:
			if s.Closed {
				fr.Err = ErrClosed
				return true
			}
			if !s.Bound {
				if err := h.BindUDP(s, 0); err != nil {
					fr.Err = err
					return true
				}
			}
			cost := h.CM.SyscallFixed + h.CM.CopyCost(len(data)) + h.CM.UDPOutCost + h.CM.IPOutCost
			if !s.NoUDPChecksum {
				cost += h.CM.ChecksumCost(len(data))
			}
			fr.pc = sendBuild
			if p.ReqComputeSys(cost) {
				return false
			}
		case sendBuild:
			// Build into the host's scratch buffer; sendFrags copies each
			// fragment into pool-owned storage, so the scratch is free for
			// the next send.
			h.txScratch = pkt.AppendUDP(h.txScratch[:0], h.Addr, dst, s.LPort, dport, h.nextIPID(), 64, data, !s.NoUDPChecksum)
			b := h.txScratch
			fr.frags = append(fr.frags[:0], b)
			if len(b) > h.MTU {
				frags := ipv4.Fragment(b, h.MTU)
				if frags == nil {
					fr.Err = ErrNoBufs
					return true
				}
				fr.frags = frags
				fr.pc = sendXmit
				if len(frags) > 1 && p.ReqComputeSys(int64(len(frags)-1)*h.CM.IPOutCost) {
					return false
				}
				continue
			}
			fr.pc = sendXmit
		case sendXmit:
			fr.Err = h.sendFrags(s, fr.frags)
			return true
		}
	}
}

// RecvFromOp is the frame of one UDP receive (RecvFromStep), covering the
// plain, deadline-bounded, and multicast-member receive paths.
type RecvFromOp struct {
	// Timed selects the deadline-bounded variant; Timeout is its budget in
	// µs. Both must be set before the first Step call.
	Timed   bool
	Timeout int64

	pc       int
	deadline sim.Time
	g        *mcastGroup
	m        *mbuf.Mbuf
	lazy     lazyInputOp
	fan      mcastFanoutOp
	fanD     socket.Datagram

	// Results, valid once Step returns true: the datagram, whether one
	// arrived (false only on a Timed expiry), and any error.
	D   socket.Datagram
	OK  bool
	Err error
}

// Reset prepares the frame for a fresh receive with the same deadline
// configuration.
func (fr *RecvFromOp) Reset() {
	*fr = RecvFromOp{Timed: fr.Timed, Timeout: fr.Timeout}
}

// RecvFrom machine states.
const (
	recvStart     = iota // record the deadline, charge the syscall entry
	recvDispatch         // route to the unicast or multicast loop
	recvLoop             // unicast: poll queues or sleep
	recvLazy             // unicast: lazy protocol processing of one raw packet
	recvTimedWake        // unicast: woke from a timed sleep
	recvMcastLoop        // multicast: poll queues or sleep
	recvMcastLazy        // multicast: lazy processing on the shared channel
	recvMcastFan         // multicast: fan a datagram out to the members
	recvDone             // final copy-out charge issued
)

// RecvFromStep advances one UDP receive. Under LRP, protocol processing
// for queued raw packets happens here — "in the context of the user
// process performing the system call".
func (h *Host) RecvFromStep(p *kernel.Proc, s *socket.Socket, fr *RecvFromOp) bool {
	for {
		switch fr.pc {
		case recvStart:
			if fr.Timed {
				fr.deadline = h.Eng.Now() + fr.Timeout
			}
			fr.pc = recvDispatch
			if p.ReqComputeSys(h.CM.SyscallFixed) {
				return false
			}
		case recvDispatch:
			if !fr.Timed {
				if g := h.mcastMember[s]; g != nil {
					fr.g = g
					fr.pc = recvMcastLoop
					continue
				}
			}
			fr.pc = recvLoop
		case recvLoop:
			if s.Closed {
				fr.Err = ErrClosed
				return true
			}
			// Already-processed datagrams first (softint under BSD/Early-
			// Demux; the idle thread under LRP).
			if d, ok := s.RecvDgrams.Dequeue(); ok {
				fr.D = d
				fr.OK = true
				fr.pc = recvDone
				if p.ReqComputeSys(h.CM.SockQueueCost + h.CM.CopyCost(len(d.Data))) {
					return false
				}
				continue
			}
			// LRP lazy path: raw packets on the NI channel.
			if s.NIChan != nil {
				if m := s.NIChan.Queue.Dequeue(); m != nil {
					fr.m = m
					fr.lazy = lazyInputOp{}
					fr.pc = recvLazy
					continue
				}
				s.NIChan.IntrRequested = true
			}
			if fr.Timed {
				remain := fr.deadline - h.Eng.Now()
				if remain <= 0 {
					return true // OK=false: deadline passed
				}
				fr.pc = recvTimedWake
				p.ReqSleepTimeout(&s.RcvWait, remain)
				return false
			}
			p.ReqSleep(&s.RcvWait)
			return false
		case recvTimedWake:
			if p.TimedOut() {
				return true // OK=false: timed out while asleep
			}
			fr.pc = recvLoop
		case recvLazy:
			if !h.udpLazyInputStep(p, p, s, fr.m, &fr.lazy) {
				return false
			}
			fr.m = nil
			if !fr.lazy.ok {
				fr.pc = recvLoop // bad packet; keep trying
				continue
			}
			fr.D = fr.lazy.d
			fr.OK = true
			fr.pc = recvDone
			if p.ReqComputeSys(h.CM.CopyCost(len(fr.D.Data))) {
				return false
			}
		case recvMcastLoop:
			// Member-socket receive: drain the member queue, else lazily
			// process the group's shared channel and fan out.
			if s.Closed {
				fr.Err = ErrClosed
				return true
			}
			if d, ok := s.RecvDgrams.Dequeue(); ok {
				fr.D = d
				fr.OK = true
				fr.pc = recvDone
				if p.ReqComputeSys(h.CM.SockQueueCost + h.CM.CopyCost(len(d.Data))) {
					return false
				}
				continue
			}
			if ch := fr.g.gsock.NIChan; ch != nil {
				if m := ch.Queue.Dequeue(); m != nil {
					fr.m = m
					fr.lazy = lazyInputOp{}
					fr.pc = recvMcastLazy
					continue
				}
				fr.g.gsock.Owner = fr.g.bestOwner()
				ch.IntrRequested = true
			}
			p.ReqSleep(&s.RcvWait)
			return false
		case recvMcastLazy:
			if !h.udpLazyInputStep(p, p, fr.g.gsock, fr.m, &fr.lazy) {
				return false
			}
			fr.m = nil
			if !fr.lazy.ok {
				fr.pc = recvMcastLoop
				continue
			}
			fr.fanD = fr.lazy.d
			if mm := fr.fanD.M; mm != nil {
				// Fanout copies share the bytes, so no member may recycle
				// them: disown the storage (the GC reclaims it) and recycle
				// just the struct, as the pre-handoff code did.
				fr.fanD.M = nil
				mm.Detach()
				mm.EndTransfer()
			}
			fr.fan = mcastFanoutOp{members: fr.g.members}
			fr.pc = recvMcastFan
		case recvMcastFan:
			if !h.mcastFanoutStep(p, fr.fanD, &fr.fan) {
				return false
			}
			fr.fan = mcastFanoutOp{}
			fr.pc = recvMcastLoop // our own queue now holds the datagram
		case recvDone:
			return true
		}
	}
}

// lazyInputOp is the frame of udpLazyInputStep: IP+UDP receive processing
// for one raw packet in process context.
type lazyInputOp struct {
	pc      int
	b       []byte
	arrival sim.Time
	whole   []byte
	drain   fragDrainOp
	d       socket.Datagram
	ok      bool
}

// Lazy-input machine states.
const (
	lazyCharge  = iota // charge dequeue + protocol-processing cost
	lazyProcess        // read the packet, run reassembly
	lazyDrain          // pull missing fragments off the fragment channel
	lazyDecode         // decode headers and build the datagram
)

// udpLazyInputStep performs IP+UDP receive processing for one raw packet
// in process context. CPU is consumed by p but charged to owner (identical
// to p for a process in a receive call; the socket owner when the idle
// thread processes on its behalf). It consults the fragment channel when
// reassembly is missing pieces.
func (h *Host) udpLazyInputStep(p, owner *kernel.Proc, s *socket.Socket, m *mbuf.Mbuf, fr *lazyInputOp) bool {
	for {
		switch fr.pc {
		case lazyCharge:
			fr.pc = lazyProcess
			if p.ReqComputeSysFor(owner, h.channelDequeueCost()+h.lrpProtoInCost(m.Data)) {
				return false
			}
		case lazyProcess:
			fr.b = m.Data
			fr.arrival = m.Arrival
			// Release the pool slot before protocol processing (matching the
			// old free-then-read accounting) but keep the storage until the
			// raw bytes are no longer needed — or hand the mbuf to the
			// delivered datagram when the bytes escape into it. The transfer
			// spans scheduler yields, so the flow-sensitive pairing check
			// cannot follow it: every state that completes the machine ends
			// the transfer or moves its ownership into Datagram.M.
			m.BeginTransfer() //lrp:nolint mbufown
			whole, done := h.reasm.Input(fr.b, h.Eng.Now())
			if !done {
				fr.drain = fragDrainOp{}
				fr.pc = lazyDrain
				continue
			}
			fr.whole = whole
			fr.pc = lazyDecode
		case lazyDrain:
			if !h.fragDrainStep(p, owner, fr.b, &fr.drain) {
				return false
			}
			if !fr.drain.ok {
				m.EndTransfer()
				return true // ok=false
			}
			fr.whole = fr.drain.whole
			fr.pc = lazyDecode
		case lazyDecode:
			whole := fr.whole
			ih, hlen, err := pkt.DecodeIPv4(whole)
			if err != nil || ih.Proto != pkt.ProtoUDP {
				s.Stats.ProtoDrops++
				m.EndTransfer()
				return true
			}
			seg := whole[hlen:int(ih.TotalLen)]
			uh, err := pkt.DecodeUDP(seg, ih.Src, ih.Dst)
			if err != nil {
				s.Stats.ProtoDrops++
				m.EndTransfer()
				return true
			}
			s.Stats.RxDelivered++
			s.Stats.RxBytes += uint64(int(uh.Length) - pkt.UDPHeaderLen)
			var own *mbuf.Mbuf
			if aliases(whole, fr.b) {
				// The datagram rides in the packet's own buffer: hand the
				// mbuf over with it so the consumer can recycle the storage
				// once the bytes are dead (Datagram.Release).
				own = m
			} else {
				m.EndTransfer() // reassembled elsewhere; packet buffer is done
			}
			fr.d = socket.Datagram{
				Data:    seg[pkt.UDPHeaderLen:int(uh.Length)],
				Src:     ih.Src,
				SPort:   uh.SrcPort,
				Arrival: fr.arrival,
				M:       own,
			}
			fr.ok = true
			return true
		}
	}
}

// fragDrainOp is the frame of fragDrainStep.
type fragDrainOp struct {
	pc    int
	fm    *mbuf.Mbuf
	whole []byte
	ok    bool
}

// Fragment-drain machine states.
const (
	fragCheck   = iota // is reassembly actually missing pieces?
	fragDequeue        // pull the next queued fragment, charge for it
	fragInput          // feed it to the reassembler
)

// fragDrainStep feeds packets from the special fragment channel to the
// reassembler ("The IP reassembly function checks this channel queue when
// it misses fragments during reassembly"). Completes with ok and the
// assembled datagram if one emerges.
func (h *Host) fragDrainStep(p, owner *kernel.Proc, trigger []byte, fr *fragDrainOp) bool {
	for {
		switch fr.pc {
		case fragCheck:
			if h.fragChan == nil {
				return true
			}
			ih, _, err := pkt.DecodeIPv4(trigger)
			if err != nil || !h.reasm.MissingFor(ih.Src, ih.Dst, ih.ID, ih.Proto) {
				return true
			}
			fr.pc = fragDequeue
		case fragDequeue:
			fm := h.fragChan.Queue.Dequeue()
			if fm == nil {
				return true // ok=false
			}
			fr.fm = fm
			fr.pc = fragInput
			if p.ReqComputeSysFor(owner, h.CM.IPInCost) {
				return false
			}
		case fragInput:
			// Fragments are copied by the reassembler; the assembled datagram
			// never aliases this mbuf, so its storage recycles immediately.
			fb := fr.fm.Data
			fr.fm.BeginTransfer()
			whole, done := h.reasm.Input(fb, h.Eng.Now())
			fr.fm.EndTransfer()
			fr.fm = nil
			if done {
				fr.whole = whole
				fr.ok = true
				return true
			}
			fr.pc = fragDequeue
		}
	}
}

// mcastFanoutOp is the frame of mcastFanoutStep. The member list is
// captured when the frame is initialized, like the range clause of the
// loop it replaces.
type mcastFanoutOp struct {
	pc      int
	members []*socket.Socket
	i       int
}

// mcastFanoutStep delivers one processed datagram to every member socket.
// Each enqueue costs SockQueueCost in the current context (p may be nil
// for softint callers whose cost was pre-charged; a nil p never yields).
func (h *Host) mcastFanoutStep(p *kernel.Proc, d socket.Datagram, fr *mcastFanoutOp) bool {
	for {
		switch fr.pc {
		case 0:
			if fr.i >= len(fr.members) {
				return true
			}
			m := fr.members[fr.i]
			if m.Closed || m.RecvDgrams == nil {
				fr.i++
				continue
			}
			fr.pc = 1
			if p != nil && p.ReqComputeSys(h.CM.SockQueueCost) {
				return false
			}
		case 1:
			m := fr.members[fr.i]
			if m.RecvDgrams.Enqueue(d) {
				m.Stats.RxDelivered++
				m.Stats.RxBytes += uint64(len(d.Data))
				m.RcvWait.WakeupAll()
			}
			fr.i++
			fr.pc = 0
		}
	}
}
