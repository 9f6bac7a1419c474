package core

// Additional integration tests: the LRP fragment channel, the NI-LRP
// TIME_WAIT channel, demultiplexing precedence, resource exhaustion, and
// cross-architecture interoperation.

import (
	"bytes"
	"strings"
	"testing"

	"lrp/internal/ipv4"
	"lrp/internal/kernel"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
	"lrp/internal/tcp"
)

// fragments splits a UDP packet into IP fragments for injection.
func fragments(payloadLen int, id uint16) [][]byte {
	whole := pkt.UDPPacket(addrA, addrB, 1000, 7, id, 64, make([]byte, payloadLen), false)
	return ipv4.Fragment(whole, ipv4.DefaultMTU)
}

func TestLRPFragmentChannelOutOfOrder(t *testing.T) {
	// Trailing fragments arriving before the header fragment land on the
	// special fragment channel; reassembly pulls them from there when the
	// header fragment arrives ("The IP reassembly function checks this
	// channel queue when it misses fragments during reassembly").
	for _, arch := range []Arch{ArchNILRP, ArchSoftLRP} {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			r := newRig(t, arch)
			var got int
			var s *socket.Socket
			var recv RecvFromOp
			r.server.K.SpawnStep("recv", 0, body(
				do(func(p *kernel.Proc) {
					s = r.server.NewUDPSocket(p)
					_ = r.server.BindUDP(s, 7)
				}),
				recvFrom(r.server, &s, &recv),
				do(func(*kernel.Proc) {
					if recv.Err == nil {
						got = len(recv.D.Data)
					}
				}),
			))
			frags := fragments(25000, 42)
			if len(frags) < 3 {
				t.Fatalf("need ≥3 fragments, got %d", len(frags))
			}
			// Deliver in reverse order: all non-first fragments miss.
			for i := len(frags) - 1; i >= 0; i-- {
				f := frags[i]
				at := int64(1000 * (len(frags) - i))
				r.eng.At(at, func() { r.nw.Inject(f) })
			}
			r.eng.RunFor(sim.Second)
			if got != 25000 {
				t.Fatalf("reassembled %d bytes", got)
			}
		})
	}
}

func TestConnectedUDPBeatsWildcard(t *testing.T) {
	// A connected UDP socket's exact demux entry takes traffic from its
	// peer; a wildcard socket on the same port gets everything else.
	r := newRig(t, ArchSoftLRP)
	var exact, wild int
	var s *socket.Socket
	var recv RecvFromOp
	r.server.K.SpawnStep("exact", 0, body(
		do(func(p *kernel.Proc) {
			s = r.server.NewUDPSocket(p)
			_ = r.server.BindUDP(s, 7)
			// Rebind as connected to client port 5000.
			_ = r.server.ConnectUDP(s, addrA, 5000)
		}),
		loop(-1,
			recvFrom(r.server, &s, &recv),
			exitIf(func(*kernel.Proc) bool { return recv.Err != nil }),
			do(func(*kernel.Proc) { exact++ }),
		),
	))
	r.eng.RunFor(10 * sim.Millisecond)
	// A wildcard socket on a second port receives unrelated traffic.
	r.server.K.SpawnStep("wild", 0, udpReceiver(r.server, 8, 0, func(*kernel.Proc, socket.Datagram) { wild++ }))
	r.eng.At(20*1000, func() {
		r.nw.Inject(pkt.UDPPacket(addrA, addrB, 5000, 7, 1, 64, []byte("to-exact"), true))
		r.nw.Inject(pkt.UDPPacket(addrA, addrB, 5001, 8, 2, 64, []byte("to-wild"), true))
	})
	r.eng.RunFor(sim.Second)
	if exact != 1 || wild != 1 {
		t.Fatalf("exact=%d wild=%d", exact, wild)
	}
}

func TestBindConflict(t *testing.T) {
	r := newRig(t, ArchBSD)
	r.server.K.SpawnStep("binder", 0, body(do(func(p *kernel.Proc) {
		a := r.server.NewUDPSocket(p)
		if err := r.server.BindUDP(a, 7); err != nil {
			t.Errorf("first bind: %v", err)
		}
		b := r.server.NewUDPSocket(p)
		if err := r.server.BindUDP(b, 7); err == nil {
			t.Error("duplicate bind succeeded")
		}
		// Ephemeral binds never collide.
		seen := map[uint16]bool{}
		for i := 0; i < 50; i++ {
			s := r.server.NewUDPSocket(p)
			if err := r.server.BindUDP(s, 0); err != nil {
				t.Errorf("ephemeral bind %d: %v", i, err)
			}
			if seen[s.LPort] {
				t.Errorf("ephemeral port %d reused", s.LPort)
			}
			seen[s.LPort] = true
		}
	})))
	r.eng.RunFor(100 * sim.Millisecond)
}

func TestNILRPTimeWaitChannelHandlesLateSegments(t *testing.T) {
	// After a NI-LRP connection enters TIME_WAIT its channel is gone;
	// late segments are queued on the shared TIME_WAIT channel and still
	// processed (via a PCB lookup) so the late FIN gets its ACK.
	r := newRig(t, ArchNILRP)
	r.server.CM.TimeWaitDur = 2 * sim.Second
	r.client.CM.TimeWaitDur = 2 * sim.Second
	var clientSock *socket.Socket
	done := false
	var l *socket.Socket
	var lis ListenOp
	var acc AcceptOp
	var rs RecvStreamOp
	r.server.K.SpawnStep("srv", 0, body(
		do(func(p *kernel.Proc) {
			l = r.server.NewTCPSocket(p)
			_ = r.server.BindTCP(l, 80)
		}),
		listen(r.server, &l, 5, &lis),
		accept(r.server, &l, &acc),
		exitIf(func(*kernel.Proc) bool { return acc.Err != nil }),
		recvStream(r.server, &acc.NS, 100, &rs),
		closeTCP(r.server, &acc.NS), // server closes first -> server TIME_WAIT
	))
	var conn ConnectTCPOp
	var cw SendStreamOp
	var cr RecvStreamOp
	r.client.K.SpawnStep("cli", 0, body(
		do(func(p *kernel.Proc) { clientSock = r.client.NewTCPSocket(p) }),
		connect(r.client, &clientSock, addrB, 80, &conn),
		exitIf(func(*kernel.Proc) bool { return failed(t, conn.Err) }),
		sendStream(r.client, &clientSock, bytesOf([]byte("x")), &cw),
		readToEOF(r.client, &clientSock, 100, &cr, nil),
		closeTCP(r.client, &clientSock),
		do(func(*kernel.Proc) { done = true }),
	))
	r.eng.RunFor(sim.Second)
	if !done {
		t.Fatal("exchange incomplete")
	}
	// Find the server-side conn in TIME_WAIT and replay the client's FIN.
	var twConn *tcp.Conn
	for _, s := range r.server.Sockets() {
		if c := ConnOf(s); c != nil && c.State == tcp.TimeWait {
			twConn = c
		}
	}
	if twConn == nil {
		t.Fatal("no server conn in TIME_WAIT")
	}
	cc := ConnOf(clientSock)
	segsBefore := twConn.Stats.SegsIn
	// Retransmit the client's FIN|ACK as a raw packet.
	h := pkt.TCPHeader{
		SrcPort: cc.LPort, DstPort: 80,
		Seq: cc.SndNxt() - 1, Ack: cc.RcvNxt(),
		Flags: pkt.TCPFin | pkt.TCPAck, Window: 1000,
	}
	r.nw.Inject(pkt.TCPSegment(addrA, addrB, &h, 999, 64, nil))
	r.eng.RunFor(200 * sim.Millisecond)
	if twConn.Stats.SegsIn != segsBefore+1 {
		t.Fatalf("late segment not processed via TIME_WAIT channel: %d -> %d",
			segsBefore, twConn.Stats.SegsIn)
	}
	if twConn.State != tcp.TimeWait {
		t.Fatalf("late FIN corrupted state: %v", twConn.State)
	}
}

func TestMbufPoolExhaustionDropsAtNIC(t *testing.T) {
	// With a tiny pool, a burst overflows at the NIC ring with no host
	// CPU invested, and the counters say so.
	cm := DefaultCosts()
	cm.MbufPoolLimit = 8
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	server := NewHost(eng, nw, Config{Name: "srv", Addr: addrB, Arch: ArchBSD, Costs: cm})
	defer server.Shutdown()
	server.K.SpawnStep("recv", 0, udpReceiver(server, 7, 0, nil))
	eng.At(1000, func() {
		for i := 0; i < 64; i++ {
			nw.Inject(pkt.UDPPacket(addrA, addrB, 9, 7, uint16(i), 64, make([]byte, 14), true))
		}
	})
	eng.RunFor(100 * sim.Millisecond)
	if d := server.NIC.Stats().RxRingDrops; d == 0 {
		t.Fatal("no drops despite 8-mbuf pool and a 64-packet burst")
	}
}

func TestCrossArchitectureInterop(t *testing.T) {
	// A BSD client talks to an LRP server: the wire format is the wire
	// format; architectures only change host-internal processing.
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	server := NewHost(eng, nw, Config{Name: "srv", Addr: addrB, Arch: ArchNILRP})
	client := NewHost(eng, nw, Config{Name: "cli", Addr: addrA, Arch: ArchBSD})
	defer server.Shutdown()
	defer client.Shutdown()
	var reply []byte
	var ss, cs *socket.Socket
	var srecv, crecv RecvFromOp
	var up []byte
	upper := func(b []byte) []byte {
		up = append(up[:0], bytes.ToUpper(b)...)
		return up
	}
	var ssend, csend SendToOp
	server.K.SpawnStep("echo", 0, body(
		do(func(p *kernel.Proc) {
			ss = server.NewUDPSocket(p)
			_ = server.BindUDP(ss, 7)
		}),
		loop(-1,
			recvFrom(server, &ss, &srecv),
			exitIf(func(*kernel.Proc) bool { return srecv.Err != nil }),
			op(ssend.Reset, func(p *kernel.Proc) bool {
				d := srecv.D
				return server.SendToStep(p, ss, d.Src, d.SPort, upper(d.Data), &ssend)
			}),
		),
	))
	client.K.SpawnStep("cli", 0, body(
		do(func(p *kernel.Proc) {
			cs = client.NewUDPSocket(p)
			_ = client.BindUDP(cs, 0)
		}),
		sendTo(client, &cs, addrB, 7, bytesOf([]byte("hello")), &csend),
		recvFrom(client, &cs, &crecv),
		do(func(*kernel.Proc) {
			if crecv.Err == nil {
				reply = crecv.D.Data
			}
		}),
	))
	eng.RunFor(sim.Second)
	if string(reply) != "HELLO" {
		t.Fatalf("got %q", reply)
	}
}

func TestRecvFromTimeoutExpires(t *testing.T) {
	r := newRig(t, ArchSoftLRP)
	var timedOut bool
	var elapsed sim.Time
	var s *socket.Socket
	var start sim.Time
	recv := RecvFromOp{Timed: true, Timeout: 50 * sim.Millisecond}
	r.server.K.SpawnStep("recv", 0, body(
		do(func(p *kernel.Proc) {
			s = r.server.NewUDPSocket(p)
			_ = r.server.BindUDP(s, 7)
			start = p.Now()
		}),
		recvFrom(r.server, &s, &recv),
		do(func(p *kernel.Proc) {
			timedOut = !recv.OK && recv.Err == nil
			elapsed = p.Now() - start
		}),
	))
	r.eng.RunFor(sim.Second)
	if !timedOut {
		t.Fatal("no timeout")
	}
	if elapsed < 50*sim.Millisecond || elapsed > 60*sim.Millisecond {
		t.Fatalf("timed out after %d", elapsed)
	}
}

func TestCloseUDPWakesBlockedReceiver(t *testing.T) {
	r := newRig(t, ArchSoftLRP)
	var got error
	var sock *socket.Socket
	var recv RecvFromOp
	r.server.K.SpawnStep("recv", 0, body(
		do(func(p *kernel.Proc) {
			sock = r.server.NewUDPSocket(p)
			_ = r.server.BindUDP(sock, 7)
		}),
		recvFrom(r.server, &sock, &recv),
		do(func(*kernel.Proc) { got = recv.Err }),
	))
	r.eng.At(10*1000, func() { r.server.CloseUDP(sock) })
	r.eng.RunFor(100 * sim.Millisecond)
	if got != ErrClosed {
		t.Fatalf("blocked receiver got %v", got)
	}
}

// TestTryRecvFrom pins the non-blocking receive: a deadline-bounded
// RecvFromOp with a zero budget returns at once, with or without a
// datagram.
func TestTryRecvFrom(t *testing.T) {
	r := newRig(t, ArchSoftLRP)
	var first, second bool
	var s *socket.Socket
	try := RecvFromOp{Timed: true}
	r.server.K.SpawnStep("recv", 0, body(
		do(func(p *kernel.Proc) {
			s = r.server.NewUDPSocket(p)
			_ = r.server.BindUDP(s, 7)
		}),
		recvFrom(r.server, &s, &try),
		do(func(*kernel.Proc) { first = try.OK }),
		delay(20*1000),
		recvFrom(r.server, &s, &try),
		do(func(*kernel.Proc) { second = try.OK }),
	))
	r.eng.At(10*1000, func() {
		r.nw.Inject(pkt.UDPPacket(addrA, addrB, 9, 7, 1, 64, []byte("x"), true))
	})
	r.eng.RunFor(100 * sim.Millisecond)
	if first {
		t.Fatal("TryRecvFrom returned a datagram before any arrived")
	}
	if !second {
		t.Fatal("TryRecvFrom missed the waiting datagram")
	}
}

func TestForeCostsSlower(t *testing.T) {
	fore := SunOSForeCosts()
	def := DefaultCosts()
	if fore.DriverPerPkt <= def.DriverPerPkt || fore.CopyPerKB <= def.CopyPerKB {
		t.Fatal("Fore cost model is not slower than default")
	}
}

func TestHostStringerAndEcho(t *testing.T) {
	r := newRig(t, ArchNILRP)
	if r.server.String() == "" {
		t.Fatal("empty host string")
	}
}

func TestSharedSocketHighestPriorityProcesses(t *testing.T) {
	// Paper footnote: "more than one process can wait to read from a
	// socket. In this case, the process with the highest priority performs
	// the protocol processing." Two processes share one socket; the niced
	// one should be woken only when the normal-priority reader is busy.
	r := newRig(t, ArchSoftLRP)
	var normal, niced int
	var sock *socket.Socket
	// reader counts datagrams received on sock until it fails.
	reader := func(n *int) stage {
		var recv RecvFromOp
		return loop(-1,
			recvFrom(r.server, &sock, &recv),
			exitIf(func(*kernel.Proc) bool { return recv.Err != nil }),
			do(func(*kernel.Proc) { *n++ }),
		)
	}
	r.server.K.SpawnStep("normal-reader", 0, body(
		do(func(p *kernel.Proc) {
			sock = r.server.NewUDPSocket(p)
			_ = r.server.BindUDP(sock, 7)
		}),
		reader(&normal),
	))
	r.server.K.SpawnStep("niced-reader", 10, body(
		delay(1000), // let the socket be created
		reader(&niced),
	))
	for i := 0; i < 20; i++ {
		d := int64(5000 * (i + 2))
		seq := uint16(i)
		r.eng.At(d, func() {
			r.nw.Inject(pkt.UDPPacket(addrA, addrB, 9, 7, seq, 64, []byte("x"), true))
		})
	}
	r.eng.RunFor(sim.Second)
	if normal+niced != 20 {
		t.Fatalf("delivered %d of 20", normal+niced)
	}
	// The high-priority reader should have handled (nearly) all of them.
	if normal < 18 {
		t.Fatalf("high-priority reader got %d of 20; wakeup not priority-ordered", normal)
	}
}

func TestOwnerlessSocketSurvives(t *testing.T) {
	// A socket created by an exited process must not break the receive
	// path bookkeeping (packets are dropped or queue up harmlessly).
	r := newRig(t, ArchSoftLRP)
	r.server.K.SpawnStep("creator", 0, body(do(func(p *kernel.Proc) {
		s := r.server.NewUDPSocket(p)
		_ = r.server.BindUDP(s, 7)
		// Exit immediately; the socket stays bound.
	})))
	r.eng.At(5000, func() {
		for i := 0; i < 100; i++ {
			r.nw.Inject(pkt.UDPPacket(addrA, addrB, 9, 7, uint16(i), 64, []byte("x"), true))
		}
	})
	r.eng.RunFor(200 * sim.Millisecond) // must not panic
}

func TestTraceRecordsPacketPath(t *testing.T) {
	r := newRig(t, ArchSoftLRP)
	log := r.server.EnableTrace(256)
	r.server.K.SpawnStep("recv", 0, udpReceiver(r.server, 7, 0, nil))
	r.eng.At(5000, func() {
		r.nw.Inject(pkt.UDPPacket(addrA, addrB, 9, 7, 1, 64, []byte("x"), true))
	})
	r.eng.RunFor(100 * sim.Millisecond)
	dump := log.Dump()
	for _, want := range []string{"demux", "dispatch"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("trace missing %q:\n%s", want, dump)
		}
	}
}

func TestTCPThroughLossyNetwork(t *testing.T) {
	// End-to-end failure injection: a 2% lossy LAN between full hosts.
	// TCP retransmission must deliver the complete stream on every
	// architecture.
	for _, arch := range []Arch{ArchBSD, ArchSoftLRP} {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			eng := sim.NewEngine()
			nw := netsim.New(eng)
			nw.SetLoss(0.02, sim.NewRand(31337))
			server := NewHost(eng, nw, Config{Name: "srv", Addr: addrB, Arch: arch})
			client := NewHost(eng, nw, Config{Name: "cli", Addr: addrA, Arch: arch})
			defer server.Shutdown()
			defer client.Shutdown()
			const total = 512 * 1024
			received := 0
			server.K.SpawnStep("sink", 0, tcpSink(server, 5001, func(data []byte) { received += len(data) }))
			var s *socket.Socket
			var conn ConnectTCPOp
			var cw SendStreamOp
			tries, connected := 0, false
			chunk := make([]byte, 32*1024)
			sent := 0
			client.K.SpawnStep("src", 0, body(
				do(func(p *kernel.Proc) { s = client.NewTCPSocket(p) }),
				// Connect may need SYN retries under loss.
				while(func() bool { return !connected && tries < 5 },
					connect(client, &s, addrB, 5001, &conn),
					do(func(p *kernel.Proc) {
						tries++
						if connected = conn.Err == nil; !connected {
							s = client.NewTCPSocket(p)
						}
					}),
				),
				while(func() bool { return sent < total },
					sendStream(client, &s, bytesOf(chunk), &cw),
					exitIf(func(*kernel.Proc) bool {
						sent += cw.Total
						return cw.Err != nil
					}),
				),
				closeTCP(client, &s),
			))
			eng.RunFor(120 * sim.Second)
			if received != total {
				t.Fatalf("received %d of %d through lossy network", received, total)
			}
			if nw.Stats().Lost == 0 {
				t.Fatal("loss injection inactive; test vacuous")
			}
		})
	}
}

func TestAppThreadChargesTCPReceiverNotVictim(t *testing.T) {
	// The LRP APP thread's TCP processing is "scheduled at the priority of
	// the application process that uses the associated socket, and CPU
	// usage is charged back to that application" — a compute-bound victim
	// on the same host must absorb (almost) none of a TCP stream's
	// receive processing.
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	server := NewHost(eng, nw, Config{Name: "srv", Addr: addrB, Arch: ArchNILRP})
	client := NewHost(eng, nw, Config{Name: "cli", Addr: addrA, Arch: ArchNILRP})
	defer server.Shutdown()
	defer client.Shutdown()

	victim := server.K.SpawnStep("victim", 0, kernel.Hog(sim.Millisecond))
	receiver := server.K.SpawnStep("tcp-recv", 0, tcpSink(server, 5001, nil))
	var s *socket.Socket
	var conn ConnectTCPOp
	var cw SendStreamOp
	chunk := make([]byte, 32*1024)
	client.K.SpawnStep("tcp-send", 0, body(
		do(func(p *kernel.Proc) { s = client.NewTCPSocket(p) }),
		connect(client, &s, addrB, 5001, &conn),
		exitIf(func(*kernel.Proc) bool { return conn.Err != nil }),
		loop(-1,
			sendStream(client, &s, bytesOf(chunk), &cw),
			exitIf(func(*kernel.Proc) bool { return cw.Err != nil }),
		),
	))
	eng.RunFor(3 * sim.Second)
	if receiver.STime == 0 {
		t.Fatal("receiver charged nothing for its TCP stream")
	}
	if victim.IntrCharged > receiver.STime/10 {
		t.Fatalf("victim absorbed %dµs of the stream's processing (receiver: %dµs)",
			victim.IntrCharged, receiver.STime)
	}
}

func TestRedundantPCBLookupCostsMore(t *testing.T) {
	// The Fig. 5 methodology switch must actually cost something: the same
	// workload consumes more receiver CPU with the redundant lookup on.
	stime := func(redundant bool) int64 {
		cm := DefaultCosts()
		cm.RedundantPCBLookup = redundant
		eng := sim.NewEngine()
		nw := netsim.New(eng)
		server := NewHost(eng, nw, Config{Name: "srv", Addr: addrB, Arch: ArchSoftLRP, Costs: cm})
		defer server.Shutdown()
		proc := server.K.SpawnStep("recv", 0, udpReceiver(server, 7, 0, nil))
		for i := 0; i < 500; i++ {
			d := int64(1000 * (i + 1))
			eng.At(d, func() {
				nw.Inject(pkt.UDPPacket(addrA, addrB, 9, 7, 1, 64, make([]byte, 14), true))
			})
		}
		eng.RunFor(sim.Second)
		return proc.STime
	}
	plain := stime(false)
	redundant := stime(true)
	if redundant <= plain {
		t.Fatalf("redundant PCB lookup did not cost more: %d vs %d", redundant, plain)
	}
}

// Regression for the unregisterFilter rewrite: handle compaction used to
// range over the filterProgs map; it now walks the insertion-ordered
// socket list. After closing sockets in the middle of the filter list,
// every surviving socket's stored handle must still agree with the
// compacted filter table, i.e. packets keep classifying to the right
// socket.
func TestUnregisterFilterCompactsHandles(t *testing.T) {
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	h := NewHost(eng, nw, Config{Name: "h", Addr: addrB, Arch: ArchSoftLRP, FilterDemux: true})
	defer h.Shutdown()

	ports := []uint16{1001, 1002, 1003, 1004, 1005}
	socks := make([]*socket.Socket, len(ports))
	h.K.SpawnStep("setup", 0, body(do(func(p *kernel.Proc) {
		for i, port := range ports {
			s := h.NewUDPSocket(p)
			if err := h.BindUDP(s, port); err != nil {
				t.Error(err)
				return
			}
			socks[i] = s
		}
		// Close two sockets in the middle: both compact the handles of
		// everything bound after them.
		h.CloseUDP(socks[1])
		h.CloseUDP(socks[3])
	})))
	eng.RunFor(sim.Second)

	if n := h.filterDemux.Len(); n != 3 {
		t.Fatalf("filter entries = %d, want 3", n)
	}
	for i, s := range socks {
		b := pkt.UDPPacket(addrA, addrB, 9999, ports[i], 1, 64, []byte("x"), false)
		ep, ok, _ := h.filterDemux.Classify(b)
		if i == 1 || i == 3 {
			if ok {
				t.Fatalf("port %d: closed socket still classified", ports[i])
			}
			continue
		}
		if !ok || ep != s {
			t.Fatalf("port %d: classify ok=%v ep=%p, want socket %p", ports[i], ok, ep, s)
		}
		hd, present := h.filterProgs[s]
		if !present || hd < 0 || hd >= h.filterDemux.Len() {
			t.Fatalf("port %d: stored handle %d out of sync with table of %d", ports[i], hd, h.filterDemux.Len())
		}
	}
}
