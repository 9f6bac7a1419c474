package core

import (
	"bytes"
	"fmt"
	"testing"

	"lrp/internal/kernel"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
)

var allArchs = []Arch{ArchBSD, ArchNILRP, ArchSoftLRP, ArchEarlyDemux}

var (
	addrA = pkt.IP(10, 0, 0, 1)
	addrB = pkt.IP(10, 0, 0, 2)
	addrC = pkt.IP(10, 0, 0, 3)
)

// rig is a two-host test network with the server on the arch under test.
type rig struct {
	eng    *sim.Engine
	nw     *netsim.Network
	server *Host
	client *Host
}

func newRig(t *testing.T, arch Arch) *rig {
	t.Helper()
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	server := NewHost(eng, nw, Config{Name: "server", Addr: addrB, Arch: arch})
	client := NewHost(eng, nw, Config{Name: "client", Addr: addrA, Arch: arch})
	t.Cleanup(func() {
		server.Shutdown()
		client.Shutdown()
	})
	return &rig{eng: eng, nw: nw, server: server, client: client}
}

func forEachArch(t *testing.T, fn func(t *testing.T, r *rig)) {
	for _, arch := range allArchs {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			fn(t, newRig(t, arch))
		})
	}
}

func TestUDPEndToEnd(t *testing.T) {
	forEachArch(t, func(t *testing.T, r *rig) {
		var got []socket.Datagram
		var ss, cs *socket.Socket
		var recv RecvFromOp
		r.server.K.SpawnStep("srv", 0, body(
			exitIf(func(p *kernel.Proc) bool {
				ss = r.server.NewUDPSocket(p)
				if err := r.server.BindUDP(ss, 7); err != nil {
					t.Error(err)
					return true
				}
				return false
			}),
			loop(3,
				recvFrom(r.server, &ss, &recv),
				exitIf(func(*kernel.Proc) bool {
					if recv.Err != nil {
						t.Error(recv.Err)
						return true
					}
					got = append(got, recv.D)
					return false
				}),
			),
		))
		var send SendToOp
		i := 0
		r.client.K.SpawnStep("cli", 0, body(
			do(func(p *kernel.Proc) { cs = r.client.NewUDPSocket(p) }),
			loop(3,
				sendTo(r.client, &cs, addrB, 7, func() []byte { return []byte(fmt.Sprintf("msg-%d", i)) }, &send),
				do(func(*kernel.Proc) {
					if send.Err != nil {
						t.Error(send.Err)
					}
					i++
				}),
				delay(1000),
			),
		))
		r.eng.RunFor(sim.Second)
		if len(got) != 3 {
			t.Fatalf("received %d datagrams", len(got))
		}
		for i, d := range got {
			if string(d.Data) != fmt.Sprintf("msg-%d", i) {
				t.Fatalf("datagram %d = %q", i, d.Data)
			}
			if d.Src != addrA {
				t.Fatalf("src = %v", d.Src)
			}
		}
	})
}

func TestUDPEcho(t *testing.T) {
	forEachArch(t, func(t *testing.T, r *rig) {
		var ss *socket.Socket
		var srecv RecvFromOp
		var ssend SendToOp
		r.server.K.SpawnStep("echo", 0, body(
			do(func(p *kernel.Proc) {
				ss = r.server.NewUDPSocket(p)
				_ = r.server.BindUDP(ss, 7)
			}),
			loop(-1,
				recvFrom(r.server, &ss, &srecv),
				exitIf(func(*kernel.Proc) bool { return srecv.Err != nil }),
				op(ssend.Reset, func(p *kernel.Proc) bool {
					d := srecv.D
					return r.server.SendToStep(p, ss, d.Src, d.SPort, d.Data, &ssend)
				}),
			),
		))
		var rtt int64
		var start sim.Time
		var cs *socket.Socket
		var send SendToOp
		var recv RecvFromOp
		r.client.K.SpawnStep("cli", 0, body(
			do(func(p *kernel.Proc) {
				cs = r.client.NewUDPSocket(p)
				_ = r.client.BindUDP(cs, 0)
				start = p.Now()
			}),
			sendTo(r.client, &cs, addrB, 7, bytesOf([]byte("x")), &send),
			recvFrom(r.client, &cs, &recv),
			exitIf(func(p *kernel.Proc) bool {
				if recv.Err != nil {
					t.Error(recv.Err)
					return true
				}
				rtt = p.Now() - start
				return false
			}),
		))
		r.eng.RunFor(sim.Second)
		if rtt == 0 {
			t.Fatal("no echo round trip")
		}
		// Sanity bounds: hundreds of µs on an idle simulated machine.
		if rtt < 50 || rtt > 5000 {
			t.Fatalf("rtt = %dµs", rtt)
		}
	})
}

func TestUDPLargeDatagramFragments(t *testing.T) {
	forEachArch(t, func(t *testing.T, r *rig) {
		payload := bytes.Repeat([]byte{0x42}, 30000) // > MTU: 4 fragments
		var got []byte
		var ss, cs *socket.Socket
		var recv RecvFromOp
		r.server.K.SpawnStep("srv", 0, body(
			do(func(p *kernel.Proc) {
				ss = r.server.NewUDPSocket(p)
				_ = r.server.BindUDP(ss, 7)
			}),
			recvFrom(r.server, &ss, &recv),
			do(func(*kernel.Proc) {
				if recv.Err == nil {
					got = recv.D.Data
				}
			}),
		))
		var send SendToOp
		r.client.K.SpawnStep("cli", 0, body(
			do(func(p *kernel.Proc) { cs = r.client.NewUDPSocket(p) }),
			sendTo(r.client, &cs, addrB, 7, bytesOf(payload), &send),
		))
		r.eng.RunFor(sim.Second)
		if !bytes.Equal(got, payload) {
			t.Fatalf("reassembled %d bytes, want %d", len(got), len(payload))
		}
	})
}

func TestUDPOverloadEarlyDiscardLocations(t *testing.T) {
	// Flood a slow receiver and check that drops happen at the location
	// each architecture predicts: socket queue (BSD), NI channel (LRP),
	// early discard (Early-Demux).
	forEachArch(t, func(t *testing.T, r *rig) {
		r.server.K.SpawnStep("slow", 0, udpReceiver(r.server, 7, 2000, nil)) // 2ms per packet: max 500 pkts/s
		// Inject 3000 pkts/s for half a second from a raw source.
		payload := make([]byte, 14)
		var inject func()
		n := 0
		inject = func() {
			if n >= 1500 {
				return
			}
			n++
			r.nw.Inject(pkt.UDPPacket(addrA, addrB, 9, 7, uint16(n), 64, payload, true))
			r.eng.After(333, inject)
		}
		r.eng.At(0, inject)
		r.eng.RunFor(sim.Second)
		st := r.server.Stats()
		total := st.SockQDrops + st.ChannelDrops + st.EarlyDrops + st.IPQDrops
		if total == 0 {
			t.Fatalf("overload produced no drops: %+v", st)
		}
		switch r.server.Arch {
		case ArchBSD:
			if st.SockQDrops == 0 {
				t.Fatalf("BSD should drop at the socket queue: %+v", st)
			}
			if st.ChannelDrops != 0 || st.EarlyDrops != 0 {
				t.Fatalf("BSD dropped at LRP locations: %+v", st)
			}
		case ArchNILRP, ArchSoftLRP:
			if st.ChannelDrops == 0 {
				t.Fatalf("LRP should drop at the NI channel: %+v", st)
			}
			if st.SockQDrops != 0 || st.IPQDrops != 0 {
				t.Fatalf("LRP dropped at BSD locations: %+v", st)
			}
		case ArchEarlyDemux:
			if st.EarlyDrops == 0 {
				t.Fatalf("Early-Demux should drop at early discard: %+v", st)
			}
		}
	})
}

func TestTCPEndToEnd(t *testing.T) {
	forEachArch(t, func(t *testing.T, r *rig) {
		const msg = "GET / HTTP/1.0\r\n\r\n"
		const reply = "HTTP/1.0 200 OK\r\n\r\nhello"
		var gotReq, gotReply string
		var l *socket.Socket
		var lis ListenOp
		var acc AcceptOp
		var rs RecvStreamOp
		var ss SendStreamOp
		r.server.K.SpawnStep("srv", 0, body(
			do(func(p *kernel.Proc) {
				l = r.server.NewTCPSocket(p)
				_ = r.server.BindTCP(l, 80)
			}),
			listen(r.server, &l, 5, &lis),
			accept(r.server, &l, &acc),
			exitIf(func(*kernel.Proc) bool { return failed(t, acc.Err) }),
			recvStream(r.server, &acc.NS, 1024, &rs),
			exitIf(func(*kernel.Proc) bool {
				gotReq = string(rs.Data)
				return failed(t, rs.Err)
			}),
			sendStream(r.server, &acc.NS, bytesOf([]byte(reply)), &ss),
			do(func(*kernel.Proc) { failed(t, ss.Err) }),
			closeTCP(r.server, &acc.NS),
		))
		var cs *socket.Socket
		var conn ConnectTCPOp
		var cw SendStreamOp
		var cr RecvStreamOp
		var buf []byte
		r.client.K.SpawnStep("cli", 0, body(
			do(func(p *kernel.Proc) { cs = r.client.NewTCPSocket(p) }),
			connect(r.client, &cs, addrB, 80, &conn),
			exitIf(func(*kernel.Proc) bool { return failed(t, conn.Err) }),
			sendStream(r.client, &cs, bytesOf([]byte(msg)), &cw),
			exitIf(func(*kernel.Proc) bool { return failed(t, cw.Err) }),
			readToEOF(r.client, &cs, 1024, &cr, func(data []byte) { buf = append(buf, data...) }),
			exitIf(func(*kernel.Proc) bool { return failed(t, cr.Err) }),
			do(func(*kernel.Proc) { gotReply = string(buf) }),
			closeTCP(r.client, &cs),
		))
		r.eng.RunFor(5 * sim.Second)
		if gotReq != msg {
			t.Fatalf("server got %q", gotReq)
		}
		if gotReply != reply {
			t.Fatalf("client got %q", gotReply)
		}
	})
}

func TestTCPBulkTransfer(t *testing.T) {
	forEachArch(t, func(t *testing.T, r *rig) {
		const total = 2 << 20
		var received int
		var l *socket.Socket
		var lis ListenOp
		var acc AcceptOp
		var rs RecvStreamOp
		r.server.K.SpawnStep("sink", 0, body(
			do(func(p *kernel.Proc) {
				l = r.server.NewTCPSocket(p)
				_ = r.server.BindTCP(l, 5001)
			}),
			listen(r.server, &l, 5, &lis),
			accept(r.server, &l, &acc),
			exitIf(func(*kernel.Proc) bool { return acc.Err != nil }),
			readToEOF(r.server, &acc.NS, 64*1024, &rs, func(data []byte) { received += len(data) }),
		))
		var cs *socket.Socket
		var conn ConnectTCPOp
		var cw SendStreamOp
		chunk := make([]byte, 32*1024)
		sent := 0
		r.client.K.SpawnStep("src", 0, body(
			do(func(p *kernel.Proc) { cs = r.client.NewTCPSocket(p) }),
			connect(r.client, &cs, addrB, 5001, &conn),
			exitIf(func(*kernel.Proc) bool { return conn.Err != nil }),
			while(func() bool { return sent < total },
				sendStream(r.client, &cs, bytesOf(chunk), &cw),
				exitIf(func(*kernel.Proc) bool {
					sent += cw.Total
					return cw.Err != nil
				}),
			),
			closeTCP(r.client, &cs),
		))
		r.eng.RunFor(30 * sim.Second)
		if received != total {
			t.Fatalf("received %d of %d bytes", received, total)
		}
	})
}

func TestLRPSYNFloodDiscardsAtChannel(t *testing.T) {
	// SYNs beyond the listen backlog must be dropped at the NI channel
	// (processing disabled) under LRP, costing no protocol processing.
	r := newRig(t, ArchSoftLRP)
	var l *socket.Socket
	var lis ListenOp
	r.server.K.SpawnStep("dummy", 0, body(
		do(func(p *kernel.Proc) {
			l = r.server.NewTCPSocket(p)
			_ = r.server.BindTCP(l, 99)
		}),
		listen(r.server, &l, 4, &lis),
		func(p *kernel.Proc) bool { return p.ReqSleep(&l.AcceptWait) }, // never accepts
	))
	// Flood fake SYNs from unique fake sources.
	n := 0
	var flood func()
	flood = func() {
		if n >= 2000 {
			return
		}
		n++
		h := pkt.TCPHeader{
			SrcPort: uint16(1000 + n%50000), DstPort: 99,
			Seq: uint32(n), Flags: pkt.TCPSyn, Window: 8192, MSS: 1460,
		}
		r.nw.Inject(pkt.TCPSegment(addrA, addrB, &h, uint16(n), 64, nil))
		r.eng.After(100, flood)
	}
	r.eng.At(0, flood)
	r.eng.RunFor(sim.Second)
	st := r.server.Stats()
	if st.DisabledDrops == 0 {
		t.Fatalf("no SYNs discarded at disabled channel: %+v", st)
	}
	if st.DisabledDrops < 1500 {
		t.Fatalf("only %d of ~1996 excess SYNs discarded at the channel", st.DisabledDrops)
	}
}

func TestNIChannelDeallocInTimeWait(t *testing.T) {
	// NI-LRP deallocates a connection's channel when it enters TIME_WAIT;
	// channel count must return to baseline after connections churn.
	r := newRig(t, ArchNILRP)
	r.server.CM.TimeWaitDur = 100 * 1000 // 100ms for test speed
	r.client.CM.TimeWaitDur = 100 * 1000
	done := 0
	var l *socket.Socket
	var lis ListenOp
	var acc AcceptOp
	var rs RecvStreamOp
	var ss SendStreamOp
	r.server.K.SpawnStep("srv", 0, body(
		do(func(p *kernel.Proc) {
			l = r.server.NewTCPSocket(p)
			_ = r.server.BindTCP(l, 80)
		}),
		listen(r.server, &l, 8, &lis),
		loop(-1,
			accept(r.server, &l, &acc),
			exitIf(func(*kernel.Proc) bool { return acc.Err != nil }),
			// Read request, reply, close (server does active close ->
			// server side enters TIME_WAIT, as on a web server).
			recvStream(r.server, &acc.NS, 1024, &rs),
			op(func() { ss = SendStreamOp{Data: []byte("resp")} }, func(p *kernel.Proc) bool {
				return rs.Data == nil || r.server.SendStreamStep(p, acc.NS, &ss)
			}),
			closeTCP(r.server, &acc.NS),
		),
	))
	var cs *socket.Socket
	var conn ConnectTCPOp
	var cw SendStreamOp
	var cr RecvStreamOp
	r.client.K.SpawnStep("cli", 0, body(loop(5,
		do(func(p *kernel.Proc) { cs = r.client.NewTCPSocket(p) }),
		connect(r.client, &cs, addrB, 80, &conn),
		exitIf(func(*kernel.Proc) bool { return failed(t, conn.Err) }),
		sendStream(r.client, &cs, bytesOf([]byte("req")), &cw),
		readToEOF(r.client, &cs, 1024, &cr, nil),
		closeTCP(r.client, &cs),
		do(func(*kernel.Proc) { done++ }),
	)))
	r.eng.RunFor(10 * sim.Second)
	if done != 5 {
		t.Fatalf("completed %d of 5 exchanges", done)
	}
	st := r.server.Stats()
	// Baseline channels: listener + ICMP daemon. All per-connection
	// channels must be gone (TIME_WAIT dealloc + final close).
	if st.Channels > 2 {
		t.Fatalf("%d channels still allocated (leak)", st.Channels)
	}
	if st.MaxChannels <= 2 {
		t.Fatalf("max channels %d: per-connection channels never existed?", st.MaxChannels)
	}
}

func TestICMPPing(t *testing.T) {
	for _, arch := range []Arch{ArchBSD, ArchSoftLRP, ArchNILRP} {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			r := newRig(t, arch)
			i := 0
			r.client.K.SpawnStep("ping", 0, body(loop(4,
				do(func(*kernel.Proc) {
					r.client.Ping(addrB, uint16(i), 56)
					i++
				}),
				delay(10*1000),
			)))
			r.eng.RunFor(sim.Second)
			if got := r.server.EchoReplies(); got != 4 {
				t.Fatalf("server sent %d echo replies, want 4", got)
			}
		})
	}
}

func TestLRPChargesReceiverNotVictim(t *testing.T) {
	// A compute-bound victim shares the CPU with a blast receiver. Under
	// BSD, interrupt-level protocol processing is charged to the victim;
	// under LRP (NI demux) the victim is charged almost nothing.
	measure := func(arch Arch) (victimCharged, receiverCharged int64) {
		r := newRig(t, arch)
		defer r.eng.Stop()
		var victim, receiver *kernel.Proc
		victim = r.server.K.SpawnStep("victim", 0, kernel.Hog(10*1000))
		receiver = r.server.K.SpawnStep("blast-recv", 0, udpReceiver(r.server, 7, 0, nil))
		payload := make([]byte, 14)
		n := 0
		var inject func()
		inject = func() {
			if n >= 3000 {
				return
			}
			n++
			r.nw.Inject(pkt.UDPPacket(addrA, addrB, 9, 7, uint16(n), 64, payload, true))
			r.eng.After(300, inject)
		}
		r.eng.At(0, inject)
		r.eng.RunFor(sim.Second)
		vc, rc := victim.IntrCharged, receiver.IntrCharged+receiver.STime
		r.server.Shutdown()
		r.client.Shutdown()
		return vc, rc
	}
	bsdVictim, _ := measure(ArchBSD)
	lrpVictim, lrpReceiver := measure(ArchNILRP)
	if bsdVictim == 0 {
		t.Fatal("BSD charged the victim nothing; mis-accounting not modeled")
	}
	if lrpVictim >= bsdVictim/5 {
		t.Fatalf("NI-LRP charged victim %dµs vs BSD %dµs; want <20%%", lrpVictim, bsdVictim)
	}
	if lrpReceiver == 0 {
		t.Fatal("LRP charged the receiver nothing")
	}
}

func TestIdleThreadProcessesWhenReceiverBusy(t *testing.T) {
	// Under LRP, a packet arriving while the receiver is blocked on other
	// I/O (the paper's example: a disk read before the receive call) is
	// still processed by the otherwise-idle CPU via the idle thread,
	// charged to the receiver, so the next recv call finds a ready
	// datagram and latency does not suffer.
	r := newRig(t, ArchSoftLRP)
	var sawProcessed bool
	var sock *socket.Socket
	r.server.K.SpawnStep("busy-recv", 0, body(
		do(func(p *kernel.Proc) {
			sock = r.server.NewUDPSocket(p)
			_ = r.server.BindUDP(sock, 7)
		}),
		delay(50*1000), // blocked on disk I/O while the packet arrives
		do(func(*kernel.Proc) { sawProcessed = sock.RecvDgrams.Len() > 0 }),
	))
	r.eng.At(5*1000, func() {
		r.nw.Inject(pkt.UDPPacket(addrA, addrB, 9, 7, 1, 64, []byte("hi"), true))
	})
	r.eng.RunFor(sim.Second)
	if !sawProcessed {
		t.Fatal("idle thread did not pre-process the queued packet")
	}
}

func TestNoIdleThreadLeavesPacketRaw(t *testing.T) {
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	server := NewHost(eng, nw, Config{Name: "server", Addr: addrB, Arch: ArchSoftLRP, NoIdleThread: true})
	defer server.Shutdown()
	var rawQueued bool
	var s *socket.Socket
	server.K.SpawnStep("busy-recv", 0, body(
		do(func(p *kernel.Proc) {
			s = server.NewUDPSocket(p)
			_ = server.BindUDP(s, 7)
		}),
		compute(50*1000),
		do(func(*kernel.Proc) { rawQueued = s.NIChan.Queue.Len() > 0 && s.RecvDgrams.Len() == 0 }),
	))
	eng.At(5*1000, func() {
		nw.Inject(pkt.UDPPacket(addrA, addrB, 9, 7, 1, 64, []byte("hi"), true))
	})
	eng.RunFor(sim.Second)
	if !rawQueued {
		t.Fatal("packet should remain raw on the channel without the idle thread")
	}
}

func TestCorruptedPacketsChargedToReceiverUnderLRP(t *testing.T) {
	// Corrupted packets demux to their destination and their (wasted)
	// processing is charged to the receiver — the scenario where
	// early-demux-without-LRP stays vulnerable.
	r := newRig(t, ArchSoftLRP)
	var s *socket.Socket
	var recv RecvFromOp
	recvProc := r.server.K.SpawnStep("recv", 0, body(
		do(func(p *kernel.Proc) {
			s = r.server.NewUDPSocket(p)
			_ = r.server.BindUDP(s, 7)
		}),
		loop(-1,
			recvFrom(r.server, &s, &recv),
			exitIf(func(*kernel.Proc) bool { return recv.Err != nil }),
		),
	))
	protoDrops := func() uint64 { return s.Stats.ProtoDrops }
	good := pkt.UDPPacket(addrA, addrB, 9, 7, 1, 64, []byte("payload"), true)
	bad := pkt.Corrupt(good)
	for i := 0; i < 50; i++ {
		d := int64(1000 * (i + 1))
		r.eng.At(d, func() { r.nw.Inject(bad) })
	}
	r.eng.RunFor(sim.Second)
	if protoDrops() != 50 {
		t.Fatalf("proto drops = %d, want 50", protoDrops())
	}
	if recvProc.STime == 0 {
		t.Fatal("receiver was not charged for processing corrupt packets")
	}
}

func TestHostStatsChannelsAccounting(t *testing.T) {
	r := newRig(t, ArchSoftLRP)
	base := r.server.Stats().Channels
	var s1, s2 *socket.Socket
	r.server.K.SpawnStep("a", 0, body(
		do(func(p *kernel.Proc) {
			s1 = r.server.NewUDPSocket(p)
			_ = r.server.BindUDP(s1, 100)
			s2 = r.server.NewUDPSocket(p)
			_ = r.server.BindUDP(s2, 101)
		}),
		delay(1000),
		do(func(*kernel.Proc) {
			r.server.CloseUDP(s1)
			r.server.CloseUDP(s2)
		}),
	))
	r.eng.RunFor(sim.Second)
	st := r.server.Stats()
	if st.Channels != base {
		t.Fatalf("channels = %d, want %d after close", st.Channels, base)
	}
	if st.MaxChannels < base+2 {
		t.Fatalf("max channels = %d", st.MaxChannels)
	}
}
