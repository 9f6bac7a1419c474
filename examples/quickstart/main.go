// Quickstart: build a two-host simulated network, run a UDP echo exchange
// and a TCP request/response on an LRP (soft demux) kernel, and print
// what happened — the smallest end-to-end tour of the public API.
package main

import (
	"fmt"
	"log"

	"lrp/internal/core"
	"lrp/internal/kernel"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
)

func main() {
	// One discrete-event engine drives everything.
	eng := sim.NewEngine()
	nw := netsim.New(eng)

	clientAddr := pkt.IP(10, 0, 0, 1)
	serverAddr := pkt.IP(10, 0, 0, 2)

	// Two hosts running the SOFT-LRP network subsystem (works with any
	// NIC: the demultiplexing happens in the host interrupt handler).
	server := core.NewHost(eng, nw, core.Config{Name: "server", Addr: serverAddr, Arch: core.ArchSoftLRP})
	client := core.NewHost(eng, nw, core.Config{Name: "client", Addr: clientAddr, Arch: core.ArchSoftLRP})
	defer server.Shutdown()
	defer client.Shutdown()

	// Every simulated process is a step function: the kernel calls it at
	// each dispatch, and it returns after storing one request (compute,
	// sleep, exit). Socket calls are resumable operations (*Op frames)
	// whose Step method reports completion; until then it has issued a
	// request and the body returns, to be called again at its next
	// dispatch. The bodies below keep their progress in a pc variable.

	// A UDP echo server process. Under LRP, the datagram's IP+UDP
	// processing happens inside the receive call, in this process's
	// context, charged to this process.
	var (
		echoPC   int
		echoSock *socket.Socket
		echoRecv core.RecvFromOp
		echoSend core.SendToOp
	)
	server.K.SpawnStep("udp-echo", 0, func(p *kernel.Proc) {
		for {
			switch echoPC {
			case 0: // open the socket
				echoSock = server.NewUDPSocket(p)
				if err := server.BindUDP(echoSock, 7); err != nil {
					log.Fatal(err)
				}
				echoPC = 1
			case 1: // receive a datagram
				if !server.RecvFromStep(p, echoSock, &echoRecv) {
					return
				}
				if echoRecv.Err != nil {
					p.ReqExit()
					return
				}
				echoSend.Reset()
				echoPC = 2
			case 2: // echo it back
				d := echoRecv.D
				if !server.SendToStep(p, echoSock, d.Src, d.SPort, d.Data, &echoSend) {
					return
				}
				echoRecv.Reset()
				echoPC = 1
			}
		}
	})

	// A tiny TCP server: accept one connection, read the request, reply.
	var (
		srvPC  int
		lis    *socket.Socket
		listen core.ListenOp
		accept core.AcceptOp
		req    core.RecvStreamOp
		reply  = core.SendStreamOp{Data: []byte("hello from LRP over TCP")}
		srvCl  core.CloseTCPOp
	)
	server.K.SpawnStep("tcp-srv", 0, func(p *kernel.Proc) {
		for {
			switch srvPC {
			case 0: // listen on port 80
				if lis == nil {
					lis = server.NewTCPSocket(p)
					_ = server.BindTCP(lis, 80)
				}
				if !server.ListenStep(p, lis, 5, &listen) {
					return
				}
				srvPC = 1
			case 1: // accept one connection
				if !server.AcceptStep(p, lis, &accept) {
					return
				}
				if accept.Err != nil {
					p.ReqExit()
					return
				}
				srvPC = 2
			case 2: // read the request
				if !server.RecvStreamStep(p, accept.NS, 1024, &req) {
					return
				}
				fmt.Printf("[%8dµs] tcp-srv: got %q\n", p.Now(), req.Data)
				srvPC = 3
			case 3: // send the reply
				if !server.SendStreamStep(p, accept.NS, &reply) {
					return
				}
				srvPC = 4
			case 4: // close and exit
				if !server.CloseTCPStep(p, accept.NS, &srvCl) {
					return
				}
				p.ReqExit()
				return
			}
		}
	})

	// The client process: UDP echo round trip, then a TCP exchange.
	var (
		cliPC   int
		us, ts  *socket.Socket
		start   sim.Time
		ping    core.SendToOp
		echo    core.RecvFromOp
		connect core.ConnectTCPOp
		get     = core.SendStreamOp{Data: []byte("GET /")}
		resp    core.RecvStreamOp
		cliCl   core.CloseTCPOp
	)
	client.K.SpawnStep("client", 0, func(p *kernel.Proc) {
		for {
			switch cliPC {
			case 0: // UDP: send a ping to the echo server
				if us == nil {
					us = client.NewUDPSocket(p)
					_ = client.BindUDP(us, 0)
					start = p.Now()
				}
				if !client.SendToStep(p, us, serverAddr, 7, []byte("ping"), &ping) {
					return
				}
				cliPC = 1
			case 1: // UDP: wait for the echo
				if !client.RecvFromStep(p, us, &echo) {
					return
				}
				if echo.Err != nil {
					log.Fatal(echo.Err)
				}
				fmt.Printf("[%8dµs] client: UDP echo %q, RTT %dµs\n", p.Now(), echo.D.Data, p.Now()-start)
				ts = client.NewTCPSocket(p)
				cliPC = 2
			case 2: // TCP: connect
				if !client.ConnectTCPStep(p, ts, serverAddr, 80, &connect) {
					return
				}
				if connect.Err != nil {
					log.Fatal(connect.Err)
				}
				cliPC = 3
			case 3: // TCP: send the request
				if !client.SendStreamStep(p, ts, &get) {
					return
				}
				cliPC = 4
			case 4: // TCP: read the reply until end of stream
				if !client.RecvStreamStep(p, ts, 1024, &resp) {
					return
				}
				if resp.Err != nil || resp.Data == nil {
					cliPC = 5
					continue
				}
				fmt.Printf("[%8dµs] client: TCP reply %q\n", p.Now(), resp.Data)
				resp = core.RecvStreamOp{}
			case 5: // close and exit
				if !client.CloseTCPStep(p, ts, &cliCl) {
					return
				}
				p.ReqExit()
				return
			}
		}
	})

	// Run one simulated second.
	eng.RunFor(sim.Second)

	st := server.Stats()
	fmt.Printf("\nserver after 1s simulated: %d NI channels allocated (max %d), drops: %+v\n",
		st.Channels, st.MaxChannels, st)
}
