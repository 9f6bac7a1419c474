package core_test

import (
	"fmt"

	"lrp/internal/core"
	"lrp/internal/kernel"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
)

// Example builds the smallest possible two-host LRP network and runs one
// UDP round trip through it.
func Example() {
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	serverAddr := pkt.IP(10, 0, 0, 2)
	clientAddr := pkt.IP(10, 0, 0, 1)
	server := core.NewHost(eng, nw, core.Config{Name: "server", Addr: serverAddr, Arch: core.ArchSoftLRP})
	client := core.NewHost(eng, nw, core.Config{Name: "client", Addr: clientAddr, Arch: core.ArchSoftLRP})
	defer server.Shutdown()
	defer client.Shutdown()

	// Each process body is a step function the kernel calls at every
	// dispatch; socket calls are resumable *Op frames whose Step method
	// reports completion, and the body returns to the scheduler until then.
	var (
		srvPC   int
		srvSock *socket.Socket
		srvRecv core.RecvFromOp
		srvSend core.SendToOp
	)
	server.K.SpawnStep("echo", 0, func(p *kernel.Proc) {
		for {
			switch srvPC {
			case 0:
				srvSock = server.NewUDPSocket(p)
				_ = server.BindUDP(srvSock, 7)
				srvPC = 1
			case 1:
				if !server.RecvFromStep(p, srvSock, &srvRecv) {
					return
				}
				if srvRecv.Err != nil {
					p.ReqExit()
					return
				}
				srvSend.Reset()
				srvPC = 2
			case 2:
				d := srvRecv.D
				if !server.SendToStep(p, srvSock, d.Src, d.SPort, d.Data, &srvSend) {
					return
				}
				srvRecv.Reset()
				srvPC = 1
			}
		}
	})
	var (
		cliPC   int
		cliSock *socket.Socket
		cliSend core.SendToOp
		cliRecv core.RecvFromOp
	)
	client.K.SpawnStep("client", 0, func(p *kernel.Proc) {
		for {
			switch cliPC {
			case 0:
				if cliSock == nil {
					cliSock = client.NewUDPSocket(p)
					_ = client.BindUDP(cliSock, 0)
				}
				if !client.SendToStep(p, cliSock, serverAddr, 7, []byte("hello"), &cliSend) {
					return
				}
				cliPC = 1
			case 1:
				if !client.RecvFromStep(p, cliSock, &cliRecv) {
					return
				}
				if cliRecv.Err == nil {
					fmt.Printf("echoed %q\n", cliRecv.D.Data)
				}
				p.ReqExit()
				return
			}
		}
	})
	eng.RunFor(sim.Second)
	// Output:
	// echoed "hello"
}
