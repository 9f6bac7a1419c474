// Command lrptrace runs a small canned scenario with event tracing
// enabled and dumps the packet-path and scheduler event log — a debugging
// lens on what the simulated kernel actually does with each packet.
//
// Usage:
//
//	lrptrace [-arch bsd|nilrp|softlrp|earlydemux|polling] [-n events]
package main

import (
	"flag"
	"fmt"
	"os"

	"lrp/internal/core"
	"lrp/internal/kernel"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
)

func main() {
	archName := flag.String("arch", "softlrp", "architecture: bsd|nilrp|softlrp|earlydemux|polling")
	n := flag.Int("n", 200, "event log capacity")
	flag.Parse()

	archs := map[string]core.Arch{
		"bsd":        core.ArchBSD,
		"nilrp":      core.ArchNILRP,
		"softlrp":    core.ArchSoftLRP,
		"earlydemux": core.ArchEarlyDemux,
		"polling":    core.ArchPolling,
	}
	arch, ok := archs[*archName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown arch %q\n", *archName)
		os.Exit(2)
	}

	eng := sim.NewEngine()
	nw := netsim.New(eng)
	serverAddr := pkt.IP(10, 0, 0, 2)
	clientAddr := pkt.IP(10, 0, 0, 1)
	server := core.NewHost(eng, nw, core.Config{Name: "server", Addr: serverAddr, Arch: arch})
	client := core.NewHost(eng, nw, core.Config{Name: "client", Addr: clientAddr, Arch: arch})
	defer server.Shutdown()
	defer client.Shutdown()
	log := server.EnableTrace(*n)

	// Scenario: an echo exchange, then a small burst that overflows the
	// receiver, so the trace shows dispatch, demux, delivery and drops.
	var (
		echoPC   int
		echoSock *socket.Socket
		echoRecv core.RecvFromOp
		echoSend core.SendToOp
	)
	server.K.SpawnStep("echo", 0, func(p *kernel.Proc) {
		for {
			switch echoPC {
			case 0:
				echoSock = server.NewUDPSocket(p)
				_ = server.BindUDP(echoSock, 7)
				echoPC = 1
			case 1:
				if !server.RecvFromStep(p, echoSock, &echoRecv) {
					return
				}
				if echoRecv.Err != nil {
					p.ReqExit()
					return
				}
				echoSend.Reset()
				echoPC = 2
			case 2:
				d := echoRecv.D
				if !server.SendToStep(p, echoSock, d.Src, d.SPort, d.Data, &echoSend) {
					return
				}
				echoRecv.Reset()
				echoPC = 1
				if p.ReqCompute(500) { // slow consumer: the burst will overflow queues
					return
				}
			}
		}
	})
	var (
		cliPC   int
		cliSock *socket.Socket
		ping    core.SendToOp
		reply   = core.RecvFromOp{Timed: true, Timeout: 100 * sim.Millisecond}
	)
	client.K.SpawnStep("client", 0, func(p *kernel.Proc) {
		for {
			switch cliPC {
			case 0:
				if cliSock == nil {
					cliSock = client.NewUDPSocket(p)
					_ = client.BindUDP(cliSock, 0)
				}
				if !client.SendToStep(p, cliSock, serverAddr, 7, []byte("ping"), &ping) {
					return
				}
				cliPC = 1
			case 1:
				if !client.RecvFromStep(p, cliSock, &reply) {
					return
				}
				p.ReqExit()
				return
			}
		}
	})
	eng.At(5*sim.Millisecond, func() {
		for i := 0; i < 100; i++ {
			nw.Inject(pkt.UDPPacket(clientAddr, serverAddr, 99, 7, uint16(i), 64, make([]byte, 14), true))
		}
	})
	eng.RunFor(100 * sim.Millisecond)

	fmt.Printf("=== %s: server event trace ===\n", arch)
	fmt.Print(log.Dump())
	st := server.Stats()
	fmt.Printf("\ndrops: channel=%d sockq=%d ipq=%d early=%d\n",
		st.ChannelDrops, st.SockQDrops, st.IPQDrops, st.EarlyDrops)
}
