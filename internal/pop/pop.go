// Package pop generates aggregated client populations: one stackless
// kernel proc per attach point statistically models thousands to
// millions of clients, instead of one process (let alone one goroutine)
// per client. The paper measured LRP with a handful of LAN clients; the
// architecture's claims are about internet server operation, where the
// offered load is the superposition of an enormous, churning client
// population — far past what per-client simulation can afford.
//
// The model is open-loop: clients do not wait for the server, so offered
// load does not back off when the server livelocks (exactly the regime
// where BSD collapses and LRP must not). Aggregate arrivals follow a
// Poisson process, optionally modulated by a two-state MMPP (calm/flash)
// for flash-crowd behaviour; request sizes are bounded Pareto
// (heavy-tailed, like measured web traffic); the active-client count
// churns over time. Every stochastic choice draws from its own forked
// RNG stream, so a population's packet trace is a pure function of its
// seed and config — byte-identical across runs and parallelism levels.
//
// Each modeled client has a synthetic identity (address in 172.16/12,
// stable source port) so the server-side demultiplexer sees a realistic
// flow population, but the traffic is injected at the attach point's
// netsim port and follows that port's routes through the topology.
package pop

import (
	"fmt"
	"math"

	"lrp/internal/core"
	"lrp/internal/kernel"
	"lrp/internal/mbuf"
	"lrp/internal/metrics"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
)

// MaxClients bounds the synthetic client identity space: 172.16/12
// holds 2^20 addresses the way clientAddr packs them.
const MaxClients = 1 << 20

// genPoolLimit bounds the generator's private buffer pool (see
// app.genPoolLimit: recycling efficiency, not correctness).
const genPoolLimit = 4096

// never is an event time that does not arrive.
const never = int64(1) << 62

// zeroPayload backs the all-zero payloads; copied from, never into.
var zeroPayload = make([]byte, 64*1024)

func zeros(n int) []byte {
	if n <= len(zeroPayload) {
		return zeroPayload[:n]
	}
	return make([]byte, n)
}

// Config parameterizes one aggregated population.
type Config struct {
	// Clients is the number of modeled clients behind this attach point.
	Clients int
	// RatePps is the aggregate request rate (packets/s) with every
	// client active and no flash modulation.
	RatePps float64

	// FlashFactor > 1 enables two-state MMPP modulation: in the flash
	// state the aggregate rate is multiplied by FlashFactor. Sojourn
	// times in each state are exponential with the given means (µs).
	FlashFactor float64
	CalmMeanUs  int64
	FlashMeanUs int64

	// Request sizes are bounded Pareto over [SizeMin, SizeMax] bytes
	// with tail index SizeAlpha (defaults 14, 1400, 1.3).
	SizeMin   int
	SizeMax   int
	SizeAlpha float64

	// ChurnPerSec > 0 enables connection churn: at exponentially spaced
	// events, max(1, Clients/10) clients join or leave, with the active
	// count reflected into [max(1, Clients/2), Clients].
	ChurnPerSec float64

	// ClientBase offsets this population's client identities so
	// populations on different attach points do not share addresses.
	ClientBase int

	// Seed roots the population's forked RNG streams.
	Seed uint64
	// TTL of generated packets (default 64; must exceed the topology's
	// hop count).
	TTL byte
}

func (c Config) withDefaults() Config {
	if c.SizeMin <= 0 {
		c.SizeMin = 14
	}
	if c.SizeMax < c.SizeMin {
		c.SizeMax = 1400
		if c.SizeMax < c.SizeMin {
			c.SizeMax = c.SizeMin
		}
	}
	if c.SizeAlpha <= 0 {
		c.SizeAlpha = 1.3
	}
	if c.CalmMeanUs <= 0 {
		c.CalmMeanUs = 500 * sim.Millisecond
	}
	if c.FlashMeanUs <= 0 {
		c.FlashMeanUs = 100 * sim.Millisecond
	}
	if c.TTL == 0 {
		c.TTL = 64
	}
	return c
}

// Population is one aggregated client population attached at an edge
// host: a single stackless proc emitting the whole population's traffic.
type Population struct {
	Host  *core.Host // attach-point host whose kernel runs the proc
	Net   *netsim.Network
	Src   pkt.Addr // attach-point address: injection observes its routes
	Dst   pkt.Addr // server under test
	DPort uint16
	Cfg   Config

	// OnSend, if set, observes every generated packet (test hook).
	OnSend func(src pkt.Addr, sport uint16, size int)

	Sent      metrics.Counter
	SentBytes metrics.Counter
	Proc      *kernel.Proc

	pool    *mbuf.Pool
	ipid    uint16
	stopped bool
}

// Start validates the config and spawns the population proc.
func (g *Population) Start() {
	cfg := g.Cfg.withDefaults()
	if cfg.Clients < 1 || cfg.RatePps <= 0 {
		panic(fmt.Sprintf("pop: population needs Clients >= 1 and RatePps > 0 (got %d, %g)", cfg.Clients, cfg.RatePps))
	}
	if cfg.ClientBase+cfg.Clients > MaxClients {
		panic(fmt.Sprintf("pop: client identities %d..%d exceed the %d-address space", cfg.ClientBase, cfg.ClientBase+cfg.Clients, MaxClients))
	}
	g.Cfg = cfg
	g.pool = mbuf.NewPool(genPoolLimit)

	// One forked stream per stochastic dimension: arrival gaps, request
	// sizes, client identity, churn, MMPP modulation. Forking (rather
	// than sharing one stream) keeps each dimension's sequence stable
	// when another dimension is reconfigured.
	root := sim.NewRand(cfg.Seed)
	arr := root.Fork(1)
	szr := root.Fork(2)
	cli := root.Fork(3)
	chn := root.Fork(4)
	mod := root.Fork(5)

	var (
		pc     int
		tNext  float64 // absolute next-arrival time, fractional µs
		tMod   = never
		tChurn = never
		flash  bool
	)
	active := cfg.Clients
	rate := func() float64 {
		r := cfg.RatePps * float64(active) / float64(cfg.Clients)
		if flash {
			r *= cfg.FlashFactor
		}
		return r
	}
	g.Proc = g.Host.K.SpawnStep("pop", 0, func(p *kernel.Proc) {
		for {
			if g.stopped {
				p.ReqExit()
				return
			}
			now := int64(p.Now())
			switch pc {
			case 0:
				tNext = float64(now) + expGap(arr, rate())
				if cfg.FlashFactor > 1 {
					tMod = now + mod.ExpDuration(cfg.CalmMeanUs)
				}
				if cfg.ChurnPerSec > 0 {
					tChurn = now + churnGap(chn, cfg.ChurnPerSec)
				}
				pc = 1
			case 1:
				// Apply due modulation and churn events, then thin the
				// pending arrival gap to the new rate (the standard MMPP
				// rescaling: the remaining exponential gap shrinks or
				// stretches by oldRate/newRate).
				old := rate()
				for tMod <= now {
					flash = !flash
					mean := cfg.CalmMeanUs
					if flash {
						mean = cfg.FlashMeanUs
					}
					tMod += mod.ExpDuration(mean)
				}
				for tChurn <= now {
					delta := max(1, cfg.Clients/10)
					if chn.Float64() < 0.5 {
						delta = -delta
					}
					active += delta
					if lo := max(1, cfg.Clients/2); active < lo {
						active = lo
					}
					if active > cfg.Clients {
						active = cfg.Clients
					}
					tChurn += churnGap(chn, cfg.ChurnPerSec)
				}
				if nr := rate(); nr != old && tNext > float64(now) {
					tNext = float64(now) + (tNext-float64(now))*old/nr
				}
				for int64(tNext) <= now {
					g.sendOne(szr, cli, active)
					tNext += expGap(arr, rate())
				}
				d := int64(math.Ceil(tNext)) - now
				if t := tMod - now; t < d {
					d = t
				}
				if t := tChurn - now; t < d {
					d = t
				}
				if d < 1 {
					d = 1
				}
				if p.ReqDelay(d) {
					return
				}
			}
		}
	})
}

// Stop halts generation: the proc exits at its next wakeup.
func (g *Population) Stop() { g.stopped = true }

// sendOne emits one request from a uniformly chosen active client.
func (g *Population) sendOne(szr, cli *sim.Rand, active int) {
	c := g.Cfg.ClientBase + int(cli.Int63n(int64(active)))
	size := paretoSize(szr, g.Cfg.SizeMin, g.Cfg.SizeMax, g.Cfg.SizeAlpha)
	src := clientAddr(c)
	sport := uint16(1024 + c%60000)
	g.ipid++
	g.Sent.Inc()
	g.SentBytes.Addn(uint64(size))
	if g.OnSend != nil {
		g.OnSend(src, sport, size)
	}
	if m := g.pool.AllocBuf(pkt.UDPTotalLen(size)); m != nil {
		m.Data = pkt.AppendUDP(m.Data, src, g.Dst, sport, g.DPort, g.ipid, g.Cfg.TTL, zeros(size), true)
		g.Net.InjectMbufFrom(g.Src, m)
		return
	}
	g.Net.InjectFrom(g.Src, pkt.UDPPacket(src, g.Dst, sport, g.DPort, g.ipid, g.Cfg.TTL, make([]byte, size), true))
}

// clientAddr maps a client identity to its synthetic 172.16/12 address.
//
//lrp:hotpath per-packet on the generate path
func clientAddr(c int) pkt.Addr {
	return pkt.IP(172, 16+byte(c>>16), byte(c>>8), byte(c))
}

// expGap samples an exponential inter-arrival gap in fractional µs for
// an aggregate rate of ratePps, truncated at 20x the mean like
// sim.Rand.ExpDuration.
//
//lrp:hotpath per-packet on the generate path
func expGap(r *sim.Rand, ratePps float64) float64 {
	if ratePps <= 0 {
		return float64(never)
	}
	u := r.Float64()
	if u > 0.999999 {
		u = 0.999999
	}
	mean := 1e6 / ratePps
	g := -math.Log(1-u) * mean
	if g > 20*mean {
		g = 20 * mean
	}
	return g
}

// churnGap samples the exponential wait to the next churn event, µs.
func churnGap(r *sim.Rand, perSec float64) int64 {
	g := int64(expGap(r, perSec))
	if g < 1 {
		g = 1
	}
	return g
}

// paretoSize samples a bounded Pareto over [lo, hi] with tail index
// alpha by inverse-CDF.
//
//lrp:hotpath per-packet on the generate path
func paretoSize(r *sim.Rand, lo, hi int, alpha float64) int {
	if hi <= lo {
		return lo
	}
	u := r.Float64()
	l, h := float64(lo), float64(hi)
	x := l / math.Pow(1-u*(1-math.Pow(l/h, alpha)), 1/alpha)
	if x > h {
		x = h
	}
	if x < l {
		x = l
	}
	return int(x)
}
