package experiments

import (
	"netdimm/internal/addrmap"
	"netdimm/internal/memctrl"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/workload"
)

// Fig5Row is one memory-pressure level of the motivation experiment: the
// delay between injected MLC requests (higher = less interference) and the
// achieved iperf-style TCP bandwidth.
type Fig5Row struct {
	InjectDelay   sim.Time
	BandwidthGbps float64
	MemReadNs     float64 // observed memory read latency under this pressure
}

// The Fig. 5 rig mirrors the paper's testbed (Sec. 3: Xeon E5-2660, three
// DDR4 channels, 40GbE): a receiver with three channels and a 40GbE
// stream, with an MLC-style injector (1:1 read:write) loading every
// channel.
const (
	fig5Channels   = 3
	fig5RingWindow = 128 // RX frames in flight
	// fig5CopyCores bounds concurrent driver copies: each frame is copied
	// serially by one core (chunked loads with limited MLP), so inflated
	// memory latency directly slows the receiver — the mechanism that
	// collapses iperf bandwidth under MLC pressure.
	fig5CopyCores = 8
	// fig5CopyMLP is the number of cacheline loads a copying core keeps in
	// flight (MSHR-bound).
	fig5CopyMLP  = 4
	fig5Duration = 2 * sim.Millisecond
	fig5Seed     = 1
)

// DefaultFig5Delays is the default injector-delay axis, from no
// interference (one request a second) to maximum pressure.
var DefaultFig5Delays = []sim.Time{
	sim.Second,
	2 * sim.Microsecond, 500 * sim.Nanosecond, 100 * sim.Nanosecond,
	50 * sim.Nanosecond, 20 * sim.Nanosecond, 10 * sim.Nanosecond, 5 * sim.Nanosecond,
}

// Fig5 sweeps the injector delay and reports achieved bandwidth on the
// system described by sp (host DRAM timing, controller config and link
// rate all derive from it): the paper's observation is that at maximum
// memory pressure iperf delivers only ~28% of its uncontended bandwidth.
// Each pressure level is an independent cell (its own engine, controllers
// and injectors), fanned out over `parallelism` workers. Empty delays
// select DefaultFig5Delays.
func Fig5(sp spec.Spec, delays []sim.Time, parallelism int) []Fig5Row {
	if len(delays) == 0 {
		delays = DefaultFig5Delays
	}
	rows := make([]Fig5Row, len(delays))
	forEachCell(len(delays), parallelism, func(i int) {
		rows[i] = runFig5(sp.MustDerive(), delays[i])
	})
	return rows
}

// fig5Rig simulates the iperf receiver: frames arrive at 40GbE line rate;
// each frame is DMA-written to memory (one request per cacheline,
// interleaved across channels) and then copied from the DMA buffer to the
// application buffer (read + write per cacheline). The TCP window limits
// frames in flight, so memory pressure throttles the achieved rate.
type fig5Rig struct {
	eng       *sim.Engine
	mcs       []*memctrl.Controller
	inflight  int
	completed int64
	frameGap  sim.Time
	nextFrame int64
	stopped   bool

	copyQueue   []int64 // frames awaiting a copy core
	activeCores int
}

func runFig5(d *spec.Derived, delay sim.Time) Fig5Row {
	eng := sim.NewEngine()
	rig := &fig5Rig{
		eng: eng,
		// 1538 wire bytes per MTU frame at line rate.
		frameGap: d.Link.SerializeTime(nic.MTU),
	}
	var injectors []*workload.Injector
	for ch := 0; ch < fig5Channels; ch++ {
		mc := memctrl.New(eng, d.MC, memctrl.NewRankSet(d.HostTiming, 2))
		rig.mcs = append(rig.mcs, mc)
		// MLC pressure: 1:1 read/write over a large working set on every
		// channel. The injector is disabled with a non-positive... a very
		// large delay stands in for "no interference".
		if delay < sim.Second {
			in := workload.NewInjector(eng, mc, delay, 0.5, 1<<30, 512<<20, fig5Seed+uint64(ch))
			in.Parallelism = 8 // MLC load threads driving this channel
			in.Start()
			injectors = append(injectors, in)
		}
	}
	rig.arrive()
	eng.RunUntil(fig5Duration)
	rig.stopped = true
	for _, in := range injectors {
		in.Stop()
	}

	gbps := float64(rig.completed) * float64(nic.MTU+nic.EthernetOverheadBytes) * 8 /
		fig5Duration.Seconds() / 1e9
	var latSum, latN float64
	for _, in := range injectors {
		if h := in.ReadLatency(); h.Count() > 0 {
			latSum += h.Mean().Nanoseconds()
			latN++
		}
	}
	row := Fig5Row{InjectDelay: delay, BandwidthGbps: gbps}
	if latN > 0 {
		row.MemReadNs = latSum / latN
	}
	return row
}

// arrive starts frames at line rate, subject to the window.
func (r *fig5Rig) arrive() {
	if r.stopped {
		return
	}
	if r.inflight >= fig5RingWindow {
		// Window closed: re-check shortly (the sender's TCP stack clocks
		// out new data as acknowledgements return).
		r.eng.Schedule(r.frameGap, r.arrive)
		return
	}
	r.inflight++
	frame := r.nextFrame
	r.nextFrame++
	r.dmaPhase(frame)
	r.eng.Schedule(r.frameGap, r.arrive)
}

const frameLines = (nic.MTU + 63) / 64

// dmaPhase issues the NIC's 24 cacheline writes for one frame (the NIC's
// DMA engine has deep queues, so these go out in parallel), then hands the
// frame to a copy core.
func (r *fig5Rig) dmaPhase(frame int64) {
	base := (frame % 1024) * 2048 // ring of 2KB buffers
	remaining := frameLines
	done := func(memctrl.Response) {
		if remaining--; remaining == 0 {
			r.copyQueue = append(r.copyQueue, frame)
			r.dispatchCopies()
		}
	}
	for i := 0; i < frameLines; i++ {
		addr := base + int64(i)*addrmap.CachelineSize
		r.mcOf(addr).Submit(&memctrl.Request{Addr: addr, Write: true, Bytes: addrmap.CachelineSize, Done: done})
	}
}

// dispatchCopies starts queued frame copies on free cores.
func (r *fig5Rig) dispatchCopies() {
	for r.activeCores < fig5CopyCores && len(r.copyQueue) > 0 {
		frame := r.copyQueue[0]
		r.copyQueue = r.copyQueue[1:]
		r.activeCores++
		r.copyChunk(frame, 0)
	}
}

// copyChunk copies one MLP-sized chunk of the frame: the loads of the
// chunk go out together; the stores are posted; the next chunk starts only
// when the loads return. Memory latency therefore directly gates copy
// throughput.
func (r *fig5Rig) copyChunk(frame int64, line int) {
	if line >= frameLines {
		r.activeCores--
		r.inflight--
		r.completed++
		r.dispatchCopies()
		return
	}
	base := (frame % 1024) * 2048
	appBase := int64(8<<20) + (frame%4096)*2048
	n := fig5CopyMLP
	if line+n > frameLines {
		n = frameLines - line
	}
	remaining := n
	for i := 0; i < n; i++ {
		addr := base + int64(line+i)*addrmap.CachelineSize
		dst := appBase + int64(line+i)*addrmap.CachelineSize
		r.mcOf(addr).Submit(&memctrl.Request{
			Addr:  addr,
			Bytes: addrmap.CachelineSize,
			Done: func(memctrl.Response) {
				// Store the line to the app buffer (posted).
				r.mcOf(dst).Submit(&memctrl.Request{
					Addr: dst, Write: true, Bytes: addrmap.CachelineSize,
				})
				remaining--
				if remaining == 0 {
					r.copyChunk(frame, line+n)
				}
			},
		})
	}
}

func (r *fig5Rig) mcOf(addr int64) *memctrl.Controller {
	return r.mcs[int(addr/addrmap.CachelineSize)%len(r.mcs)]
}
