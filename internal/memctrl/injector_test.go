package memctrl_test

import (
	"testing"

	"netdimm/internal/dram"
	"netdimm/internal/memctrl"
	"netdimm/internal/sim"
	"netdimm/internal/workload"
)

// An MLC-style injector thread stalls while its request waits for a slot
// and does not poll: at a 1 ns gap with 8 threads against 4-line queues,
// requests do wait, but never more than 8 at once, and every request
// issued completes.
func TestInjectorWaitsAtMostParallelism(t *testing.T) {
	eng := sim.NewEngine()
	cfg := memctrl.DefaultConfig()
	cfg.ReadQueueCap, cfg.WriteQueueCap = 4, 4
	mc := memctrl.New(eng, cfg, memctrl.NewRankSet(dram.DDR4_2400(), 1))
	in := workload.NewInjector(eng, mc, sim.Nanosecond, 0.5, 0, 1<<20, 10)
	in.Parallelism = 8
	in.Start()
	peak := 0
	for eng.Now() < 20*sim.Microsecond {
		eng.RunUntil(eng.Now() + sim.Nanosecond)
		r, w := mc.Waiting()
		peak = max(peak, r+w)
	}
	in.Stop()
	eng.Run()
	if peak == 0 || peak > in.Parallelism {
		t.Fatalf("up to %d requests waiting; want some, and at most the %d threads", peak, in.Parallelism)
	}
	if done := mc.Stats().ReadsDone + mc.Stats().WritesDone; done != in.Issued() {
		t.Fatalf("issued %d but completed %d", in.Issued(), done)
	}
}
