package main

import (
	"fmt"
	"sort"
	"time"

	"netdimm/internal/addrmap"
	"netdimm/internal/kalloc"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// eventNs replays a nop event load at the given pending depth: depth
// events each re-schedule themselves a pseudo-random delay ahead, so the
// heap stays at that depth while holdFires events fire. It returns the
// median over three replays of host ns per scheduled-and-fired event.
func eventNs(depth int) float64 {
	const holdFires = 200_000
	if depth < 1 {
		depth = 1
	}
	var reps [3]float64
	for i := range reps {
		eng := sim.NewEngine()
		x := uint64(0x9e3779b97f4a7c15)
		left := holdFires
		var hold func()
		hold = func() {
			left--
			if left == 0 {
				eng.Stop()
			}
			x = x*6364136223846793005 + 1442695040888963407
			eng.Schedule(sim.Time(1+(x>>33)%1000), hold)
		}
		for j := 0; j < depth; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			eng.Schedule(sim.Time(1+(x>>33)%1000), hold)
		}
		start := time.Now()
		eng.Run()
		reps[i] = float64(time.Since(start).Nanoseconds()) / holdFires
	}
	sort.Float64s(reps[:])
	return reps[1]
}

// kallocTimes is the allocCache replay: construction, and one receive's
// allocations (Get(NoHint) + Get(hint) + two Releases, as the NetDIMM RX
// path makes them) on a full cache and on a drained one.
type kallocTimes struct {
	NewCacheNs float64 `json:"new_cache_ns"`
	FreshNs    float64 `json:"get_fresh_ns"`
	DrainedNs  float64 `json:"get_drained_ns"`
}

// kallocReplay times the allocCache on its own at the derived NET_0 zone
// size. Each receive consumes one bucket's two pages for good (Release
// returns them to the zone, not the cache), so the cache drains after
// Buckets() receives; that is the incast workload's drain point.
func kallocReplay(d *spec.Derived) (kallocTimes, error) {
	const builds, freshRounds, drainedRounds = 5, 4096, 256
	size := int64(d.Core.Ranks) * addrmap.RankBytes
	var (
		zone  *kalloc.Zone
		cache *kalloc.AllocCache
		err   error
		times [builds]float64
	)
	for i := range times {
		start := time.Now()
		zone = kalloc.NewNetDIMMZone("NET_0", d.ZoneBase(0), size)
		cache, err = kalloc.NewAllocCache(zone, 2)
		times[i] = float64(time.Since(start).Nanoseconds())
		if err != nil {
			return kallocTimes{}, err
		}
	}
	sort.Float64s(times[:])
	out := kallocTimes{NewCacheNs: times[builds/2]}

	receive := func() (fast bool, err error) {
		a, fast, err := cache.Get(kalloc.NoHint)
		if err != nil {
			return false, err
		}
		b, _, err := cache.Get(a)
		if err != nil {
			return false, err
		}
		if err := cache.Release(a); err != nil {
			return false, err
		}
		return fast, cache.Release(b)
	}
	timed := func(rounds int) (float64, error) {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if _, err := receive(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(rounds), nil
	}
	if out.FreshNs, err = timed(freshRounds); err != nil {
		return kallocTimes{}, err
	}
	for i := 0; ; i++ {
		if i > zone.Buckets() {
			return kallocTimes{}, fmt.Errorf("kalloc: cache still serving NoHint from its buckets after %d receives", i)
		}
		fast, err := receive()
		if err != nil {
			return kallocTimes{}, err
		}
		if !fast {
			break
		}
	}
	if out.DrainedNs, err = timed(drainedRounds); err != nil {
		return kallocTimes{}, err
	}
	return out, nil
}
