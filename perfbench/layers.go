package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// coreAcc accumulates the per-layer counters of the calls the traced
// run makes into the mem and core layers directly.
type coreAcc struct {
	passes             int // replays folded in; per-sweep figures divide by it
	warms, forks       int
	warmNS, forkNS     int64
	runNS, sampledNS   int64
	allocs             uint64
	cycles, skipped    uint64
	committed, fetched uint64
	replayed           uint64
	covered, detailed  uint64 // instructions covered, and of those simulated in detail
	dl1Acc, dl1Miss    uint64
	l2Acc, l2Miss      uint64
	streamInsts        uint64
	streamNS           int64
}

// add folds one result of a core call that took ns and allocated allocs
// heap objects.
func (a *coreAcc) add(res stats.Results, ns int64, allocs uint64) {
	a.runNS += ns
	a.allocs += allocs
	a.cycles += uint64(res.Cycles)
	a.skipped += res.SkippedCycles
	a.committed += res.Committed
	a.fetched += res.Fetched
	a.replayed += res.Replayed
	a.dl1Acc += res.Mem.DL1.Accesses
	a.dl1Miss += res.Mem.DL1.Misses
	a.l2Acc += res.Mem.L2.Accesses
	a.l2Miss += res.Mem.L2.Misses
	if s := res.Sampled; s != nil {
		a.sampledNS += ns
		a.covered += s.TotalInsts
		a.detailed += s.SampledInsts + s.WarmupInsts
	} else {
		a.covered += res.Committed
		a.detailed += res.Committed
	}
}

// publish sets the mem and core per-layer metrics. Times and counts are
// per sweep (per replay pass); ratios are over the whole traced run.
func (a *coreAcc) publish(e *env) {
	n := float64(max(a.passes, 1))
	e.set("mem.warm_ms", float64(a.warmNS)/1e6/n)
	e.set("mem.warm_count", float64(a.warms)/n)
	e.set("mem.fork_ms", float64(a.forkNS)/1e6/n)
	e.set("mem.fork_count", float64(a.forks)/n)
	e.set("mem.dl1_miss_frac", ratio(float64(a.dl1Miss), float64(a.dl1Acc)))
	e.set("mem.l2_miss_frac", ratio(float64(a.l2Miss), float64(a.l2Acc)))
	e.set("core.run_ms", float64(a.runNS)/1e6/n)
	e.set("core.ns_per_cycle", ratio(float64(a.runNS), float64(a.cycles-a.skipped)))
	e.set("core.ns_per_inst", ratio(float64(a.runNS), float64(a.covered)))
	e.set("core.skipped_cycle_frac", ratio(float64(a.skipped), float64(a.cycles)))
	e.set("core.wrongpath_fetch_frac", ratio(float64(a.fetched)-float64(a.committed), float64(a.fetched)))
	e.set("core.replay_per_inst", ratio(float64(a.replayed), float64(a.committed)))
	e.set("core.allocs_per_kinst", ratio(float64(a.allocs), float64(a.covered)/1000))
	e.set("core.sampled_ms", float64(a.sampledNS)/1e6/n)
	e.set("core.detail_frac", ratio(float64(a.detailed), float64(a.covered)))
	e.set("sim.forks_per_warm", ratio(float64(a.forks), float64(a.warms)))
	if a.streamNS > 0 {
		e.set("rv32.stream_kips", float64(a.streamInsts)/(float64(a.streamNS)/1e9)/1000)
	}
}

// replay re-runs a sweep's specs one at a time through the layers below
// sim.Sweep, spanning each public call: core.WarmDonor once per warm
// group and core.NewForked per point (mem), CPU.Run (core), or, for
// sampled points, Recipe.OpenStream (trace/rv32) and core.RunSampled
// (core). Each result must match the sweep's result for the same spec;
// a mismatch counts as a failed point.
func replay(e *env, specs []sim.RunSpec, fps []string, acc *coreAcc, batch int64) error {
	root := e.tr.start("replay", -1, batch)
	defer e.tr.finish(root)
	type groupKey struct {
		tr  *trace.Trace
		key mem.WarmKey
	}
	donors := map[groupKey]*mem.Hierarchy{}
	arena := core.NewArena()
	acc.passes++
	for i, s := range specs {
		var res stats.Results
		if s.Sample.Enabled() {
			r, _ := s.Trace.Recipe()
			id := e.tr.start("trace.open_stream", root, batch)
			st, err := r.OpenStream()
			if err != nil {
				return err
			}
			warm, err := r.OpenStream()
			if err != nil {
				return err
			}
			e.tr.finish(id)
			id = e.tr.start("core.RunSampled", root, batch)
			a0, t0 := heapAllocs(), time.Now()
			res, err = core.RunSampled(s.Config, st, warm, s.Sample, core.RunOptions{MaxInsts: s.Insts})
			ns, allocs := time.Since(t0).Nanoseconds(), heapAllocs()-a0
			e.tr.finish(id)
			if err != nil {
				return fmt.Errorf("replay %s: %w", s.Name, err)
			}
			acc.add(res, ns, allocs)
		} else {
			k := groupKey{s.Trace, mem.WarmKeyFor(s.Config)}
			donor, ok := donors[k]
			if !ok {
				id := e.tr.start("mem.WarmDonor", root, batch)
				t0 := time.Now()
				d, err := core.WarmDonor(k.key, s.Trace)
				acc.warmNS += time.Since(t0).Nanoseconds()
				e.tr.finish(id)
				if err != nil {
					return fmt.Errorf("replay %s: %w", s.Name, err)
				}
				acc.warms++
				donor, donors[k] = d, d
			}
			id := e.tr.start("mem.NewForked", root, batch)
			t0 := time.Now()
			cpu, err := core.NewForked(s.Config, s.Trace, donor, arena)
			acc.forkNS += time.Since(t0).Nanoseconds()
			e.tr.finish(id)
			if err != nil {
				return fmt.Errorf("replay %s: %w", s.Name, err)
			}
			acc.forks++
			id = e.tr.start("core.Run", root, batch)
			a0, t1 := heapAllocs(), time.Now()
			res = cpu.Run(core.RunOptions{MaxInsts: s.Insts, CollectOccupancy: s.CollectOccupancy})
			ns, allocs := time.Since(t1).Nanoseconds(), heapAllocs()-a0
			e.tr.finish(id)
			cpu.Recycle(arena)
			acc.add(res, ns, allocs)
		}
		e.chk.observe(fps[i], digest(res), s.Name+" "+s.Config.Summary()+" (layer replay)")
	}
	return nil
}

// timedSweep runs sim.Sweep under a span and returns its wall time and
// the share of workers × wall the process spent on CPU (sim.busy_frac).
func timedSweep(ctx context.Context, e *env, specs []sim.RunSpec, parent int, batch int64) ([]stats.Results, time.Duration, float64, error) {
	id := e.tr.start("sim.Sweep", parent, batch)
	c0, t0 := cpuTime(), time.Now()
	res, err := sim.Sweep(ctx, specs, sim.Options{Workers: workers()})
	wall, busy := time.Since(t0), cpuTime()-c0
	e.tr.finish(id)
	return res, wall, ratio(float64(busy), float64(workers())*float64(wall)), err
}

// verifyByRun recomputes every unpinned point with a local sim.Run, in
// parallel over the workers, and checks the observed results against it.
// With acc non-nil the runs' times and counters are folded into it;
// their heap allocations are counted over the whole pass, since the
// runs overlap.
func verifyByRun(e *env, byFP map[string]sim.RunSpec, acc *coreAcc) error {
	fps := e.chk.unpinned()
	if len(fps) == 0 {
		return nil
	}
	var accMu sync.Mutex
	a0 := heapAllocs()
	jobs := make(chan string)
	errs := make(chan error, workers())
	var wg sync.WaitGroup
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for fp := range jobs {
				spec, ok := byFP[fp]
				if !ok {
					if first == nil {
						first = fmt.Errorf("verify: no spec for fingerprint %s", fp)
					}
					continue
				}
				t0 := time.Now()
				res, err := sim.Run(spec)
				if acc != nil && err == nil {
					accMu.Lock()
					acc.add(res, time.Since(t0).Nanoseconds(), 0)
					accMu.Unlock()
				}
				if err != nil {
					e.chk.reference(fp, "error: "+err.Error())
					continue
				}
				e.chk.reference(fp, digest(res))
			}
			errs <- first
		}()
	}
	for _, fp := range fps {
		jobs <- fp
	}
	close(jobs)
	wg.Wait()
	close(errs)
	if acc != nil {
		acc.allocs += heapAllocs() - a0
	}
	for err := range errs {
		if err != nil {
			return err
		}
	}
	e.logf("verified %d unpinned point(s) against a local sim.Run", len(fps))
	return nil
}
