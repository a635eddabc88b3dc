package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

// programSpecs is the programs-sampled point set: every RV32 program ×
// progConfigs, streamed under the scale's sampling spec at its budget,
// with the i-th program's data laid out by seedOf(i).
func programSpecs(sc scale, seedOf func(i int) uint64) ([]sim.RunSpec, error) {
	var specs []sim.RunSpec
	for i, name := range experiments.ProgramSuiteNames() {
		r, err := experiments.ProgramRecipe(name, sc.progInsts, seedOf(i))
		if err != nil {
			return nil, err
		}
		tr, err := trace.StreamOnly(r)
		if err != nil {
			return nil, err
		}
		for _, cfg := range progConfigs() {
			specs = append(specs, sim.RunSpec{Name: name, Config: cfg, Trace: tr, Insts: sc.progInsts, Sample: sc.progSample})
		}
	}
	return specs, nil
}

// fullDetailSpec is spec without sampling, the reference point for
// sampled accuracy. materialise builds its trace; without it the spec
// carries a recipe-only handle, enough for its fingerprint.
func fullDetailSpec(spec sim.RunSpec, materialise bool) (sim.RunSpec, error) {
	r, _ := spec.Trace.Recipe()
	tr, err := trace.RecipeOnly(r)
	if materialise {
		tr, err = r.Materialise()
	}
	if err != nil {
		return sim.RunSpec{}, err
	}
	spec.Trace, spec.Sample = tr, trace.SampleSpec{}
	return spec, nil
}

// openStreams is the programs-sampled set-up: one stream per program
// opened and its first instruction generated, the work a sampled point
// does before its first window.
func openStreams(specs []sim.RunSpec) error {
	done := map[*trace.Trace]bool{}
	for _, s := range specs {
		if done[s.Trace] {
			continue
		}
		done[s.Trace] = true
		r, _ := s.Trace.Recipe()
		st, err := r.OpenStream()
		if err != nil {
			return err
		}
		if _, err := st.Peek(1); err != nil {
			return err
		}
	}
	return nil
}

// drainStreams reads budget instructions (or to the program's end) from
// a fresh stream of each program: the rv32 streamer on its own.
func drainStreams(e *env, specs []sim.RunSpec, acc *coreAcc, batch int64) error {
	done := map[*trace.Trace]bool{}
	for _, s := range specs {
		if done[s.Trace] {
			continue
		}
		done[s.Trace] = true
		r, _ := s.Trace.Recipe()
		id := e.tr.start("rv32.drain", -1, batch)
		t0 := time.Now()
		st, err := r.OpenStream()
		if err != nil {
			return err
		}
		var n uint64
		for n < s.Insts {
			buf, err := st.Peek(4096)
			if err != nil {
				return err
			}
			if len(buf) == 0 {
				break
			}
			st.Skip(len(buf))
			n += uint64(len(buf))
		}
		acc.streamNS += time.Since(t0).Nanoseconds()
		acc.streamInsts += n
		e.tr.finish(id)
	}
	return nil
}

// runPrograms is the programs-sampled workload: the program × config
// grid under SMARTS sampling through sim.Sweep, repeated until the
// measured time is up. --seed picks each program's data seed from a pool
// whose full-detail references and digests are pinned, rotating through
// the pool from program to program, so every run mixes the pool's seeds
// and one seed's slower data does not set a whole run apart.
func runPrograms(ctx context.Context, e *env) error {
	specs, err := programSpecs(e.sc, func(i int) uint64 { return pick(progSeeds, e.seed+int64(i)) })
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < e.sc.setups; i++ {
		t0 := time.Now()
		if err := openStreams(specs); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	e.set("setup_s", median(setups))

	fps := make([]string, len(specs))
	byFP := map[string]sim.RunSpec{}
	for i, s := range specs {
		if fps[i], err = s.Fingerprint(); err != nil {
			return err
		}
		byFP[fps[i]] = s
	}
	var (
		walls, kips, pps        []float64
		plainWalls, tracedWalls []float64
		busyFracs               []float64
		acc                     coreAcc
		last                    []float64 // sampled IPC per spec
	)
	settle()
	rss := sampleRSS()
	defer rss.peakMB()
	deadline := time.Now().Add(e.dur)
	for iter := 0; iter < e.minIters() || time.Now().Before(deadline); iter++ {
		batch := int64(iter)
		spanned := e.traced && iter%2 == 1
		e.tr.setEnabled(spanned)
		if err := e.ref.measure(); err != nil {
			return err
		}
		results, wall, busy, err := timedSweep(ctx, e, specs, -1, batch)
		if err != nil {
			e.chk.fail(len(specs), "sweep: "+err.Error())
			continue
		}
		var covered uint64
		last = last[:0]
		for i, res := range results {
			if res.Sampled == nil {
				e.chk.fail(1, specs[i].Name+": sampled point returned no sampling block")
				last = append(last, math.NaN())
				continue
			}
			covered += res.Sampled.TotalInsts
			last = append(last, res.Sampled.IPCMean())
			e.chk.observe(fps[i], digest(res), specs[i].Name+" "+specs[i].Config.Summary())
		}
		walls = append(walls, ms(wall))
		kips = append(kips, float64(covered)/wall.Seconds()/1000)
		pps = append(pps, float64(len(specs))/wall.Seconds())
		if !e.traced {
			continue
		}
		if !spanned {
			plainWalls = append(plainWalls, ms(wall))
			continue
		}
		tracedWalls = append(tracedWalls, ms(wall))
		busyFracs = append(busyFracs, busy)
		if err := replay(e, specs, fps, &acc, batch); err != nil {
			return err
		}
		if err := drainStreams(e, specs, &acc, batch); err != nil {
			return err
		}
	}
	e.tr.setEnabled(e.traced)
	e.set("peak_rss_mb", rss.peakMB())
	e.set("kips", median(kips))
	e.set("points_per_s", median(pps))
	e.set("batch_p50_ms", median(walls))
	e.set("batch_p99_ms", quantile(walls, 0.99))
	e.note("batch_p50_ms", "n=%d sweeps of %d points", len(walls), len(specs))
	e.note("batch_p99_ms", "n=%d sweeps, nearest rank", len(walls))
	if err := e.ref.measure(); err != nil {
		return err
	}
	e.atRefSpeed()

	worst, computed, err := sampledError(e, specs, last)
	if err != nil {
		return err
	}
	e.sampledErr = worst
	if computed > 0 {
		e.note("sampled_ipc_err_pct", "%d reference(s) computed, not pinned", computed)
	}
	if e.traced {
		acc.publish(e)
		e.set("sampled_ipc_err_pct", worst)
		e.set("sim.sweep_ms", median(tracedWalls))
		e.set("sim.busy_frac", median(busyFracs))
		e.set("tracing.overhead_pct", 100*(ratio(median(tracedWalls), median(plainWalls))-1))
	}
	return verifyByRun(e, byFP, nil)
}

// sampledError is the worst relative gap, in percent, between each
// point's sampled IPC and the full-detail IPC of the same point. The
// full-detail IPCs are pinned data; one that is missing (a scale the
// pins do not cover) is computed here, and counted.
func sampledError(e *env, specs []sim.RunSpec, ipc []float64) (worst float64, computed int, err error) {
	for i, s := range specs {
		full, err := fullDetailSpec(s, false)
		if err != nil {
			return 0, 0, err
		}
		fp, err := full.Fingerprint()
		if err != nil {
			return 0, 0, err
		}
		ref, ok := e.pins.FullIPC[fp]
		if !ok {
			if ref, err = fullDetailIPC(s); err != nil {
				return 0, 0, err
			}
			computed++
		}
		if i < len(ipc) && ref > 0 && !math.IsNaN(ipc[i]) {
			worst = max(worst, 100*math.Abs(ipc[i]-ref)/ref)
		}
	}
	return worst, computed, nil
}

// fullDetailIPC simulates spec in full detail and returns its IPC.
func fullDetailIPC(spec sim.RunSpec) (float64, error) {
	full, err := fullDetailSpec(spec, true)
	if err != nil {
		return 0, err
	}
	res, err := sim.Run(full)
	if err != nil {
		return 0, fmt.Errorf("full-detail reference %s: %w", spec.Name, err)
	}
	return res.IPC(), nil
}
