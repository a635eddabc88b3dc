package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// goldenInsts and goldenSeed are the figure-9 options the repository's
// golden rendering pins.
const (
	goldenInsts = 3000
	goldenSeed  = 42
)

// materialiseSuite builds the figure-9 suite's traces for a budget and
// fpmix seed, keyed by canonical recipe string, including each trace's
// warm-up footprint (computed lazily by the first run otherwise). It
// returns the time spent in the trace layer.
func materialiseSuite(e *env, insts, seed uint64, batch int64) (map[string]*trace.Trace, time.Duration, error) {
	out := map[string]*trace.Trace{}
	var total time.Duration
	for _, b := range experiments.SuiteBenchmarks(seed) {
		r := b.Recipe(trace.LenFor(insts))
		id := e.tr.start("trace.Materialise", -1, batch)
		t0 := time.Now()
		tr, err := r.Materialise()
		if err == nil {
			tr.WarmFootprint()
		}
		total += time.Since(t0)
		e.tr.finish(id)
		if err != nil {
			return nil, 0, fmt.Errorf("materialise %s: %w", r, err)
		}
		out[r.String()] = tr
	}
	return out, total, nil
}

// fig9Runner is the experiments.Options.Runner the workload installs:
// experiments.Figure9 hands it recipe-only specs, and it substitutes the
// traces materialised during set-up before calling sim.Sweep.
type fig9Runner struct {
	e      *env
	traces map[string]*trace.Trace
	parent int
	batch  int64

	specs   []sim.RunSpec
	results []stats.Results
	wall    time.Duration
	busy    float64
}

func (r *fig9Runner) run(ctx context.Context, in []sim.RunSpec, _ sim.Options) ([]stats.Results, error) {
	specs := append([]sim.RunSpec(nil), in...)
	for i := range specs {
		rec, ok := specs[i].Trace.Recipe()
		tr := r.traces[rec.String()]
		if !ok || tr == nil {
			return nil, fmt.Errorf("no materialised trace for %s", rec)
		}
		specs[i].Trace = tr
	}
	res, wall, busy, err := timedSweep(ctx, r.e, specs, r.parent, r.batch)
	r.specs, r.results, r.wall, r.busy = specs, res, wall, busy
	return res, err
}

// runFig9 is the fig9-sweep workload: experiments.Figure9's 11
// configurations over the 6 synthetic kernels, repeated until the
// measured time is up. --seed picks the fpmix kernel's seed.
func runFig9(ctx context.Context, e *env) error {
	seed := inputSeed(e.seed, "fig9")
	insts := e.sc.fig9Insts

	var traces map[string]*trace.Trace
	var setups, matMS []float64
	for i := 0; i < e.sc.setups; i++ {
		t0 := time.Now()
		m, mat, err := materialiseSuite(e, insts, seed, int64(-1-i))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		matMS = append(matMS, ms(mat))
		traces = m
	}
	e.set("setup_s", median(setups))
	e.set("trace.materialise_ms", median(matMS))

	opt := experiments.Options{Insts: insts, Seed: seed, Workers: workers()}
	r := &fig9Runner{e: e, traces: traces}
	opt.Runner = r.run
	var (
		fps                        []string
		byFP                       = map[string]sim.RunSpec{}
		walls, kips, pps           []float64
		tracedWalls, plainWalls    []float64
		sweepMS, selfMS, busyFracs []float64
		acc                        coreAcc
	)
	settle()
	rss := sampleRSS()
	defer rss.peakMB()
	deadline := time.Now().Add(e.dur)
	for iter := 0; iter < e.minIters() || time.Now().Before(deadline); iter++ {
		batch := int64(iter)
		if err := e.ref.measure(); err != nil {
			return err
		}
		// Traced runs alternate plain and traced iterations; the gap
		// between the two is the tracing overhead.
		spanned := e.traced && iter%2 == 1
		e.tr.setEnabled(spanned)
		root := e.tr.start("experiments.Figure9", -1, batch)
		r.parent, r.batch = root, batch
		t0 := time.Now()
		_, err := experiments.Figure9(ctx, opt)
		wall := time.Since(t0)
		e.tr.finish(root)
		if err != nil {
			e.chk.fail(max(len(r.specs), 1), "figure 9: "+err.Error())
			continue
		}
		if fps == nil {
			for _, s := range r.specs {
				fp, err := s.Fingerprint()
				if err != nil {
					return err
				}
				fps = append(fps, fp)
				byFP[fp] = s
			}
		}
		var committed uint64
		for i, res := range r.results {
			committed += res.Committed
			e.chk.observe(fps[i], digest(res), r.specs[i].Name+" "+r.specs[i].Config.Summary())
		}
		walls = append(walls, ms(wall))
		kips = append(kips, float64(committed)/wall.Seconds()/1000)
		pps = append(pps, float64(len(r.specs))/wall.Seconds())
		if !e.traced {
			continue
		}
		if !spanned {
			plainWalls = append(plainWalls, ms(wall))
			continue
		}
		tracedWalls = append(tracedWalls, ms(wall))
		sweepMS = append(sweepMS, ms(r.wall))
		selfMS = append(selfMS, ms(wall-r.wall))
		busyFracs = append(busyFracs, r.busy)
		if err := replay(e, r.specs, fps, &acc, batch); err != nil {
			return err
		}
	}
	e.tr.setEnabled(e.traced)
	e.set("peak_rss_mb", rss.peakMB())
	e.set("kips", median(kips))
	e.set("points_per_s", median(pps))
	e.set("batch_p50_ms", median(walls))
	e.set("batch_p99_ms", quantile(walls, 0.99))
	e.note("batch_p50_ms", "n=%d sweeps of %d points", len(walls), len(fps))
	e.note("batch_p99_ms", "n=%d sweeps, nearest rank", len(walls))
	e.atRefSpeed()
	if e.traced {
		acc.publish(e)
		e.set("sim.sweep_ms", median(sweepMS))
		e.set("sim.busy_frac", median(busyFracs))
		e.set("sim.groups", float64(acc.warms)/float64(max(acc.passes, 1)))
		e.set("experiments.figure9_ms", median(tracedWalls))
		e.set("experiments.self_ms", median(selfMS))
		e.set("tracing.overhead_pct", 100*(ratio(median(tracedWalls), median(plainWalls))-1))
	}

	if err := verifyByRun(e, byFP, nil); err != nil {
		return err
	}
	return checkGolden(ctx, e)
}

// checkGolden renders figure 9 at the golden options through the same
// runner and compares it byte for byte with the repository's golden
// file; a divergence fails all of its points.
func checkGolden(ctx context.Context, e *env) error {
	traces, _, err := materialiseSuite(e, goldenInsts, goldenSeed, -100)
	if err != nil {
		return err
	}
	r := &fig9Runner{e: e, traces: traces, parent: -1, batch: -100}
	fr, err := experiments.Figure9(ctx, experiments.Options{Insts: goldenInsts, Seed: goldenSeed, Workers: workers(), Runner: r.run})
	if err != nil {
		e.chk.fail(max(len(r.specs), 1), "golden figure 9: "+err.Error())
		return nil
	}
	for i, s := range r.specs {
		fp, err := s.Fingerprint()
		if err != nil {
			return err
		}
		e.chk.observe(fp, digest(r.results[i]), "golden "+s.Name+" "+s.Config.Summary())
	}
	if got := fr.String() + fr.Figure11String(); got != e.golden {
		e.chk.fail(len(r.specs), "figure 9 rendering differs from "+goldenPath)
	} else {
		e.logf("figure 9 at %d insts renders byte-identical to %s", goldenInsts, goldenPath)
	}
	return nil
}
