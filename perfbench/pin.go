package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pinsPath is where -pin writes, relative to the checkout root.
const pinsPath = "perfbench/data/pins.json"

// pinnedServePoints is how many fresh points per client of the first
// pinnedServeClients clients have pinned serve-mixed digests.
const (
	pinnedServePoints  = 32
	pinnedServeClients = 4
)

// pinsDescription is stored with the pinned data.
const pinsDescription = "Result digests (first 8 bytes of SHA-256 over the canonical JSON of stats.Results) by sim.Fingerprint, at production scale: fig9-sweep for seeds 1 (default) and 2 (held out) plus the golden figure-9 options; programs-sampled for every pool seed; serve-mixed for the first fresh points of the first clients of seeds 1 and 2. full_detail_ipc is the IPC of each programs-sampled point simulated in full detail (no sampling), keyed by the fingerprint of that full-detail point; it is the only accuracy reference the benchmark has, the model itself is not validated against hardware. Regenerate with: bash perfbench/run.sh -pin"

// writePins recomputes every pinned digest and full-detail reference at
// production scale and writes them to pinsPath. It runs only on request:
// the pinned data is what runs are checked against, so regenerating it
// is a decision to accept new simulated results.
func writePins(ctx context.Context, log io.Writer) error {
	p := pins{Description: pinsDescription, Digests: map[string]string{}, FullIPC: map[string]float64{}}
	sc := productionScale
	add := func(spec sim.RunSpec, dig string) error {
		fp, err := spec.Fingerprint()
		if err != nil {
			return err
		}
		p.Digests[fp] = dig
		return nil
	}

	e := newEnv("pin", defaultSeed, 0, false, sc, io.Discard)
	figure := func(insts, seed uint64) error {
		traces, _, err := materialiseSuite(e, insts, seed, 0)
		if err != nil {
			return err
		}
		r := &fig9Runner{e: e, traces: traces, parent: -1}
		if _, err := experiments.Figure9(ctx, experiments.Options{Insts: insts, Seed: seed, Workers: workers(), Runner: r.run}); err != nil {
			return err
		}
		for i, s := range r.specs {
			if err := add(s, digest(r.results[i])); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range []int64{defaultSeed, heldOutSeed} {
		fmt.Fprintf(log, "fig9-sweep seed %d\n", s)
		if err := figure(sc.fig9Insts, inputSeed(s, "fig9")); err != nil {
			return err
		}
	}
	if err := figure(goldenInsts, goldenSeed); err != nil {
		return err
	}

	for _, seed := range progSeeds {
		fmt.Fprintf(log, "programs-sampled program seed %d\n", seed)
		specs, err := programSpecs(sc, func(int) uint64 { return seed })
		if err != nil {
			return err
		}
		results, err := sim.Sweep(ctx, specs, sim.Options{Workers: workers()})
		if err != nil {
			return err
		}
		for i, s := range specs {
			if err := add(s, digest(results[i])); err != nil {
				return err
			}
		}
		// Full detail one program at a time: a materialised 4M-instruction
		// program trace is large, so only one is resident.
		for lo := 0; lo < len(specs); lo += len(progConfigs()) {
			fulls := append([]sim.RunSpec(nil), specs[lo:lo+len(progConfigs())]...)
			r, _ := fulls[0].Trace.Recipe()
			tr, err := r.Materialise()
			if err != nil {
				return err
			}
			for i := range fulls {
				fulls[i].Trace, fulls[i].Sample = tr, trace.SampleSpec{}
			}
			full, err := sim.Sweep(ctx, fulls, sim.Options{Workers: workers()})
			if err != nil {
				return err
			}
			for i, s := range fulls {
				fp, err := s.Fingerprint()
				if err != nil {
					return err
				}
				p.FullIPC[fp] = full[i].IPC()
			}
		}
	}

	for _, s := range []int64{defaultSeed, heldOutSeed} {
		fmt.Fprintf(log, "serve-mixed seed %d\n", s)
		space := newServeSpace(sc, inputSeed(s, "serve"))
		byFP := map[string]service.Job{}
		for c := 0; c < pinnedServeClients; c++ {
			for k := 0; k < pinnedServePoints; k++ {
				j, err := space.fresh(c, k)
				if err != nil {
					return err
				}
				fp, err := j.Fingerprint()
				if err != nil {
					return err
				}
				byFP[fp] = j
			}
		}
		specs, err := localSpecs(byFP)
		if err != nil {
			return err
		}
		fps := make([]string, 0, len(specs))
		for fp := range specs {
			fps = append(fps, fp)
		}
		sort.Strings(fps)
		for _, fp := range fps {
			res, err := sim.Run(specs[fp])
			if err != nil {
				return err
			}
			p.Digests[fp] = digest(res)
		}
	}

	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "%d digests, %d full-detail references -> %s\n", len(p.Digests), len(p.FullIPC), pinsPath)
	return os.WriteFile(pinsPath, append(raw, '\n'), 0o644)
}
