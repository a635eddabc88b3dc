// Package sim is the run engine underneath the experiment harness: it
// executes declarative simulation points over a bounded worker pool and
// returns results in submission order with real error propagation.
//
// Every figure of the paper's evaluation is a grid of (mechanism ×
// window size × L2 latency × workload) points; each figure flattens its
// grid into a []RunSpec and submits it to Sweep once. Traces are
// immutable (core.CPU.Run never writes to its *trace.Trace, guarded by
// a test), so a single generated trace is shared read-only by every
// concurrently running CPU that sweeps over it.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// RunSpec is one declarative simulation point: a configuration bound to
// a workload trace and an instruction budget.
type RunSpec struct {
	// Name labels the workload (progress lines and run records).
	Name string
	// Config is the processor configuration; validated by core.New.
	Config config.Config
	// Trace is the workload. It is shared read-only across concurrent
	// runs — generate once, submit many.
	Trace *trace.Trace
	// Insts is the committed-instruction target (0 runs the full trace).
	Insts uint64
	// CollectOccupancy enables the full occupancy distribution
	// (Figure 7).
	CollectOccupancy bool
	// DisableSkip forces cycle-by-cycle simulation (see
	// core.RunOptions.DisableSkip). Results are bit-identical either
	// way, so the knob never enters result fingerprints or the remote
	// job encoding — it is a local A/B debugging aid only.
	DisableSkip bool
	// Sample, when enabled, runs the point under the SMARTS sampling
	// protocol (core.RunSampled) over the workload's segment stream
	// instead of simulating every instruction. Insts then bounds the
	// total stream coverage (and is mandatory for synthetic workloads,
	// whose streams are unbounded). Sampling changes what is measured,
	// so it is part of the point's fingerprint identity — unlike
	// DisableSkip (see Fingerprint).
	Sample trace.SampleSpec
}

// Options tunes a Sweep.
type Options struct {
	// Workers bounds the worker pool; <= 0 uses GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one line per completed run
	// together with the sweep's completion count: done runs out of
	// total (done counts this run). Calls are serialised but arrive in
	// completion order, not spec order.
	Progress func(done, total int, line string)
	// OnResult, when non-nil, receives every completed run. Calls are
	// serialised; order follows completion, not spec order.
	OnResult func(spec RunSpec, res stats.Results)
}

// ProgressLine renders the one-line completion report for a finished
// spec. The local sweep and the remote service client both use it, so
// -server progress output matches in-process output byte for byte.
func ProgressLine(spec RunSpec, res stats.Results) string {
	return fmt.Sprintf("  %-10s %-34s IPC=%.3f", spec.Name, spec.Config.Summary(), res.IPC())
}

// Run executes a single spec synchronously. Construction failures and
// simulator panics (e.g. the commit watchdog) come back as errors
// labelled with the spec, never as process-killing panics — a worker
// pool must survive one bad point.
func Run(spec RunSpec) (stats.Results, error) {
	return runSpec(spec, nil, nil)
}

// RunForked executes one spec against a fork of donor's warmed cache
// state instead of replaying the warm-up footprint (see core.WarmDonor
// and core.NewForked; a sampled spec's donor comes from
// core.WarmStreamDonor, see core.RunSampledForked). The donor is only
// read; it may serve concurrent RunForked calls. Error handling
// matches Run.
func RunForked(spec RunSpec, donor *mem.Hierarchy) (stats.Results, error) {
	return runSpec(spec, func() (*mem.Hierarchy, error) { return donor, nil }, nil)
}

// runSpec is the worker body shared by the cold and forked paths: a nil
// getDonor runs cold (build and warm a private hierarchy), otherwise
// the CPU — or, for a sampled spec, the persistent substrate — forks
// the donor's warmed cache state. arena, when non-nil, is the calling
// worker's record arena (single-owner).
func runSpec(spec RunSpec, getDonor func() (*mem.Hierarchy, error), arena *core.Arena) (res stats.Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: %s (%s): panic: %v", spec.Name, spec.Config.Summary(), r)
		}
	}()
	if spec.Sample.Enabled() {
		res, err = runSampled(spec, getDonor)
		if err != nil {
			err = fmt.Errorf("sim: %s (%s): %w", spec.Name, spec.Config.Summary(), err)
		}
		return res, err
	}
	var cpu *core.CPU
	if getDonor == nil {
		cpu, err = core.New(spec.Config, spec.Trace)
	} else {
		var donor *mem.Hierarchy
		if donor, err = getDonor(); err == nil {
			cpu, err = core.NewForked(spec.Config, spec.Trace, donor, arena)
		}
	}
	if err != nil {
		return stats.Results{}, fmt.Errorf("sim: %s (%s): %w", spec.Name, spec.Config.Summary(), err)
	}
	res = cpu.Run(core.RunOptions{
		MaxInsts:         spec.Insts,
		CollectOccupancy: spec.CollectOccupancy,
		DisableSkip:      spec.DisableSkip,
	})
	cpu.Recycle(arena)
	return res, nil
}

// runSampled executes a sampled point: open the workload's segment
// stream — from the recipe when the trace is a recipe-only handle (the
// normal sampled path, which never materialises), or over the slice of
// an already-materialised trace — and drive it through
// core.RunSampledForked over the group's donor, or, with a nil
// getDonor, through core.RunSampled, which warms from a second stream.
func runSampled(spec RunSpec, getDonor func() (*mem.Hierarchy, error)) (stats.Results, error) {
	if err := spec.Sample.Validate(); err != nil {
		return stats.Results{}, err
	}
	if spec.CollectOccupancy {
		return stats.Results{}, fmt.Errorf("occupancy collection cannot be sampled")
	}
	st, err := openStream(spec.Trace)
	if err != nil {
		return stats.Results{}, err
	}
	opt := core.RunOptions{MaxInsts: spec.Insts, DisableSkip: spec.DisableSkip}
	if getDonor != nil {
		donor, err := getDonor()
		if err != nil {
			return stats.Results{}, err
		}
		return core.RunSampledForked(spec.Config, st, donor, spec.Sample, opt)
	}
	warm, err := openStream(spec.Trace)
	if err != nil {
		return stats.Results{}, err
	}
	return core.RunSampled(spec.Config, st, warm, spec.Sample, opt)
}

// openStream opens a fresh segment stream over tr's workload: over the
// slice of a materialised trace, or from the recipe of a recipe-only
// handle.
func openStream(tr *trace.Trace) (*trace.InstStream, error) {
	if tr == nil {
		return nil, fmt.Errorf("no trace")
	}
	if tr.Len() > 0 {
		return tr.OpenStream(), nil
	}
	if r, ok := tr.Recipe(); ok {
		return r.OpenStream()
	}
	return nil, fmt.Errorf("empty trace")
}

// groupKey identifies the specs that share one warmed donor
// hierarchy: the same trace under the same warm-relevant cache shape,
// warmed the same way. Detailed donors replay the trace's
// WarmFootprint; sampled donors walk the workload's stream up to
// limit instructions (core.SampledWarmLimit), so sampled and detailed
// specs over one trace never share a donor.
type groupKey struct {
	tr      *trace.Trace
	warm    mem.WarmKey
	sampled bool
	limit   int64
}

// warmDonor builds g's donor.
func (g groupKey) warmDonor() (*mem.Hierarchy, error) {
	if !g.sampled {
		return core.WarmDonor(g.warm, g.tr)
	}
	warm, err := openStream(g.tr)
	if err != nil {
		return nil, err
	}
	return core.WarmStreamDonor(g.warm, warm, g.limit)
}

// groupOf returns spec's warm group.
func groupOf(spec RunSpec) groupKey {
	g := groupKey{tr: spec.Trace, warm: mem.WarmKeyFor(spec.Config)}
	if spec.Sample.Enabled() {
		g.sampled = true
		program := false
		if spec.Trace != nil {
			r, ok := spec.Trace.Recipe()
			program = spec.Trace.Code() != nil || ok && r.Kernel == trace.KernelProgram
		}
		g.limit = core.SampledWarmLimit(program, spec.Insts)
	}
	return g
}

// groupSpecs returns every spec's warm group and the execution order:
// first every group's first member (groups in first-appearance order),
// so each group's donor starts warming as early as possible and no
// worker idles on a donor another worker is still building; then the
// remaining members group by group, in spec order, so the donor a
// worker forks is the one most recently touched. Results are still
// reported by spec index, so the reordering is invisible in the output.
func groupSpecs(specs []RunSpec) (groups []groupKey, order []int) {
	first := make(map[groupKey]int)
	groups = make([]groupKey, len(specs))
	var members [][]int
	for i, s := range specs {
		g := groupOf(s)
		gi, ok := first[g]
		if !ok {
			gi = len(members)
			first[g] = gi
			members = append(members, nil)
		}
		groups[i] = g
		members[gi] = append(members[gi], i)
	}
	order = make([]int, 0, len(specs))
	for _, m := range members {
		order = append(order, m[0])
	}
	for _, m := range members {
		order = append(order, m[1:]...)
	}
	return groups, order
}

// Sweep executes every spec over a bounded worker pool and returns the
// results in spec order: results[i] belongs to specs[i] regardless of
// which worker finished it when, so sweep output is deterministic for
// any worker count. The first failing spec cancels the remaining work
// and its error is returned; ctx cancellation stops the sweep early
// with ctx's error.
//
// Specs are grouped by (trace, warm-relevant cache shape) under the
// snapshot-fork kernel: each group warms one donor hierarchy via the
// trace's warm-up footprint and every member forks the donor's cache
// state, so a figure-9-style sweep replays each workload's warm-up once
// per cache geometry instead of once per point. Sampled specs group the
// same way, further keyed by their warm limit: one whole-footprint walk
// over the workload's stream per group (core.WarmStreamDonor), forked
// by every member as its persistent substrate. Execution order is
// leaders first, then group-clustered (see groupSpecs); results stay in
// spec order.
func Sweep(ctx context.Context, specs []RunSpec, opt Options) ([]stats.Results, error) {
	if len(specs) == 0 {
		return nil, ctx.Err()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]stats.Results, len(specs))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	// One donor per warm group, warmed by the first member to need it
	// and forked by every member; groups never outnumber specs, so the
	// memo never drops one mid-sweep.
	groups, order := groupSpecs(specs)
	donors := flight.NewMemo[groupKey, *mem.Hierarchy](len(specs))

	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns a record arena: DynInst blocks grown for
			// one point are reused by every later point it runs.
			arena := core.NewArena()
			for i := range idx {
				if ctx.Err() != nil {
					continue // drain remaining indices after cancellation
				}
				g := groups[i]
				res, err := runSpec(specs[i], func() (*mem.Hierarchy, error) {
					donor, _, err := donors.Do(g, g.warmDonor)
					return donor, err
				}, arena)
				if err != nil {
					fail(err)
					continue
				}
				results[i] = res
				if opt.Progress != nil || opt.OnResult != nil {
					mu.Lock()
					done++
					if opt.Progress != nil {
						opt.Progress(done, len(specs), ProgressLine(specs[i], res))
					}
					if opt.OnResult != nil {
						opt.OnResult(specs[i], res)
					}
					mu.Unlock()
				}
			}
		}()
	}

feed:
	for _, i := range order {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
