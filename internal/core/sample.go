package core

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// sampleState is the long-lived microarchitectural substrate a sampled
// run threads through its detailed windows: the state that takes far
// longer than one window to converge (cache contents, branch-predictor
// tables, BTB targets, JRS confidence counters) and is therefore kept
// alive and functionally warmed across the fast-forward gaps, while
// short-lived pipeline state (queues, rename, in-flight misses) is
// rebuilt per window and re-converged by the discarded warmup portion.
type sampleState struct {
	hier *mem.Hierarchy
	pred branch.Predictor
	btb  *branch.BTB
	conf *branch.Confidence
}

// WarmStreamDonor builds a donor hierarchy for key and warms it for
// sampled runs: the warm walk of warm (a fresh stream over the
// workload) up to limit instructions (0: to its end; see
// SampledWarmLimit), then the wrong-path region. The walk is the one
// behind trace.WarmFootprint, so a sampled point and its full-detail
// reference simulate over a hierarchy that saw the identical warm
// sequence, including the capacity evictions a footprint larger than
// the L2 inflicts on its own oldest lines. A just-in-time per-window
// warm would hide those evictions and read systematically fast.
//
// It is the sampled counterpart of WarmDonor: sweep engines warm one
// per (workload, warm shape, limit) group and hand it to every member's
// RunSampledForked; RunSampled warms a private one per call.
func WarmStreamDonor(key mem.WarmKey, warm *trace.InstStream, limit int64) (*mem.Hierarchy, error) {
	h, err := key.Donor()
	if err != nil {
		return nil, err
	}
	if err := warm.WalkWarm(limit, func(ev trace.WarmEvent) { warmEvent(h, ev) }); err != nil {
		return nil, err
	}
	primeWrongPath(h)
	return h, nil
}

// SampledWarmLimit is how far a sampled run's one-time warm walks its
// stream. Programs warm until the stream ends (0), mirroring full
// detail warming the entire materialised trace regardless of the run
// budget; synthetic streams never end, so they warm what a
// materialised run of this budget would have warmed.
func SampledWarmLimit(program bool, budget uint64) int64 {
	if program {
		return 0
	}
	return int64(trace.LenFor(budget))
}

// newSampleState builds the persistent substrate exactly as a cold CPU
// would: the predictor machinery starts untrained, and hier — a fork
// of a WarmStreamDonor, which window CPUs adopt without warming — is
// the cache state.
func newSampleState(cfg config.Config, st *trace.InstStream, hier *mem.Hierarchy) *sampleState {
	ss := &sampleState{hier: hier}
	if cfg.PerfectBranchPrediction {
		ss.pred = branch.NewPerfect()
	} else {
		ss.pred = branch.NewGshare(cfg.BranchPredictorBits)
	}
	if st.Code() != nil && !cfg.PerfectBranchPrediction {
		ss.btb = branch.NewBTB(config.BTBSets, config.BTBWays)
	}
	if cfg.Commit == config.CommitAdaptive {
		ss.conf = branch.NewConfidence(cfg.AdaptiveConfidenceBits, cfg.AdaptiveConfidenceMax)
	}
	return ss
}

// settle clears the window-local residue the persistent substrate may
// carry between windows: in-flight fill timestamps (absolute cycles of
// the finished window's clock) and BTB resolution marks (positions into
// the finished window's trace).
func (ss *sampleState) settle() {
	ss.hier.Settle()
	if ss.btb != nil {
		ss.btb.ClearResolutions()
	}
}

// fastForward functionally executes up to n instructions from the
// stream: instruction-line and data accesses warm the caches quietly
// (no stats), branches train the predictor, confidence estimator and
// BTB. Returns how many instructions were consumed (< n only at end of
// stream). The predictor's Update counters do move here, but windows
// measure deltas between two snapshots taken inside the detailed
// portion, so fast-forward training never leaks into results.
func (ss *sampleState) fastForward(cfg config.Config, st *trace.InstStream, n uint64) (uint64, error) {
	var done uint64
	lastLine := ^uint64(0)
	for done < n {
		chunk := n - done
		if chunk > 8192 {
			chunk = 8192
		}
		insts, err := st.Peek(int(chunk))
		if err != nil {
			return done, err
		}
		if len(insts) == 0 {
			return done, nil
		}
		for i := range insts {
			in := &insts[i]
			if line := in.PC &^ uint64(trace.WarmLineBytes-1); line != lastLine {
				ss.hier.PrimeFetch(line)
				lastLine = line
			}
			if in.Op.IsMem() {
				ss.hier.WarmData(in.Addr)
			}
			if in.Op == isa.Branch {
				if !cfg.PerfectBranchPrediction {
					correct := ss.pred.Predict(in.PC) == in.Taken
					ss.pred.Update(in.PC, in.Taken)
					if ss.conf != nil {
						ss.conf.Update(in.PC, correct)
					}
				}
				if ss.btb != nil && in.Taken {
					ss.btb.Install(in.PC, in.Target)
				}
			}
		}
		st.Skip(len(insts))
		done += uint64(len(insts))
	}
	return done, nil
}

// RunSampled simulates the stream under the SMARTS sampling protocol:
// per period, simulate Warmup+Detail instructions in full pipeline
// detail on a fresh window CPU that adopts the persistent substrate,
// keeping only the post-warmup portion in the statistics (two
// snapshots of the same CPU, subtracted), then fast-forward the rest
// of the period with functional warming only. warm is a second,
// unconsumed stream over the same workload that warms the run's
// private donor (see WarmStreamDonor); the run then proceeds exactly
// as RunSampledForked over that donor. opt.MaxInsts bounds the total
// stream coverage and must be set for synthetic workloads (their
// streams never end); program streams also stop when the program
// halts. The returned Results carry detail-window statistics only,
// plus the Sampled block with the per-window IPC spread.
func RunSampled(cfg config.Config, st, warm *trace.InstStream, sample trace.SampleSpec, opt RunOptions) (stats.Results, error) {
	if err := checkSampled(cfg, st, sample, opt); err != nil {
		return stats.Results{}, err
	}
	if warm == nil {
		return stats.Results{}, fmt.Errorf("core: RunSampled needs a warm stream (a second stream over the same workload)")
	}
	donor, err := WarmStreamDonor(mem.WarmKeyFor(cfg), warm, SampledWarmLimit(st.Code() != nil, opt.MaxInsts))
	if err != nil {
		return stats.Results{}, err
	}
	return RunSampledForked(cfg, st, donor, sample, opt)
}

// RunSampledForked is RunSampled over a fork of donor instead of a
// private warm: donor must come from WarmStreamDonor over the same
// workload, a configuration with the same mem.WarmKey and
// SampledWarmLimit(program, opt.MaxInsts). Results are then
// bit-identical to RunSampled's. The donor is only read; one donor
// serves any number of concurrent runs.
func RunSampledForked(cfg config.Config, st *trace.InstStream, donor *mem.Hierarchy, sample trace.SampleSpec, opt RunOptions) (stats.Results, error) {
	if err := checkSampled(cfg, st, sample, opt); err != nil {
		return stats.Results{}, err
	}
	hier, err := donor.Fork(cfg)
	if err != nil {
		return stats.Results{}, err
	}
	ss := newSampleState(cfg, st, hier)
	budget := opt.MaxInsts
	arena := NewArena()
	ff := sample.Period - sample.Warmup - sample.Detail

	// Each period opens with its detailed window and fast-forwards the
	// remainder: the first window then starts at stream position zero,
	// so a program's startup phase is sampled in proportion like every
	// other phase instead of hiding inside the first gap. Gap lengths
	// are deterministically staggered around the nominal fast-forward
	// distance so windows cannot alias against periodic program phases
	// (systematic sampling with a fixed stride would measure the same
	// loop position every period and report a confidently wrong mean).
	var total stats.Results
	var samp stats.Sampled
	winIdx := uint64(0)
	for {
		remaining := ^uint64(0)
		if budget > 0 {
			pos := uint64(st.Pos())
			if pos >= budget {
				break
			}
			remaining = budget - pos
		}
		wd := sample.Warmup + sample.Detail
		if wd > remaining {
			wd = remaining
		}
		winLen := trace.LenFor(wd)
		win, err := st.Window(winLen)
		if err != nil {
			return stats.Results{}, err
		}
		if win.Len() == 0 {
			break
		}
		cpu, err := newCPU(cfg, win, ss.hier, arena, ss)
		if err != nil {
			return stats.Results{}, err
		}
		runOpt := RunOptions{
			MaxCycles:      opt.MaxCycles,
			WatchdogCycles: opt.WatchdogCycles,
			DisableSkip:    opt.DisableSkip,
		}
		var warmRes stats.Results
		warmTarget := sample.Warmup
		if winIdx == 0 {
			// The first window starts at stream position zero, where the
			// window CPU's state — cold pipeline, untrained predictor,
			// warmed caches — is identical to the full-detail reference's.
			// There is nothing stale to re-establish, and discarding a
			// warmup here would throw away the program's genuine startup
			// transient (predictor training, first wrong-path misses)
			// that full detail measures; window one is measured whole.
			warmTarget = 0
		}
		if warmTarget > wd {
			warmTarget = wd
		}
		if warmTarget > 0 {
			runOpt.MaxInsts = warmTarget
			warmRes = cpu.Run(runOpt)
		}
		runOpt.MaxInsts = wd
		fullRes := cpu.Run(runOpt)
		cpu.Recycle(arena)
		st.Skip(int(fullRes.Committed))

		measured := fullRes.Sub(warmRes)
		samp.WarmupInsts += warmRes.Committed
		if measured.Committed > 0 && measured.Cycles > 0 {
			samp.SampledInsts += measured.Committed
			samp.AddWindow(measured.IPC())
			total.Merge(measured)
		}
		ss.settle()
		if fullRes.Committed < wd {
			break // window ran out of stream: the program halted
		}

		remaining -= fullRes.Committed
		skip := ff
		if quarter := ff / 4; quarter > 0 {
			// Knuth multiplicative stagger: ff ± 25%, deterministic in
			// the window index so identical points replay identically.
			skip = ff - quarter + (winIdx*2654435761)%(2*quarter)
		}
		winIdx++
		if skip > remaining {
			skip = remaining
		}
		if skip == 0 {
			continue
		}
		skipped, err := ss.fastForward(cfg, st, skip)
		if err != nil {
			return stats.Results{}, err
		}
		samp.FastForwardInsts += skipped
		if skipped < skip {
			break // stream ended inside the gap
		}
	}
	samp.TotalInsts = uint64(st.Pos())
	total.Sampled = &samp
	if total.Name == "" {
		total.Name = fmt.Sprintf("%s/%s", cfg.Commit, st.Name())
	}
	return total, nil
}

// checkSampled rejects what no sampled run can simulate.
func checkSampled(cfg config.Config, st *trace.InstStream, sample trace.SampleSpec, opt RunOptions) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !sample.Enabled() {
		return fmt.Errorf("core: RunSampled without a sample spec")
	}
	if err := sample.Validate(); err != nil {
		return err
	}
	if opt.CollectOccupancy {
		return fmt.Errorf("core: occupancy collection is per-cycle state and cannot be sampled")
	}
	if opt.MaxInsts == 0 && st.Code() == nil {
		return fmt.Errorf("core: sampled synthetic workload %q needs an instruction budget (the stream is unbounded)", st.Name())
	}
	return nil
}
