package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa/programs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// testSample is the accuracy-harness sampling regime: a 400k budget at
// 50k periods gives 8 windows — enough for a meaningful CLT interval at
// a pace the race detector tolerates.
var testSample = trace.SampleSpec{Warmup: 2000, Detail: 8000, Period: 50_000}

const testSampleBudget = 400_000

func programRecipe(t *testing.T, name string, budget uint64) trace.Recipe {
	t.Helper()
	spec, ok := programs.Lookup(name)
	if !ok {
		t.Fatalf("unknown program %q", name)
	}
	return trace.Recipe{Kernel: trace.KernelProgram, Program: name, Input: spec.InputFor(budget), Seed: 42}
}

// TestSampledAccuracy is the sampling accuracy harness: for every
// registered program under both a conventional ROB baseline and the
// checkpointed COoO machine, the sampled run's 95% confidence interval
// must cover the full-detail IPC at the same budget. This is the
// statistical contract sampled figures rest on — if it breaks, either
// the functional warming lost state the windows depend on, or the
// window protocol is biased.
func TestSampledAccuracy(t *testing.T) {
	cfgs := []struct {
		label string
		cfg   config.Config
	}{
		{"rob-128", config.BaselineSized(128)},
		{"checkpoint-128/2048", config.CheckpointDefault(128, 2048)},
	}
	for _, name := range programs.Names() {
		for _, c := range cfgs {
			t.Run(name+"/"+c.label, func(t *testing.T) {
				r := programRecipe(t, name, testSampleBudget)
				tr, err := r.Materialise()
				if err != nil {
					t.Fatalf("Materialise: %v", err)
				}
				full, err := Run(RunSpec{Name: name, Config: c.cfg, Trace: tr, Insts: testSampleBudget})
				if err != nil {
					t.Fatalf("full run: %v", err)
				}
				handle, err := trace.StreamOnly(r)
				if err != nil {
					t.Fatalf("StreamOnly: %v", err)
				}
				sampled, err := Run(RunSpec{
					Name: name, Config: c.cfg, Trace: handle,
					Insts: testSampleBudget, Sample: testSample,
				})
				if err != nil {
					t.Fatalf("sampled run: %v", err)
				}
				s := sampled.Sampled
				if s == nil {
					t.Fatal("sampled run returned no Sampled block")
				}
				if s.Windows < 4 {
					t.Fatalf("only %d windows; the harness needs enough for a CI", s.Windows)
				}
				if s.SampledInsts == 0 || s.FastForwardInsts == 0 {
					t.Fatalf("degenerate sampling: %+v", *s)
				}
				gap := math.Abs(full.IPC() - s.IPCMean())
				if ci := s.IPCCI95(); gap > ci {
					t.Errorf("sampled IPC %.4f ± %.4f misses full-detail IPC %.4f (gap %.4f)",
						s.IPCMean(), ci, full.IPC(), gap)
				}
			})
		}
	}
}

// TestSampledDeterministic pins the service contract: two sampled runs
// of one point are byte-identically equal, so cached sampled results
// can answer replays.
func TestSampledDeterministic(t *testing.T) {
	r := programRecipe(t, "isort", 100_000)
	run := func() string {
		handle, err := trace.StreamOnly(r)
		if err != nil {
			t.Fatalf("StreamOnly: %v", err)
		}
		res, err := Run(RunSpec{
			Name: "isort", Config: config.CheckpointDefault(128, 2048), Trace: handle,
			Insts: 100_000, Sample: trace.SampleSpec{Warmup: 500, Detail: 2000, Period: 10_000},
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("sampled runs diverge:\n%s\nvs\n%s", a, b)
	}
}

// TestSampledSweepForkMatchesCold is the sampled half of the
// snapshot-fork contract: every sampled spec a Sweep runs — through one
// shared stream-warmed donor per (workload, geometry, warm limit) group
// — is bit-identical to core.RunSampled warming its own hierarchy from
// two fresh streams, at one and two workers. It covers program and
// synthetic recipes under two cache geometries, and a sweep mixing a
// detailed and a sampled spec over one materialised trace, which must
// warm distinct donors.
func TestSampledSweepForkMatchesCold(t *testing.T) {
	const budget = 60_000
	sample := trace.SampleSpec{Warmup: 500, Detail: 2000, Period: 10_000}
	bigL2 := config.BaselineSized(128)
	bigL2.L2.SizeBytes *= 2
	cfgs := []config.Config{config.BaselineSized(128), config.CheckpointDefault(128, 2048), bigL2}
	recipes := []trace.Recipe{
		programRecipe(t, "hashjoin", budget),
		programRecipe(t, "isort", budget),
		{Kernel: trace.KernelFPMix, N: trace.LenFor(budget), Seed: 42},
	}
	var specs []RunSpec
	for _, r := range recipes {
		handle, err := trace.StreamOnly(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cfgs {
			specs = append(specs, RunSpec{Name: r.WorkloadName(), Config: cfg, Trace: handle, Insts: budget, Sample: sample})
		}
		if r.Kernel != trace.KernelProgram {
			// A synthetic stream warms LenFor(Insts) instructions, so a
			// shorter budget over the same handle is a group of its own.
			specs = append(specs, RunSpec{Name: r.WorkloadName(), Config: cfgs[0], Trace: handle, Insts: budget / 2, Sample: sample})
		}
	}
	// cold runs spec through core.RunSampled over two fresh streams.
	cold := func(spec RunSpec) stats.Results {
		t.Helper()
		st, err := openStream(spec.Trace)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := openStream(spec.Trace)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.RunSampled(spec.Config, st, warm, spec.Sample, core.RunOptions{MaxInsts: spec.Insts})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := make([]stats.Results, len(specs))
	for i, spec := range specs {
		want[i] = cold(spec)
	}
	for _, workers := range []int{1, 2} {
		got, err := Sweep(context.Background(), specs, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, spec := range specs {
			if !got[i].Equal(want[i]) {
				t.Fatalf("workers=%d spec %d (%s / %s): swept sampled result diverged from RunSampled:\n%s\nvs\n%s",
					workers, i, spec.Name, spec.Config.Summary(), got[i].String(), want[i].String())
			}
		}
	}

	t.Run("detailed-and-sampled-over-one-trace", func(t *testing.T) {
		tr, err := trace.Recipe{Kernel: trace.KernelFPMix, N: trace.LenFor(budget), Seed: 7}.Materialise()
		if err != nil {
			t.Fatal(err)
		}
		mixed := []RunSpec{
			{Name: "fpmix", Config: config.BaselineSized(128), Trace: tr, Insts: budget},
			{Name: "fpmix", Config: config.BaselineSized(128), Trace: tr, Insts: budget, Sample: sample},
		}
		if groups, _ := groupSpecs(mixed); groups[0] == groups[1] {
			t.Fatal("a detailed and a sampled spec over one trace share a warm group")
		}
		detailed, err := Run(mixed[0])
		if err != nil {
			t.Fatal(err)
		}
		wantMixed := []stats.Results{detailed, cold(mixed[1])}
		for _, workers := range []int{1, 2} {
			got, err := Sweep(context.Background(), mixed, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := range mixed {
				if !got[i].Equal(wantMixed[i]) {
					t.Fatalf("workers=%d spec %d: swept result diverged from its cold run:\n%s\nvs\n%s",
						workers, i, got[i].String(), wantMixed[i].String())
				}
			}
		}
		if got := wantMixed[1].Sampled; got == nil || got.Windows < 2 {
			t.Fatalf("sampled spec over the materialised trace ran %+v, want several windows", got)
		}
	})
}
