package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// tinyScale shrinks every workload so the self-test runs in seconds.
// Nothing at this scale is pinned: results are checked against local
// recomputation, and sampled references are computed on the spot.
var tinyScale = scale{
	setups:      1,
	serveSetups: 1,
	fig9Insts:   3000,
	progInsts:   40_000,
	progSample:  trace.SampleSpec{Warmup: 1000, Detail: 1000, Period: 10_000},
	serveInsts:  600,
	serveBatch:  4,
	serveRepeat: 0.5,
	refEvery:    50 * time.Millisecond,
	refCycles:   20_000,
}

// runTiny runs one workload at tinyScale; pinned, when non-nil,
// replaces the embedded digests.
func runTiny(t *testing.T, workload string, traced bool, pinned map[string]string) (result, *env, string) {
	t.Helper()
	golden, err := os.ReadFile("../" + goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	e := newEnv(workload, defaultSeed, 300*time.Millisecond, traced, tinyScale, &out)
	e.golden = string(golden)
	if pinned != nil {
		e.chk = newChecker(pinned)
	}
	res, err := execute(context.Background(), e, workloads[workload])
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, e, out.String()
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and traced
// and checks that each named metric is emitted with its unit, that the
// report names the unbounded end-to-end metrics too, and that each
// workload's own layers did measurable work.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	busy := map[string][]string{
		"fig9-sweep":       {"trace.materialise_ms", "mem.warm_count", "mem.fork_ms", "core.run_ms", "sim.sweep_ms", "experiments.figure9_ms"},
		"programs-sampled": {"rv32.stream_kips", "core.sampled_ms", "core.detail_frac", "sim.sweep_ms"},
		"serve-mixed":      {"service.batch_ms", "service.submit_ms", "fleet.batch_ms", "http.bytes_per_point", "core.run_ms"},
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res, _, report := runTiny(t, name, traced, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", name, traced, res.Correct, res.Attempted, res.Failed, report)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), reportOnly...) {
				if !strings.Contains(report, d.name+" ") || !strings.Contains(report, " "+d.unit) {
					t.Errorf("%s: report does not name %s with unit %s:\n%s", name, d.name, d.unit, report)
				}
			}
			if traced {
				for _, m := range busy[name] {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s: per-layer %s = %v, want > 0", name, m, res.Metrics[m].Value)
					}
				}
			}
		}
	}
}

// TestPerturbedDigestCountsAsError pins the digests one run observed,
// flips one, and checks that the next run counts that point as failed.
func TestPerturbedDigestCountsAsError(t *testing.T) {
	_, e, _ := runTiny(t, "fig9-sweep", false, map[string]string{})
	pinned := e.chk.digests()
	for fp, d := range pinned {
		pinned[fp] = "0000000000000000"
		if d == pinned[fp] {
			pinned[fp] = "1111111111111111"
		}
		break
	}
	res, e2, report := runTiny(t, "fig9-sweep", false, pinned)
	if res.Correct || res.Failed < 1 || e2.errorFrac <= 0 {
		t.Fatalf("perturbed digest not counted: correct=%v failed=%d error_frac=%v\n%s", res.Correct, res.Failed, e2.errorFrac, report)
	}
	if !strings.Contains(report, "pinned 0000000000000000") && !strings.Contains(report, "pinned 1111111111111111") {
		t.Errorf("report does not name the mismatch:\n%s", report)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the program emits in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
