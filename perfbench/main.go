// Command perfbench is the repository's benchmark: one command runs one
// workload through the simulator stack for a fixed time, checks every
// simulated result, and prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload fig9-sweep --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	fig9-sweep        experiments.Figure9 over materialised synthetic traces
//	programs-sampled  the RV32 programs under SMARTS sampling via sim.Sweep
//	serve-mixed       a closed loop of clients against an in-process fleet
//
// With --trace 0 the last stdout line is a JSON result carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// separate traced run, and the run's spans are written to -out. The lines
// before it are the human-readable report, which also names the metrics
// that are not bounded (error_frac, sampled_ipc_err_pct) and the host
// record. The benchmark is run from the root of a checkout, whose sources
// it reads (the figure-9 golden file).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// goldenPath is the repository's pinned figure-9 rendering, relative to
// the checkout root the benchmark runs from.
const goldenPath = "internal/experiments/testdata/figure9_golden.txt"

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *env) error{
	"fig9-sweep":       runFig9,
	"programs-sampled": runPrograms,
	"serve-mixed":      runServe,
}

func main() {
	workload := flag.String("workload", "", "fig9-sweep, programs-sampled or serve-mixed")
	seed := flag.Int64("seed", defaultSeed, "workload input seed")
	seconds := flag.Int("seconds", 20, "measured time per run")
	traced := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for the run record and spans")
	pin := flag.Bool("pin", false, "recompute the pinned digests and sampled references into perfbench/data (maintenance)")
	flag.Parse()

	if *pin {
		if err := writePins(context.Background(), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: pin:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload fig9-sweep|programs-sampled|serve-mixed, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the checkout root:", err)
		os.Exit(1)
	}
	e := newEnv(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1, productionScale, os.Stdout)
	e.golden = string(golden)
	res, err := execute(context.Background(), e, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := e.writeRecord(*out, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and assembles its result: the host record
// and calibration first, then the workload, then the report.
func execute(ctx context.Context, e *env, run func(context.Context, *env) error) (result, error) {
	e.host = recordHost()
	fmt.Fprintf(e.out, "host: nproc=%d gomaxprocs=%d go=%s cpu=%q calib_ms=%.3f\n",
		e.host.NProc, e.host.GOMAXPROCS, e.host.GoVersion, e.host.CPU, e.host.CalibMS)
	e.set("host.calib_ms", e.host.CalibMS)
	e.ref = newHostRef(workers(), e.sc.refCycles)
	if err := run(ctx, e); err != nil {
		return result{}, fmt.Errorf("%s: %w", e.workload, err)
	}
	attempted, failed := e.chk.totals()
	if attempted == 0 {
		return result{}, fmt.Errorf("%s: no points attempted", e.workload)
	}
	e.errorFrac = float64(failed) / float64(attempted)
	e.report()
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: finite(e.metrics[d.name]), Unit: d.unit}
	}
	return res, nil
}

// writeRecord stores the host record, the result and (traced runs) the
// spans under dir, one file per workload, seed and mode.
func (e *env) writeRecord(dir string, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "untraced"
	if e.traced {
		mode = "traced"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", e.workload, e.seed, mode))
	rec := struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Traced   bool        `json:"traced"`
		Host     host        `json:"host"`
		Result   result      `json:"result"`
		Spans    []span      `json:"spans,omitempty"`
		ErrFrac  float64     `json:"error_frac"`
		Ref      []refSample `json:"host_ref"`
	}{e.workload, e.seed, e.traced, e.host, res, e.tr.spans, e.errorFrac, e.ref.samples}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// workers is the pool size every workload uses: one simulation slot per
// host CPU.
func workers() int { return runtime.NumCPU() }

// logf writes one report line.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.out, format+"\n", args...)
}
