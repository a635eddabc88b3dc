package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// defaultSeed is the --seed default; its digests are pinned alongside
// those of heldOutSeed, which no tuning of the benchmark used.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// metricDef names one reported metric, its unit and which direction is
// better.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the bounded metrics every workload reports with --trace 0.
var endToEnd = []metricDef{
	{"kips", "kinst/s", "higher"},
	{"points_per_s", "1/s", "higher"},
	{"batch_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// End-to-end metrics printed on the report lines but not in the result:
// batch_p99_ms spreads more from run to run on a shared host than the
// largest bound allows, error_frac is 0 on every correct run (the
// result's failed/attempted carry it), and sampled_ipc_err_pct is
// simulated and exists only where points are sampled (the traced result
// carries it).
var (
	p99Metric          = metricDef{"batch_p99_ms", "ms", "lower"}
	errorFracMetric    = metricDef{"error_frac", "ratio", "lower"}
	sampledErrorMetric = metricDef{"sampled_ipc_err_pct", "%", "lower"}
	reportOnly         = []metricDef{p99Metric, errorFracMetric, sampledErrorMetric}
)

// perLayer are the metrics of the traced run. A layer that does no work
// on a workload reports 0.
var perLayer = []metricDef{
	{"trace.materialise_ms", "ms", "lower"},
	{"rv32.stream_kips", "kinst/s", "higher"},
	{"mem.warm_ms", "ms", "lower"},
	{"mem.warm_count", "count", "lower"},
	{"mem.fork_ms", "ms", "lower"},
	{"mem.fork_count", "count", "lower"},
	{"mem.dl1_miss_frac", "ratio", "lower"},
	{"mem.l2_miss_frac", "ratio", "lower"},
	{"core.run_ms", "ms", "lower"},
	{"core.ns_per_cycle", "ns", "lower"},
	{"core.ns_per_inst", "ns", "lower"},
	{"core.skipped_cycle_frac", "ratio", "higher"},
	{"core.wrongpath_fetch_frac", "ratio", "lower"},
	{"core.replay_per_inst", "ratio", "lower"},
	{"core.allocs_per_kinst", "1/kinst", "lower"},
	{"core.sampled_ms", "ms", "lower"},
	{"core.detail_frac", "ratio", "lower"},
	{"sampled_ipc_err_pct", "%", "lower"},
	{"sim.sweep_ms", "ms", "lower"},
	{"sim.busy_frac", "ratio", "higher"},
	{"sim.groups", "count", "lower"},
	{"sim.forks_per_warm", "ratio", "higher"},
	{"experiments.figure9_ms", "ms", "lower"},
	{"experiments.self_ms", "ms", "lower"},
	{"service.submit_ms", "ms", "lower"},
	{"service.batch_ms", "ms", "lower"},
	{"service.hit_frac", "ratio", "higher"},
	{"service.warm_builds", "count", "lower"},
	{"service.warm_reuses", "count", "higher"},
	{"service.donors_adopted", "count", "higher"},
	{"fleet.batch_ms", "ms", "lower"},
	{"fleet.overhead_ms", "ms", "lower"},
	{"fleet.shard_skew", "ratio", "lower"},
	{"fleet.reroutes", "count", "lower"},
	{"fleet.point_errors", "count", "lower"},
	{"http.bytes_per_point", "B", "lower"},
	{"tracing.overhead_pct", "%", "lower"},
	{"host.calib_ms", "ms", "lower"},
	{"host.ref_ms", "ms", "lower"},
}

// scale sizes every workload. productionScale is what the benchmark
// measures and what the pinned data covers; the self-test shrinks it.
type scale struct {
	setups      int // set-up repetitions; setup_s is their median
	serveSetups int // fleet boots, sub-millisecond each, so more of them
	fig9Insts   uint64
	progInsts   uint64
	progSample  trace.SampleSpec
	serveInsts  uint64
	serveBatch  int
	serveRepeat float64       // share of batch points that repeat an earlier point
	refEvery    time.Duration // serve-mixed: serving time between host reference runs
	refCycles   int           // host reference cycles per core and measurement
}

var productionScale = scale{
	setups:      15,
	serveSetups: 25,
	fig9Insts:   60_000,
	progInsts:   experiments.DefaultSampledInsts,
	progSample:  trace.DefaultSample(),
	serveInsts:  1_500,
	serveBatch:  8,
	serveRepeat: 0.5,
	refEvery:    time.Second,
	refCycles:   6_000_000,
}

// progConfigs are the figure-9 configurations programs-sampled runs: the
// two of the paper's headline comparison, the largest checkpointed
// machine and the 128-entry ROB.
func progConfigs() []config.Config {
	return []config.Config{
		config.CheckpointDefault(128, 2048),
		config.BaselineSized(128),
	}
}

// progSeeds is the pool of program data seeds; --seed picks from it, so the
// full-detail references and digests of every seed are pinned.
var progSeeds = []uint64{42, 7, 1234, 99}

// env is one run's state: inputs, tracer, checker and metrics.
type env struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	sc       scale
	out      io.Writer
	golden   string
	pins     pins

	host      host
	ref       *hostRef
	tr        *tracer
	chk       *checker
	metrics   map[string]float64
	notes     map[string]string
	errorFrac float64
	// sampledErr is the worst sampled-vs-full-detail IPC gap in percent;
	// negative when the workload samples nothing.
	sampledErr float64
}

func newEnv(workload string, seed int64, dur time.Duration, traced bool, sc scale, out io.Writer) *env {
	p := loadPins()
	return &env{
		workload:   workload,
		seed:       seed,
		dur:        dur,
		traced:     traced,
		sc:         sc,
		out:        out,
		pins:       p,
		tr:         newTracer(traced),
		chk:        newChecker(p.Digests),
		metrics:    map[string]float64{},
		notes:      map[string]string{},
		sampledErr: -1,
	}
}

func (e *env) set(name string, v float64) { e.metrics[name] = v }

// minIters is how many sweeps a run makes however short its time: one,
// or two when traced, whose odd iterations are the traced ones.
func (e *env) minIters() int {
	if e.traced {
		return 2
	}
	return 1
}

// note annotates a metric on its report line (e.g. a sample count);
// notes on one metric accumulate.
func (e *env) note(name, format string, args ...any) {
	n := fmt.Sprintf(format, args...)
	if old := e.notes[name]; old != "" {
		n = old + "; " + n
	}
	e.notes[name] = n
}

// report prints every end-to-end metric by name and unit, then (traced
// runs) every per-layer metric and the span self-time table.
func (e *env) report() {
	attempted, failed := e.chk.totals()
	e.logf("%s seed=%d traced=%v: %d points attempted, %d failed", e.workload, e.seed, e.traced, attempted, failed)
	for _, p := range e.chk.problems() {
		e.logf("  FAILED %s", p)
	}
	line := func(d metricDef, v string) {
		v += " " + d.unit
		if n := e.notes[d.name]; n != "" {
			v += " (" + n + ")"
		}
		e.logf("  %-26s %s", d.name, v)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), p99Metric) {
		line(d, fmt.Sprintf("%.6g", e.metrics[d.name]))
	}
	line(errorFracMetric, fmt.Sprintf("%.6g", e.errorFrac))
	if e.sampledErr >= 0 {
		line(sampledErrorMetric, fmt.Sprintf("%.6g", e.sampledErr))
	} else {
		line(sampledErrorMetric, "n/a (no sampled points)")
	}
	if !e.traced {
		return
	}
	e.logf("per-layer (traced run):")
	for _, d := range perLayer {
		line(d, fmt.Sprintf("%.6g", e.metrics[d.name]))
	}
	e.logf("span self time (ms, whole run):")
	for _, s := range e.tr.summary() {
		e.logf("  %-24s n=%-6d total=%-12.3f self=%.3f", s.name, s.n, s.totalMS, s.selfMS)
	}
}

// inputSeed derives a workload's generator seed from --seed and a
// stream label, so workloads draw independent inputs from one seed.
func inputSeed(seed int64, stream string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return splitmix64(uint64(seed) ^ h.Sum64())
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pick returns seed's member of a pool (non-negative modulus).
func pick[T any](pool []T, seed int64) T {
	i := seed % int64(len(pool))
	if i < 0 {
		i += int64(len(pool))
	}
	return pool[i]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the nearest-rank q-quantile of v (0 when empty).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// finite maps NaN and infinities (empty ratios) to 0 so the result
// stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
