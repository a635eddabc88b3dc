package service

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Metrics is the worker daemon's counter set, exposed in Prometheus
// text format at /metrics. Everything here is either a monotonic
// counter (suffix _total) or an instantaneous gauge; all updates are
// atomic, so scrapes never block the simulation path.
type Metrics struct {
	// BatchesSubmitted / BatchesRejected count accepted batches and
	// those refused by admission control (draining or queue bound).
	BatchesSubmitted atomic.Uint64
	BatchesRejected  atomic.Uint64
	// Points counts every submitted point; CachedPoints those answered
	// without simulation by this node (submission hit, in-flight re-check
	// hit, or singleflight share); Simulations actual simulator runs;
	// PointErrors failed points.
	Points       atomic.Uint64
	CachedPoints atomic.Uint64
	Simulations  atomic.Uint64
	PointErrors  atomic.Uint64
	// QueueDepth gauges misses admitted but not yet finished; InFlight
	// gauges runs currently holding a worker slot.
	QueueDepth atomic.Int64
	InFlight   atomic.Int64
	// WarmBuilds / WarmReuses count snapshot-group donors warmed on this
	// node (for its own points or on a peer's request; adopted donors
	// are not builds) vs forks of a donor already in the node's donor
	// memo (see the scheduler's snapshot-fork sharing).
	WarmBuilds atomic.Uint64
	WarmReuses atomic.Uint64
	// Cycles / SkippedCycles total the simulated-cycle and elided-cycle
	// counts over this node's simulator runs (PR 6's event-driven clock
	// skip); their ratio is the node's skip rate.
	Cycles        atomic.Uint64
	SkippedCycles atomic.Uint64
	// RecoveredBatches counts batches re-admitted from the recovery
	// journal after a restart.
	RecoveredBatches atomic.Uint64
}

// Sample is one line of a metric family.
type Sample struct {
	// Labels holds the rendered label pairs without braces, e.g.
	// `node="http://w1"`; empty for an unlabelled sample.
	Labels string
	Value  int64
}

// Val returns the unlabelled sample v.
func Val[T ~int | ~int64 | ~uint64](v T) Sample { return Sample{Value: int64(v)} }

// Flag returns the unlabelled sample 1 for true, 0 for false.
func Flag(b bool) Sample {
	if b {
		return Sample{Value: 1}
	}
	return Sample{}
}

// WriteMetric renders one metric family in Prometheus text exposition
// format: the HELP and TYPE header, then one line per sample. kind is
// "counter" or "gauge". Worker and coordinator /metrics pages are both
// written through it.
func WriteMetric(w io.Writer, kind, name, help string, samples ...Sample) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	for _, s := range samples {
		if s.Labels == "" {
			fmt.Fprintf(w, "%s %d\n", name, s.Value)
		} else {
			fmt.Fprintf(w, "%s{%s} %d\n", name, s.Labels, s.Value)
		}
	}
}

// WriteMetrics renders the scheduler's full metric surface (scheduler
// counters, cache occupancy, donor-exchange counters, drain/readiness
// state) in Prometheus text exposition format.
func (s *Scheduler) WriteMetrics(w io.Writer) {
	m := &s.metrics
	WriteMetric(w, "counter", "ooosim_batches_submitted_total", "Batches accepted by admission control.", Val(m.BatchesSubmitted.Load()))
	WriteMetric(w, "counter", "ooosim_batches_rejected_total", "Batches refused while draining or over the queue bound.", Val(m.BatchesRejected.Load()))
	WriteMetric(w, "counter", "ooosim_points_total", "Simulation points submitted.", Val(m.Points.Load()))
	WriteMetric(w, "counter", "ooosim_points_cached_total", "Points answered without simulation (cache hit or singleflight share).", Val(m.CachedPoints.Load()))
	WriteMetric(w, "counter", "ooosim_simulations_total", "Simulator runs actually executed.", Val(m.Simulations.Load()))
	WriteMetric(w, "counter", "ooosim_point_errors_total", "Points that failed.", Val(m.PointErrors.Load()))
	WriteMetric(w, "gauge", "ooosim_queue_depth", "Misses admitted but not yet finished.", Val(m.QueueDepth.Load()))
	WriteMetric(w, "gauge", "ooosim_inflight_simulations", "Runs currently holding a worker slot.", Val(m.InFlight.Load()))
	WriteMetric(w, "gauge", "ooosim_worker_slots", "Size of the simulation worker pool.", Val(cap(s.sem)))
	WriteMetric(w, "counter", "ooosim_warm_builds_total", "Snapshot-group donors warmed on this node.", Val(m.WarmBuilds.Load()))
	WriteMetric(w, "counter", "ooosim_warm_reuses_total", "Forks of an already-available donor.", Val(m.WarmReuses.Load()))
	WriteMetric(w, "counter", "ooosim_cycles_simulated_total", "Cycles accounted across simulator runs.", Val(m.Cycles.Load()))
	WriteMetric(w, "counter", "ooosim_cycles_skipped_total", "Cycles elided by the event-driven clock skip.", Val(m.SkippedCycles.Load()))
	WriteMetric(w, "gauge", "ooosim_cache_mem_entries", "Results resident in the cache's memory tier.", Val(s.cache.MemLen()))
	WriteMetric(w, "counter", "ooosim_cache_quarantined_total", "Disk cache entries that failed checksum verification and were quarantined.", Val(s.cache.Quarantined()))
	WriteMetric(w, "counter", "ooosim_journal_recovered_batches_total", "Batches re-admitted from the recovery journal after a restart.", Val(m.RecoveredBatches.Load()))
	if s.exchange != nil {
		s.exchange.writeMetrics(w)
	}
	WriteMetric(w, "gauge", "ooosim_draining", "1 while the node is draining (no new batches admitted).", Flag(s.draining.Load()))
	WriteMetric(w, "gauge", "ooosim_ready", "1 while the node admits new batches.", Flag(s.Ready() == nil))
}
