package fleet

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/service"
)

// metrics is the coordinator's counter set, exposed in Prometheus text
// format at /metrics (names prefixed ooosim_fleet_ to keep worker and
// coordinator scrapes distinguishable on one dashboard).
type metrics struct {
	BatchesSubmitted atomic.Uint64
	BatchesRejected  atomic.Uint64
	Points           atomic.Uint64
	PointsDeduped    atomic.Uint64 // cross-batch singleflight shares
	PointErrors      atomic.Uint64
	Reroutes         atomic.Uint64 // points re-bucketed after a node failure
	NodeFailures     atomic.Uint64 // dispatch-time worker failures
	BreakerTrips     atomic.Uint64 // closed→open breaker transitions
	ProbeFailures    atomic.Uint64 // failed health probes, all nodes
	RetryExhausted   atomic.Uint64 // points that ran out of retry budget
	QueueDepth       atomic.Int64
}

// WriteMetrics renders the coordinator's metric surface, including one
// liveness gauge per worker.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	m := &c.metrics
	service.WriteMetric(w, "counter", "ooosim_fleet_batches_submitted_total", "Batches accepted by the coordinator.", service.Val(m.BatchesSubmitted.Load()))
	service.WriteMetric(w, "counter", "ooosim_fleet_batches_rejected_total", "Batches refused while draining or over the queue bound.", service.Val(m.BatchesRejected.Load()))
	service.WriteMetric(w, "counter", "ooosim_fleet_points_total", "Points admitted across all batches.", service.Val(m.Points.Load()))
	service.WriteMetric(w, "counter", "ooosim_fleet_points_deduped_total", "Points that adopted another in-flight submission's result.", service.Val(m.PointsDeduped.Load()))
	service.WriteMetric(w, "counter", "ooosim_fleet_point_errors_total", "Points that failed (simulation error or no workers left).", service.Val(m.PointErrors.Load()))
	service.WriteMetric(w, "counter", "ooosim_fleet_reroutes_total", "Points re-bucketed to a surviving node after a worker failure.", service.Val(m.Reroutes.Load()))
	service.WriteMetric(w, "counter", "ooosim_fleet_node_failures_total", "Worker dispatch failures (failed submission or severed stream).", service.Val(m.NodeFailures.Load()))
	service.WriteMetric(w, "counter", "ooosim_fleet_breaker_trips_total", "Worker circuit breakers tripped open.", service.Val(m.BreakerTrips.Load()))
	service.WriteMetric(w, "counter", "ooosim_fleet_retry_budget_exhausted_total", "Points that failed after exhausting their re-route budget.", service.Val(m.RetryExhausted.Load()))
	service.WriteMetric(w, "gauge", "ooosim_fleet_queue_depth", "Points admitted but not yet finished.", service.Val(m.QueueDepth.Load()))
	service.WriteMetric(w, "gauge", "ooosim_fleet_nodes", "Workers configured.", service.Val(len(c.nodes)))
	service.WriteMetric(w, "gauge", "ooosim_fleet_nodes_ready", "Workers currently accepting work.", service.Val(len(c.readyNodes())))
	up := make([]service.Sample, len(c.nodes))
	probeFails := make([]service.Sample, len(c.nodes))
	for i, n := range c.nodes {
		label := fmt.Sprintf("node=%q", n.url)
		up[i] = service.Flag(n.breaker.Allow())
		up[i].Labels = label
		probeFails[i] = service.Sample{Labels: label, Value: int64(n.probeFails.Load())}
	}
	service.WriteMetric(w, "gauge", "ooosim_fleet_node_up", "Per-worker routability (1 breaker closed or half-open, 0 open).", up...)
	service.WriteMetric(w, "counter", "ooosim_fleet_node_probe_failures_total", "Failed health probes per worker.", probeFails...)
	service.WriteMetric(w, "gauge", "ooosim_fleet_draining", "1 while the coordinator is draining.", service.Flag(c.draining.Load()))
	service.WriteMetric(w, "gauge", "ooosim_fleet_ready", "1 while the coordinator admits new batches.", service.Flag(c.Ready() == nil))
}
