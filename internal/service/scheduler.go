package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SchedulerOptions tunes a Scheduler.
type SchedulerOptions struct {
	// Workers bounds the simulation pool shared across every in-flight
	// batch; <= 0 uses GOMAXPROCS. Cache lookups and event delivery
	// never occupy a worker slot — only actual simulation does.
	Workers int
	// Cache is the result store; nil builds a memory-only cache with
	// DefaultCacheEntries.
	Cache *Cache
	// MaxBatches bounds how many finished batches stay pollable before
	// the oldest are forgotten; <= 0 uses 256.
	MaxBatches int
	// MaxQueue is the admission bound: a batch whose misses would push
	// the number of queued-but-unfinished misses past it is rejected
	// with ErrOverloaded (HTTP 429 + Retry-After), and readiness flips
	// false while the queue is over the bound. <= 0 admits everything.
	MaxQueue int
	// Donors, when non-nil, is the fleet's warm-donor shipping fabric:
	// snapshot-group donors are adopted from their home peer instead of
	// warmed locally, and this node serves its own donors to peers. The
	// exchange shares the scheduler's donor memo.
	Donors *DonorExchange
	// Log, when non-nil, receives one line per completed batch with the
	// batch's cache and snapshot-sharing statistics (cmd/ooosimd wires
	// log.Printf here so operators can see the sharing engage).
	Log func(format string, args ...any)
	// Journal, when non-nil, is the batch recovery log: admitted batches
	// with misses and completed fingerprints are appended so a restarted
	// daemon can re-admit in-flight work (see Scheduler.Recover). Append
	// failures degrade recovery, never the running daemon.
	Journal *Journal
}

// ErrDraining rejects submissions while the scheduler is draining.
var ErrDraining = errors.New("service: draining, not admitting new batches")

// ErrOverloaded rejects submissions that would push the miss queue past
// the admission bound. The HTTP layer maps it to 429 with Retry-After.
var ErrOverloaded = errors.New("service: queue full")

// Scheduler executes batches of Jobs. Submission splits each batch into
// cache hits (answered immediately, no simulation) and misses; misses
// run through the simulator on the shared bounded pool, deduplicated by
// fingerprint so concurrent identical submissions — within one batch or
// across batches — simulate once and share the result.
type Scheduler struct {
	cache  *Cache
	sem    chan struct{}
	flight flight.Group[string, json.RawMessage]
	// traces memoises materialised traces by canonical recipe string,
	// and groups warmed donor hierarchies by snapshot group key, so a
	// batch sweeping many configurations over few workloads generates
	// each workload once and replays its cache warm-up once per
	// geometry. The donor memo is the node's only one: the exchange
	// adopts into it and serves from it.
	traces   *flight.Memo[string, *trace.Trace]
	groups   *flight.Memo[string, donorGroup]
	exchange *DonorExchange
	log      func(format string, args ...any)
	journal  *Journal
	maxQueue int
	metrics  Metrics
	draining atomic.Bool

	// run executes one materialised point; donor is the point's shared
	// warm-state donor hierarchy (nil runs the cold path). Production
	// wires sim.RunForked/sim.Run; tests substitute counting wrappers.
	run func(sim.RunSpec, *mem.Hierarchy) (stats.Results, error)

	book *BatchBook
}

// donorGroup is one snapshot group's entry in the donor memo.
type donorGroup struct {
	donor *mem.Hierarchy
	// adopted is true when the donor was fetched from the group's home
	// peer rather than warmed on this node.
	adopted bool
}

// Memo bounds. 64 recipes at figure sizes is a few hundred MB of
// traces, the most a daemon should pin for workload reuse; donors are a
// few hundred KB each. Distinct recipes are few in practice (a figure
// uses six).
const (
	traceMemoLimit = 64
	donorMemoLimit = 128
)

// NewScheduler builds a scheduler.
func NewScheduler(opt SchedulerOptions) *Scheduler {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := opt.Cache
	if cache == nil {
		cache, _ = NewCache(0, "") // memory-only construction cannot fail
	}
	s := &Scheduler{
		cache:    cache,
		sem:      make(chan struct{}, workers),
		traces:   flight.NewMemo[string, *trace.Trace](traceMemoLimit),
		groups:   flight.NewMemo[string, donorGroup](donorMemoLimit),
		exchange: opt.Donors,
		log:      opt.Log,
		journal:  opt.Journal,
		maxQueue: opt.MaxQueue,
		run: func(spec sim.RunSpec, donor *mem.Hierarchy) (stats.Results, error) {
			if donor == nil {
				return sim.Run(spec)
			}
			return sim.RunForked(spec, donor)
		},
		book: NewBatchBook("b", opt.MaxBatches),
	}
	if s.exchange != nil {
		s.exchange.node = s
	}
	return s
}

// StartDrain flips the scheduler into drain mode: new submissions are
// rejected with ErrDraining, readiness goes false, and in-flight work
// runs to completion. Idempotent.
func (s *Scheduler) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (s *Scheduler) Draining() bool { return s.draining.Load() }

// Drain starts draining and blocks until every admitted miss has
// finished (or ctx expires). The poll interval is coarse; drain is a
// shutdown path, not a hot one.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.StartDrain()
	for s.metrics.QueueDepth.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	return nil
}

// Ready reports why the node should not receive new work (draining, or
// queue over the admission bound); nil means ready. The /readyz
// endpoint and fleet coordinators route on it.
func (s *Scheduler) Ready() error {
	if s.draining.Load() {
		return ErrDraining
	}
	if q := s.metrics.QueueDepth.Load(); s.maxQueue > 0 && q >= int64(s.maxQueue) {
		return fmt.Errorf("%w: %d queued >= bound %d", ErrOverloaded, q, s.maxQueue)
	}
	return nil
}

// Donors returns the scheduler's donor exchange (nil outside a fleet).
func (s *Scheduler) Donors() *DonorExchange { return s.exchange }

// Submit validates and fingerprints every job, registers the batch, and
// returns it with cache hits already completed; misses execute
// asynchronously on the shared pool. An invalid job rejects the whole
// batch (nothing runs). Admission control also rejects atomically: a
// draining scheduler admits nothing (ErrDraining), and a batch whose
// misses would push the queue past MaxQueue is refused (ErrOverloaded)
// before anything is registered — cache hits alone never trip the
// bound, since they cost no simulation.
func (s *Scheduler) Submit(jobs []Job) (*Batch, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("service: empty batch")
	}
	if s.draining.Load() {
		s.metrics.BatchesRejected.Add(1)
		return nil, ErrDraining
	}
	fps := make([]string, len(jobs))
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("service: job %d (%s): %w", i, j.label(), err)
		}
		fp, err := j.Fingerprint()
		if err != nil {
			return nil, fmt.Errorf("service: job %d (%s): %w", i, j.label(), err)
		}
		fps[i] = fp
	}

	// Split hits from misses before admission: only misses queue work.
	hit := make([]json.RawMessage, len(jobs))
	nMisses := 0
	for i := range jobs {
		if raw, ok := s.cache.Get(fps[i]); ok {
			hit[i] = raw
		} else {
			nMisses++
		}
	}
	if s.maxQueue > 0 && nMisses > 0 {
		if q := s.metrics.QueueDepth.Load(); q+int64(nMisses) > int64(s.maxQueue) {
			s.metrics.BatchesRejected.Add(1)
			return nil, fmt.Errorf("%w: %d queued + %d new misses > bound %d",
				ErrOverloaded, q, nMisses, s.maxQueue)
		}
	}
	s.metrics.BatchesSubmitted.Add(1)
	s.metrics.Points.Add(uint64(len(jobs)))
	s.metrics.QueueDepth.Add(int64(nMisses))

	b := s.book.Add(jobs, fps)

	// Complete the hits, then launch the misses clustered by snapshot
	// group — (trace recipe, warm-relevant cache shape) — so jobs that
	// fork the same warm donor tend to run near each other (best-effort:
	// the shared pool admits them in arrival order).
	var misses []int
	groupKeys := make([]string, len(b.jobs))
	for i := range b.jobs {
		if hit[i] != nil {
			s.metrics.CachedPoints.Add(1)
			b.Complete(i, hit[i], true, nil)
		} else {
			misses = append(misses, i)
			groupKeys[i] = snapshotGroupKey(b.jobs[i])
		}
	}
	sort.SliceStable(misses, func(x, y int) bool {
		return groupKeys[misses[x]] < groupKeys[misses[y]]
	})
	// Journal the batch before any miss launches: once admitted, a crash
	// must be able to re-admit it. All-hit batches completed above and
	// need no recovery.
	if s.journal != nil && len(misses) > 0 {
		if err := s.journal.AppendBatch(b.id, b.jobs); err == nil {
			b.MarkJournaled()
		} else if s.log != nil {
			s.log("journal append failed for batch %s: %v", b.id, err)
		}
	}
	for _, i := range misses {
		go s.runJob(b, i, groupKeys[i])
	}
	s.logIfDone(b)
	return b, nil
}

// Recover replays the journal, truncates it, and re-admits every batch
// that was in flight at the last shutdown. Re-admission goes through
// the normal Submit path, so points whose results reached the disk
// cache before the crash come back as hits and only the missing ones
// re-simulate — determinism makes the resumed batch byte-identical to
// what the original would have produced. Returns how many batches were
// re-admitted. A batch Submit refuses (validation drift, admission
// pressure) is re-journaled so the work survives to the next attempt.
func (s *Scheduler) Recover() (requeued int, err error) {
	if s.journal == nil {
		return 0, nil
	}
	pending, completed, err := s.journal.Replay()
	if err != nil {
		return 0, err
	}
	if err := s.journal.Reset(); err != nil {
		return 0, fmt.Errorf("service: journal reset: %w", err)
	}
	for _, rb := range pending {
		if _, err := s.Submit(rb.Jobs); err != nil {
			s.journal.AppendBatch(rb.ID, rb.Jobs)
			if s.log != nil {
				s.log("journal recovery: batch %s not re-admitted: %v", rb.ID, err)
			}
			continue
		}
		requeued++
	}
	s.metrics.RecoveredBatches.Add(uint64(requeued))
	if s.log != nil && (requeued > 0 || len(pending) > 0) {
		s.log("journal recovery: re-admitted %d/%d batch(es), %d point(s) already cached",
			requeued, len(pending), len(completed))
	}
	return requeued, nil
}

// snapshotGroupKey is a job's snapshot-sharing identity, its group's
// donor key: jobs with equal keys fork the same warmed donor hierarchy.
func snapshotGroupKey(j Job) string {
	return DonorKey(j.Trace, mem.WarmKeyFor(j.Config))
}

// countSnapshotGroups counts the distinct snapshot groups in a batch.
func countSnapshotGroups(jobs []Job) int {
	seen := map[string]struct{}{}
	for _, j := range jobs {
		seen[snapshotGroupKey(j)] = struct{}{}
	}
	return len(seen)
}

// logIfDone emits the per-batch completion line once.
func (s *Scheduler) logIfDone(b *Batch) {
	if s.log == nil {
		return
	}
	if line, ok := b.TakeDoneLine(); ok {
		s.log("%s", line)
	}
}

// Batch returns a previously submitted batch by ID.
func (s *Scheduler) Batch(id string) (*Batch, bool) { return s.book.Batch(id) }

// runJob executes one cache miss, whose snapshot group key is group:
// singleflight by fingerprint, then a worker slot, then trace
// materialisation and simulation, then cache fill. The result lands in
// the batch whatever the path. A point that avoided simulation after
// all — the in-flight cache re-check hit, or the flight deduplicated us
// against another submission's run — still reports as cached.
func (s *Scheduler) runJob(b *Batch, i int, group string) {
	defer s.metrics.QueueDepth.Add(-1)
	job, fp := b.jobs[i], b.fps[i]
	lateHit := false
	raw, shared, err := s.flight.Do(fp, func() (json.RawMessage, error) {
		// Re-check under the flight: another submission may have
		// finished (and cached) this point between our Get and here.
		if raw, ok := s.cache.Get(fp); ok {
			lateHit = true
			return raw, nil
		}
		s.sem <- struct{}{}
		s.metrics.InFlight.Add(1)
		defer func() { s.metrics.InFlight.Add(-1); <-s.sem }()
		var tr *trace.Trace
		var donor *mem.Hierarchy
		if job.Sample.Enabled() {
			// Sampled jobs stream: the recipe is handed through as a
			// recipe-only trace handle (never materialised, so the
			// streamed budget cap applies instead of MaxRecipeInsts).
			// No group donor is taken from the memo: each sampled point
			// warms a private one by replaying the whole-footprint warm
			// walk over a second stream (core.RunSampled), unlike
			// sim.Sweep, which shares one per group.
			var err error
			if tr, err = trace.StreamOnly(job.Trace); err != nil {
				return nil, err
			}
		} else {
			var err error
			if tr, err = s.trace(job.Trace); err != nil {
				return nil, err
			}
			// Fork the job's snapshot group's warmed donor instead of
			// replaying the warm-up per point; a donor failure degrades to
			// the cold path (never fails the job).
			if g, built, err := s.warmDonor(group, job.Trace, mem.WarmKeyFor(job.Config), tr, true); err == nil {
				donor = g.donor
				// For the batch an adopted donor is a reuse: it was warmed
				// elsewhere. The node counter counts only forks of a donor
				// that was already in the memo.
				b.warmShared(!built || g.adopted)
				if !built {
					s.metrics.WarmReuses.Add(1)
				}
			}
		}
		s.metrics.Simulations.Add(1)
		res, err := s.run(sim.RunSpec{
			Name:             job.label(),
			Config:           job.Config,
			Trace:            tr,
			Insts:            job.Insts,
			CollectOccupancy: job.CollectOccupancy,
			Sample:           job.Sample,
		}, donor)
		if err != nil {
			return nil, err
		}
		s.metrics.Cycles.Add(uint64(res.Cycles))
		s.metrics.SkippedCycles.Add(uint64(res.SkippedCycles))
		raw, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		if err := s.cache.Put(fp, raw); err != nil {
			// A cache-fill failure (disk full, permissions) must not
			// fail the run: the result is in hand.
			return raw, nil
		}
		return raw, nil
	})
	cached := err == nil && (shared || lateHit)
	if cached {
		s.metrics.CachedPoints.Add(1)
	}
	if err != nil {
		s.metrics.PointErrors.Add(1)
	}
	if s.journal != nil && err == nil && !shared && !lateHit {
		// This flight actually simulated and filled the cache: record the
		// fingerprint so recovery knows the point is durable.
		s.journal.AppendPoint(fp)
	}
	b.Complete(i, raw, cached, err)
	if s.journal != nil && b.TakeJournalDone() {
		s.journal.AppendBatchDone(b.id)
	}
	s.logIfDone(b)
}

// trace returns r's materialised trace from the trace memo.
func (s *Scheduler) trace(r trace.Recipe) (*trace.Trace, error) {
	tr, _, err := s.traces.Do(r.String(), r.Materialise)
	return tr, err
}

// warmDonor returns the donor of the snapshot group with donor key key,
// recipe r and warm shape warm from the donor memo. The first caller
// produces it: adopted from the group's home peer when adopt is set and
// a donor exchange is attached, otherwise warmed here over tr (nil
// materialises r). A failed build stays failed until the memo drops it;
// callers run the group cold. built is true for the producing caller.
func (s *Scheduler) warmDonor(key string, r trace.Recipe, warm mem.WarmKey, tr *trace.Trace, adopt bool) (g donorGroup, built bool, err error) {
	return s.groups.Do(key, func() (donorGroup, error) {
		if adopt && s.exchange != nil {
			if donor := s.exchange.adopt(key, DonorSpec{Trace: r, Warm: warm}); donor != nil {
				return donorGroup{donor: donor, adopted: true}, nil
			}
		}
		if tr == nil {
			var err error
			if tr, err = s.trace(r); err != nil {
				return donorGroup{}, err
			}
		}
		donor, err := core.WarmDonor(warm, tr)
		if err != nil {
			return donorGroup{}, err
		}
		s.metrics.WarmBuilds.Add(1)
		return donorGroup{donor: donor}, nil
	})
}
