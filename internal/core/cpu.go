package core

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/fu"
	"repro/internal/isa"
	"repro/internal/isa/rv32"
	"repro/internal/lsq"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/rename"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vreg"
)

// consumerRef is one wakeup registration: a waiting instruction plus the
// Seq it had when it registered. Records recycle (see DynInst), so the
// Seq is re-checked at wake time — a mismatch means the slot was reused
// by a younger instruction and the registration is stale.
type consumerRef struct {
	d   *DynInst
	seq uint64
}

// CPU is one simulated processor instance bound to a workload trace.
// Construct with New; drive with Run. A CPU is single-use per Run — the
// harness builds a fresh CPU per configuration point.
type CPU struct {
	cfg  config.Config
	tr   *trace.Trace
	hier *mem.Hierarchy
	pred branch.Predictor
	fus  *fu.Pool
	rt   *rename.Table
	intQ *queue.IQ[*DynInst]
	fpQ  *queue.IQ[*DynInst]
	lq   *lsq.LSQ

	// policy is the retirement engine selected by cfg.Commit; it owns
	// the commit-side structures (ROB, checkpoint table, pseudo-ROB,
	// oracle window) behind the CommitPolicy seam.
	policy CommitPolicy

	// sliq is the slow lane of the issue-queue hierarchy: built by the
	// checkpoint-family policies, nil elsewhere. It stays on the CPU
	// because the shared wakeup paths (writeback, squash, drain) thread
	// through it.
	sliq *queue.SLIQ[*DynInst]

	// pool recycles DynInst records (see the contract on DynInst). It
	// points into the caller's Arena when one was supplied (records then
	// survive across the sweep points a worker runs), or at a private
	// pool otherwise.
	pool *instPool

	// Virtual-register extension (Figure 14); nil when disabled.
	vt           *vreg.Tracker
	deferredBind []*DynInst
	// archReleased makes the release of each logical register's
	// architectural initial value idempotent across rollback replays.
	archReleased [isa.NumLogical]bool

	// Program-backed workloads: code is the trace's static image (nil
	// for synthetic kernels) and btb the branch-target buffer keyed by
	// real fetch PCs (nil under perfect prediction, which needs no
	// target prediction). wpStart/wpBase locate the wrong-path fetch
	// stream inside the image: the static index fetch diverged to, and
	// the wpCounter value at divergence (see nextWrongPathInst).
	code    *rv32.Image
	btb     *branch.BTB
	wpStart int
	wpBase  uint64

	// sampleConf is the persistent JRS confidence estimator a sampled
	// run's windows share (nil outside sampled runs); the adaptive
	// commit policy adopts it instead of building a fresh one, so
	// confidence training survives across windows like the predictor.
	sampleConf *branch.Confidence

	// Time and fetch state.
	now           int64
	fetchPos      int64
	nextSeq       uint64
	fetchResumeAt int64
	divergedAt    *DynInst // unresolved mispredicted branch (wrong path active)
	wpCounter     uint64
	lastLoadAddr  uint64

	// Scoreboard.
	regReady  []bool
	longTaint []bool
	consumers [][]consumerRef
	producer  []*DynInst

	completions eventWheel

	// Exception injection, indexed by trace position (lazily allocated
	// on the first InjectExceptionAt — the hot path then skips it with
	// one nil check instead of the former per-dispatch map lookups):
	// 1 = armed, raises on completion; 2 = replay, checkpoint and
	// deliver precisely.
	exceptArm  []uint8
	exceptions uint64
	// knownBranch marks trace positions of branches whose misprediction
	// caused a checkpoint rollback; on replay their resolved direction
	// is known to the recovery hardware. Lazily allocated on the first
	// rollback (ROB mode never pays for it).
	knownBranch []bool

	// Counters.
	inflight          int
	liveFPLong        int
	liveFPShort       int
	sumInflight       uint64
	maxInflight       int
	committed         uint64
	fetched           uint64
	dispatched        uint64
	issued            uint64
	replayed          uint64
	rollbacks         uint64
	probRecoveries    uint64
	ckptStallCycles   uint64
	renameStallCycles uint64
	retire            stats.Breakdown
	occ               *stats.Occupancy
	stalls            dispatchStalls
	// policyActivity counts commit-policy state changes that move no
	// other CPU counter (today: checkpoint takes). The clock skip's
	// quiescence probe watches it so two outwardly identical stall
	// cycles with different policy state can never be conflated.
	policyActivity uint64

	portsUsed int // data-cache ports consumed this cycle
	// resourceStalled marks a dispatch rejection on a resource that
	// only recycles at checkpoint commit (registers, tags, LSQ); the
	// front end then takes an emergency checkpoint to close the window
	// (deadlock avoidance, see dispatchStage).
	resourceStalled bool

	// issueRetry is the issue stage's scratch list of entries popped
	// but not issued this cycle (structural hazards); kept on the CPU
	// so the per-cycle loop never allocates it.
	issueRetry []*queue.IQEntry[*DynInst]
	// sliqAccept is the bound SLIQ drain callback, built once so the
	// per-cycle drain doesn't allocate a closure.
	sliqAccept func(seq uint64, d *DynInst) bool

	lastCommitCycle int64

	// Event-driven clock skip (see maybeSkip): the arm-probe state plus
	// the counters reported in stats.Results. The skip is a pure
	// simulator-speed optimisation — every simulated statistic is
	// bit-identical with it disabled (pinned by the skip equivalence
	// tests and TestFigure9Golden).
	skipPrevSig   uint64
	skipArmed     bool
	skipSnap      skipSnap
	skippedCycles uint64
	skipEvents    uint64
	longestSkip   uint64
}

// skipSnap is the end-of-cycle snapshot behind the clock skip's
// arm-probe protocol: taken when a cycle ends with the activity
// signature unchanged, diffed at the next cycle's end — the diff is
// then exactly that one cycle's footprint.
type skipSnap struct {
	fetched, dispatched, issued, committed        uint64
	replayed, rollbacks, probRecoveries           uint64
	exceptions, policyActivity, nextSeq           uint64
	wpCounter, renameStallCycles, ckptStallCycles uint64
	inflight, liveFPLong, liveFPShort             int
	lastCommitCycle, fetchResumeAt, fetchPos      int64
	wheelLen                                      int
	retire                                        stats.Breakdown
	stalls                                        dispatchStalls
	sliq                                          queue.SLIQStats
	mem                                           mem.HierarchyStats
}

// dispatchStalls breaks down why dispatch groups ended early (counted
// per rejected instruction attempt).
type dispatchStalls struct {
	ROB, IQ, LSQ, Rename, Ckpt, VTag uint64
	FetchGate                        uint64 // cycles the front end was redirected/stalled
}

// New builds a CPU for the given configuration and workload, warming
// its memory hierarchy by replaying the trace's warm-up footprint.
func New(cfg config.Config, tr *trace.Trace) (*CPU, error) {
	return newCPU(cfg, tr, nil, nil, nil)
}

// NewForked builds a CPU whose memory hierarchy starts from donor's
// warmed cache contents instead of replaying the trace's warm-up
// footprint: the fork half of the snapshot-fork sweep kernel. The donor
// must have been produced by WarmDonor (or equivalent warm-up replay)
// over the same trace and a configuration with the same mem.WarmKey;
// forked and cold-started CPUs are then bit-identical (pinned by
// TestForkedWarmMatchesCold). The donor itself is only read — one donor
// serves any number of concurrent forks. arena, when non-nil, supplies
// the CPU's record pool (see Arena); nil uses a private pool.
func NewForked(cfg config.Config, tr *trace.Trace, donor *mem.Hierarchy, arena *Arena) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hier, err := donor.Fork(cfg)
	if err != nil {
		return nil, err
	}
	return newCPU(cfg, tr, hier, arena, nil)
}

// Arena owns a DynInst record pool that outlives a single CPU: a sweep
// worker hands the same Arena to every point it runs, so the record
// blocks grown for one point serve every later one instead of being
// re-allocated per point (construction churn was a visible slice of the
// sweep's profile). Records are zeroed on recycle, so nothing of a
// finished CPU leaks into — or stays pinned by — the next. An Arena is
// single-owner: never share one across concurrently running CPUs.
type Arena struct {
	pool    instPool
	chassis map[chassisKey]*chassis
}

// NewArena returns an empty record arena.
func NewArena() *Arena { return &Arena{} }

// chassis is a CPU's recyclable allocation skeleton: the scoreboard
// arrays and the completion wheel, whose per-point construction (and
// collection) was a measurable slice of sweep time. Recycle parks a
// finished CPU's skeleton in the Arena; newCPU adopts a parked one of
// the same shape and resets it.
type chassis struct {
	regReady   []bool
	longTaint  []bool
	consumers  [][]consumerRef
	producer   []*DynInst
	wheel      eventWheel
	issueRetry []*queue.IQEntry[*DynInst]
}

// chassisKey is the shape a chassis fits: the physical register space
// and the event ring size.
type chassisKey struct {
	phys, wheelSlots int
}

// takeChassis removes and resets a parked chassis of the given shape,
// or returns nil.
func (a *Arena) takeChassis(phys, wheelSlots int) *chassis {
	ch, ok := a.chassis[chassisKey{phys, wheelSlots}]
	if !ok {
		return nil
	}
	delete(a.chassis, chassisKey{phys, wheelSlots})
	clear(ch.regReady)
	clear(ch.longTaint)
	clear(ch.producer)
	for i := range ch.consumers {
		// Keep the grown backing arrays — re-registering consumers is
		// exactly what the next point will do. Stale refs beyond the
		// truncation point only reference pool-owned records.
		ch.consumers[i] = ch.consumers[i][:0]
	}
	ch.wheel.recycle()
	ch.issueRetry = ch.issueRetry[:0]
	return ch
}

// Recycle parks the CPU's allocation skeleton in the arena for the next
// point of the same shape. The CPU must not be used afterwards; callers
// that still need results must collect them first. No-op for nil arenas
// and virtual-register CPUs (their skeletons are shaped differently and
// their records are unpooled).
func (c *CPU) Recycle(a *Arena) {
	if a == nil || c.vt != nil {
		return
	}
	if a.chassis == nil {
		a.chassis = map[chassisKey]*chassis{}
	}
	key := chassisKey{len(c.regReady), len(c.completions.buckets)}
	a.chassis[key] = &chassis{
		regReady:   c.regReady,
		longTaint:  c.longTaint,
		consumers:  c.consumers,
		producer:   c.producer,
		wheel:      c.completions,
		issueRetry: c.issueRetry,
	}
	c.regReady, c.longTaint, c.consumers, c.producer = nil, nil, nil, nil
	c.completions = eventWheel{}
	c.issueRetry = nil
}

// WarmDonor builds a donor hierarchy for key and replays tr's warm-up
// footprint through it — exactly the warm state New gives a cold CPU of
// any configuration whose mem.WarmKeyFor matches key. Sweep engines
// call it once per (trace, warm shape) group and fork the result to
// every member point, so a sweep warms each trace once per cache
// geometry instead of once per point.
func WarmDonor(key mem.WarmKey, tr *trace.Trace) (*mem.Hierarchy, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	h, err := key.Donor()
	if err != nil {
		return nil, err
	}
	warmHierarchy(h, tr)
	return h, nil
}

// warmHierarchy replays the trace's cache warm-up footprint plus the
// wrong-path fetch region through h. Cold construction and donor
// warming share this exact sequence; determinism of the snapshot-fork
// kernel depends on it. Cold misses are an artefact of short runs (see
// mem.Hierarchy.PrimeFetch); the footprint is computed once per trace
// and shared across every CPU built over it (trace.WarmFootprint).
func warmHierarchy(h *mem.Hierarchy, tr *trace.Trace) {
	for _, ev := range tr.WarmFootprint() {
		warmEvent(h, ev)
	}
	primeWrongPath(h)
}

// warmEvent replays one warm-up event through h.
func warmEvent(h *mem.Hierarchy, ev trace.WarmEvent) {
	if ev.Fetch {
		h.PrimeFetch(ev.Addr)
	} else {
		h.WarmData(ev.Addr)
	}
}

// primeWrongPath primes the IL1 lines of the synthetic wrong-path PC
// region (see nextWrongPathInst): the last step of every warm-up, cold,
// donor or sampled.
func primeWrongPath(h *mem.Hierarchy) {
	for pc := uint64(wrongPathBase); pc < wrongPathBase+wrongPathInsts*4; pc += trace.WarmLineBytes {
		h.PrimeFetch(pc)
	}
}

// newCPU builds the pipeline around hier; nil hier builds and warms a
// fresh hierarchy (the cold path). A non-nil hier is adopted as-is: the
// CPU takes sole ownership and mutates it for the rest of its life, so
// callers must hand each CPU its own Fork/Clone and never reuse it
// (the same single-owner contract as the pooled DynInst records) —
// except under adopt, where the sampled-run driver deliberately threads
// one long-lived substrate through a strictly sequential series of
// window CPUs. A non-nil adopt substitutes the persistent predictor,
// BTB and confidence estimator for freshly built ones (hier must then
// be adopt's hierarchy).
func newCPU(cfg config.Config, tr *trace.Trace, hier *mem.Hierarchy, arena *Arena, adopt *sampleState) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	if hier == nil {
		hier = mem.NewHierarchy(cfg)
		warmHierarchy(hier, tr)
	}

	physSpace := cfg.PhysRegs
	if cfg.VirtualRegisters {
		// In virtual-register mode real register pressure is enforced
		// by the vreg tracker; the rename table is only the simulator's
		// dependence-tracking namespace. Its entries recycle at
		// checkpoint commit (later than tag release), so size it far
		// beyond any reachable in-flight count.
		physSpace = 8192 + 2*cfg.VirtualTags
	}

	pool := &instPool{}
	if arena != nil && !cfg.VirtualRegisters {
		// Virtual-register mode disables pooling (see below); it must
		// not flip the shared arena's mode, so it keeps a private pool.
		pool = &arena.pool
	}
	c := &CPU{
		cfg:  cfg,
		tr:   tr,
		pool: pool,
		hier: hier,
		fus:  fu.NewPool(cfg),
		rt:   rename.New(physSpace),
		intQ: queue.NewIQ[*DynInst](cfg.IntQueueEntries),
		fpQ:  queue.NewIQ[*DynInst](cfg.FPQueueEntries),
		lq:   lsq.New(cfg.LSQEntries),
	}
	// Size the event ring to the longest schedulable completion distance
	// (a memory-missing load issued behind the slowest functional unit);
	// anything longer still works via the far-heap spillover.
	wheelSlots := eventWheelSlots(cfg.MemoryLatency + cfg.IL1.LatencyCycles +
		cfg.DL1.LatencyCycles + cfg.L2.LatencyCycles + cfg.IntDiv.Latency + 64)
	if arena != nil && !cfg.VirtualRegisters {
		if ch := arena.takeChassis(physSpace, wheelSlots); ch != nil {
			c.regReady, c.longTaint = ch.regReady, ch.longTaint
			c.consumers, c.producer = ch.consumers, ch.producer
			c.completions = ch.wheel
			c.issueRetry = ch.issueRetry
		}
	}
	if c.regReady == nil {
		c.regReady = make([]bool, physSpace)
		c.longTaint = make([]bool, physSpace)
		c.consumers = make([][]consumerRef, physSpace)
		c.producer = make([]*DynInst, physSpace)
		c.completions = newEventWheel(wheelSlots)
	}
	for l := 0; l < isa.NumLogical; l++ {
		c.regReady[c.rt.Lookup(isa.Reg(l))] = true
	}
	c.code = tr.Code()
	if adopt != nil {
		c.pred = adopt.pred
		c.btb = adopt.btb
		c.sampleConf = adopt.conf
	} else {
		if cfg.PerfectBranchPrediction {
			c.pred = branch.NewPerfect()
		} else {
			c.pred = branch.NewGshare(cfg.BranchPredictorBits)
		}
		if c.code != nil && !cfg.PerfectBranchPrediction {
			c.btb = branch.NewBTB(config.BTBSets, config.BTBWays)
		}
	}

	build, ok := commitPolicyFactories[cfg.Commit]
	if !ok {
		// Validate already guards this; a policy registered in config
		// but not in core is a wiring bug worth a clear error.
		return nil, fmt.Errorf("core: no commit policy registered for %q", cfg.Commit)
	}
	c.policy = build(c)
	if cfg.VirtualRegisters {
		c.vt = vreg.New(cfg.VirtualTags, cfg.PhysRegs, isa.NumLogical)
		// prevProd links outlive commit in this mode; records must not
		// recycle (see DynInst).
		c.pool.disabled = true
	}
	c.lastLoadAddr = 1 << 20
	if c.sliq != nil {
		c.sliqAccept = c.acceptFromSLIQ
	}
	return c, nil
}

// RunOptions bounds a simulation.
type RunOptions struct {
	// MaxInsts stops the run after committing this many instructions
	// (0 means the full trace).
	MaxInsts uint64
	// MaxCycles is a hard cycle bound (0 means 100M).
	MaxCycles int64
	// CollectOccupancy enables the full occupancy distribution needed
	// by Figure 7 (slightly more memory; negligible time).
	CollectOccupancy bool
	// WatchdogCycles panics if no instruction commits for this many
	// cycles (0 means 2M); it exists to catch simulator deadlocks.
	WatchdogCycles int64
	// DisableSkip forces cycle-by-cycle execution, switching off the
	// event-driven clock skip. Results are bit-identical either way —
	// the knob exists for A/B debugging when a future change is
	// suspected of breaking skip equivalence, and therefore never
	// enters result fingerprints.
	DisableSkip bool
}

// InjectExceptionAt arms a precise exception at the given trace
// position: the instruction raises when it first completes, the
// processor rolls back to its checkpoint and re-executes with a
// checkpoint placed exactly before it (the paper's two-pass protocol).
// Checkpoint-family policies only (a no-op under rob and oracle, which
// model no replay mechanism); must be called before Run.
func (c *CPU) InjectExceptionAt(pos int64) {
	if c.exceptArm == nil {
		c.exceptArm = make([]uint8, c.tr.Len())
	}
	c.exceptArm[pos] = 1
}

// exceptPhase returns the exception protocol phase armed at pos (0 when
// none).
func (c *CPU) exceptPhase(pos int64) uint8 {
	if c.exceptArm == nil || pos < 0 {
		return 0
	}
	return c.exceptArm[pos]
}

// branchResolved reports whether the branch at trace position pos
// (fetch PC pc) replays with a known resolution after a checkpoint
// rollback. Program-backed traces carry the resolution in the BTB entry
// of the branch's fetch PC, with the positional table as the fallback
// for resolutions the BTB has since displaced; synthetic traces (whose
// branches have no real PCs) use the positional table alone.
func (c *CPU) branchResolved(pos int64, pc uint64) bool {
	if pos < 0 {
		return false
	}
	if c.btb != nil && c.btb.ResolvedAt(pc) == pos {
		return true
	}
	return c.knownBranch != nil && c.knownBranch[pos]
}

// knownAt records a rollback-resolved branch position in the positional
// table.
func (c *CPU) knownAt(pos int64) {
	if pos < 0 {
		return
	}
	if c.knownBranch == nil {
		c.knownBranch = make([]bool, c.tr.Len())
	}
	c.knownBranch[pos] = true
}

// markBranchKnown records that b's resolution is carried by the
// recovery hardware, so its replay will not mispredict. Program traces
// record it in b's BTB entry; any resolution knowledge the install
// displaces (a same-PC re-resolution or a set eviction) drops to the
// positional table, keeping resolution knowledge monotone — the
// forward-progress guarantee against mispredict livelock.
func (c *CPU) markBranchKnown(b *DynInst) {
	if b.Pos < 0 {
		return
	}
	if c.btb != nil {
		if displaced, ok := c.btb.MarkResolved(b.Inst.PC, b.Pos, b.Inst.Target); ok {
			c.knownAt(displaced)
		}
		return
	}
	c.knownAt(b.Pos)
}

// Exceptions returns the number of precisely delivered exceptions.
func (c *CPU) Exceptions() uint64 { return c.exceptions }

// Run simulates until the instruction target, trace exhaustion, or the
// cycle bound, and returns the collected results.
func (c *CPU) Run(opt RunOptions) stats.Results {
	target := opt.MaxInsts
	if target == 0 || target > uint64(c.tr.Len()) {
		target = uint64(c.tr.Len())
	}
	maxCycles := opt.MaxCycles
	if maxCycles == 0 {
		maxCycles = 100_000_000
	}
	watchdog := opt.WatchdogCycles
	if watchdog == 0 {
		watchdog = 2_000_000
	}
	if opt.CollectOccupancy {
		bound := c.policy.OccupancyBound()
		if bound < 1 {
			bound = 1
		}
		c.occ = stats.NewOccupancy(bound)
	}
	skipEnabled := !opt.DisableSkip && c.vt == nil

	for c.committed < target && c.now < maxCycles {
		c.portsUsed = 0
		c.policy.Commit()
		c.writebackStage()
		c.issueStage()
		c.dispatchStage()

		c.sumInflight += uint64(c.inflight)
		if c.inflight > c.maxInflight {
			c.maxInflight = c.inflight
		}
		if c.occ != nil {
			c.occ.Sample(c.inflight, c.liveFPLong, c.liveFPShort)
		}
		c.now++

		if c.committed > 0 || c.inflight > 0 {
			if c.now-c.lastCommitCycle > watchdog {
				panic(fmt.Sprintf("core: no commit progress for %d cycles at cycle %d (%s)",
					watchdog, c.now, c.debugState()))
			}
		}
		if c.fetchExhausted() && c.inflight == 0 && c.completions.Len() == 0 {
			break
		}

		// Event-driven clock skip, evaluated after every loop-exit
		// condition so a jump can never mask one. Virtual-register mode
		// stays cycle-by-cycle (its deferred-bind machinery is outside
		// the quiescence probe's footprint).
		if skipEnabled {
			sig := c.progressSig()
			if c.skipArmed {
				c.maybeSkip(maxCycles, watchdog)
			}
			if sig == c.skipPrevSig {
				// Two consecutive cycle ends with the same signature:
				// snapshot, making the next cycle a quiescence probe.
				// (A jump lands here too — its signature is unchanged by
				// construction, so the event cycle is probed and
				// naturally disqualifies itself.)
				c.snapSkip()
				c.skipArmed = true
			} else {
				c.skipArmed = false
				c.skipPrevSig = sig
			}
		}
	}
	return c.results()
}

// progressSig summarises the cycle's visible progress in one cheap sum:
// every component moves when (and only when) the pipeline does
// something a quiescent cycle cannot. Equality across two cycle ends is
// only an arming heuristic — a coincidental collision merely takes a
// snapshot that the probe diff then rejects — so the sum needs no
// collision resistance, just sensitivity to real progress.
func (c *CPU) progressSig() uint64 {
	return c.fetched + c.dispatched + c.issued + c.committed +
		c.replayed + c.rollbacks + c.probRecoveries + c.exceptions +
		c.policyActivity + c.nextSeq + uint64(c.lastCommitCycle) +
		uint64(c.completions.Len()) + uint64(c.fetchPos)
}

// snapSkip records the end-of-cycle state the next cycle is diffed
// against (see skipSnap).
func (c *CPU) snapSkip() {
	s := &c.skipSnap
	s.fetched, s.dispatched, s.issued, s.committed = c.fetched, c.dispatched, c.issued, c.committed
	s.replayed, s.rollbacks, s.probRecoveries = c.replayed, c.rollbacks, c.probRecoveries
	s.exceptions, s.policyActivity, s.nextSeq = c.exceptions, c.policyActivity, c.nextSeq
	s.wpCounter, s.renameStallCycles, s.ckptStallCycles = c.wpCounter, c.renameStallCycles, c.ckptStallCycles
	s.inflight, s.liveFPLong, s.liveFPShort = c.inflight, c.liveFPLong, c.liveFPShort
	s.lastCommitCycle, s.fetchResumeAt, s.fetchPos = c.lastCommitCycle, c.fetchResumeAt, c.fetchPos
	s.wheelLen = c.completions.Len()
	s.retire = c.retire
	s.stalls = c.stalls
	if c.sliq != nil {
		s.sliq = c.sliq.Stats()
	}
	s.mem = c.hier.Stats()
}

// maybeSkip runs at the end of an armed cycle — the probe. The diff
// against the snapshot is the probe's exact footprint; if it shows a
// quiescent machine (no fetch, dispatch, issue, completion, retirement
// or recovery — only stall bookkeeping and at most one IL1 fetch
// re-probe), and every way the machine could wake is bounded by a known
// future event, the clock jumps to the earliest such event. The elided
// cycles would each have repeated the probe bit for bit, so replaying
// the probe's footprint once per elided cycle keeps every statistic —
// and the watchdog and MaxCycles semantics — identical to the
// cycle-by-cycle run.
func (c *CPU) maybeSkip(maxCycles, watchdog int64) {
	s := &c.skipSnap

	// Quiescence: the probe moved nothing that distinguishes it from
	// the cycles about to be elided.
	if c.fetched != s.fetched || c.dispatched != s.dispatched ||
		c.issued != s.issued || c.committed != s.committed ||
		c.replayed != s.replayed || c.rollbacks != s.rollbacks ||
		c.probRecoveries != s.probRecoveries || c.exceptions != s.exceptions ||
		c.policyActivity != s.policyActivity || c.nextSeq != s.nextSeq ||
		c.inflight != s.inflight || c.liveFPLong != s.liveFPLong ||
		c.liveFPShort != s.liveFPShort || c.lastCommitCycle != s.lastCommitCycle ||
		c.fetchResumeAt != s.fetchResumeAt || c.fetchPos != s.fetchPos ||
		c.completions.Len() != s.wheelLen || c.retire != s.retire {
		return
	}
	if c.sliq != nil && c.sliq.Stats() != s.sliq {
		return
	}
	// Memory counters: a stalled-but-ungated front end re-probes its
	// resident IL1 line once per cycle; that is the only hierarchy
	// counter a quiescent cycle may move, and by at most one.
	m := c.hier.Stats()
	fetchProbes := m.IL1.Accesses - s.mem.IL1.Accesses
	if fetchProbes > 1 {
		return
	}
	mm := s.mem
	mm.IL1.Accesses += fetchProbes
	if m != mm {
		return
	}

	// Wake bounds. A ready issue-queue entry can issue as soon as a
	// functional unit frees — a resource outside the event wheel — so
	// its presence vetoes the skip outright.
	if c.intQ.PeekReady() != nil || c.fpQ.PeekReady() != nil {
		return
	}
	bound := maxCycles
	if c.committed > 0 || c.inflight > 0 {
		// The watchdog must fire on exactly the cycle it would have:
		// cap the jump so the panic cycle executes (and panics)
		// normally.
		if wd := c.lastCommitCycle + watchdog; wd < bound {
			bound = wd
		}
	}
	if ev := c.policy.NextRetireEvent(c.now); ev >= 0 {
		if ev <= c.now {
			return
		}
		if ev < bound {
			bound = ev
		}
	}
	if c.sliq != nil {
		if w := c.sliq.NextWake(); w >= 0 {
			if w < c.now {
				// An eligible head survived this cycle's drain: it is
				// blocked on queue space or a functional unit, neither
				// of which is event-bounded.
				return
			}
			if w < bound {
				bound = w
			}
		}
	}
	switch {
	case c.now-1 < c.fetchResumeAt:
		// Front end was gated during the probe cycle (the gate lifts
		// for the cycle numbered fetchResumeAt, which may be a plain
		// L2-hit latency with no in-flight fill to observe): it resumes
		// at a known cycle, and if that is the very next cycle nothing
		// can be elided.
		if c.fetchResumeAt <= c.now {
			return
		}
		if c.fetchResumeAt < bound {
			bound = c.fetchResumeAt
		}
	case c.divergedAt == nil:
		// Correct path: the same instruction re-attempts every cycle,
		// so the probe's rejection repeats verbatim — but a pending
		// fill for its line lands at a known cycle and un-stalls the
		// fetch, so it bounds the jump. The probe ran at cycle now-1:
		// ask from there so a fill landing exactly next cycle counts.
		if c.fetchPos < c.tr.Len() {
			if fill := c.hier.FetchFillReady(c.now-1, c.tr.At(c.fetchPos).PC); fill >= 0 && fill < bound {
				bound = fill
			}
		}
	default:
		// Wrong path: the stream varies its op cycle to cycle, so the
		// probe's rejection only repeats when it is op-independent.
		if c.code != nil {
			// Program image: branches and stores map to Nops, so the
			// op classes are IntAlu/IntMul/IntDiv/Load/Nop — all bound
			// for the integer queue. A checkpoint-table stall rejects
			// every op alike, and a full integer queue blocks every op
			// — but only while rename can still hand out a register,
			// because Nops skip the rename check and would otherwise
			// stall on a different counter than destination-carrying
			// ops.
			if c.stalls.Ckpt == s.stalls.Ckpt &&
				!(c.intQ.Full() && c.rt.FreeCount() > 0) {
				return
			}
			break
		}
		// Synthetic stream: a checkpoint-table stall (Admit rejects
		// every op alike), an empty rename free list (every synthetic
		// op carries a destination), or both issue queues full.
		if c.stalls.Ckpt == s.stalls.Ckpt && c.rt.FreeCount() > 0 &&
			!(c.intQ.Full() && c.fpQ.Full()) {
			return
		}
	}
	if bound <= c.now {
		return
	}

	target := c.completions.nextDue(bound)
	k := target - c.now
	if k < 1 {
		return
	}
	uk := uint64(k)

	// Replicate the probe's footprint once per elided cycle (deltas are
	// read into locals before the counters move).
	dWp := c.wpCounter - s.wpCounter
	dRename := c.renameStallCycles - s.renameStallCycles
	dCkpt := c.ckptStallCycles - s.ckptStallCycles
	d := dispatchStalls{
		ROB:       c.stalls.ROB - s.stalls.ROB,
		IQ:        c.stalls.IQ - s.stalls.IQ,
		LSQ:       c.stalls.LSQ - s.stalls.LSQ,
		Rename:    c.stalls.Rename - s.stalls.Rename,
		Ckpt:      c.stalls.Ckpt - s.stalls.Ckpt,
		VTag:      c.stalls.VTag - s.stalls.VTag,
		FetchGate: c.stalls.FetchGate - s.stalls.FetchGate,
	}
	c.wpCounter += uk * dWp
	c.renameStallCycles += uk * dRename
	c.ckptStallCycles += uk * dCkpt
	c.stalls.ROB += uk * d.ROB
	c.stalls.IQ += uk * d.IQ
	c.stalls.LSQ += uk * d.LSQ
	c.stalls.Rename += uk * d.Rename
	c.stalls.Ckpt += uk * d.Ckpt
	c.stalls.VTag += uk * d.VTag
	c.stalls.FetchGate += uk * d.FetchGate
	if fetchProbes > 0 {
		c.hier.ReplayFetchHits(uk * fetchProbes)
	}
	c.sumInflight += uk * uint64(c.inflight)
	if c.occ != nil {
		c.occ.SampleN(uk, c.inflight, c.liveFPLong, c.liveFPShort)
	}

	c.now = target
	c.skippedCycles += uk
	c.skipEvents++
	if uk > c.longestSkip {
		c.longestSkip = uk
	}
}

// fetchExhausted reports that no further correct-path instruction can be
// fetched.
func (c *CPU) fetchExhausted() bool {
	return c.divergedAt == nil && c.fetchPos >= c.tr.Len()
}

// iqFor returns the instruction queue for an operation class: FP
// arithmetic uses the floating-point queue, everything else (including
// memory and control) the integer queue, as in the paper.
func (c *CPU) iqFor(op isa.Op) *queue.IQ[*DynInst] {
	if op == isa.FPAlu {
		return c.fpQ
	}
	return c.intQ
}

// results assembles the run's statistics.
func (c *CPU) results() stats.Results {
	r := stats.Results{
		Name:                fmt.Sprintf("%s/%s", c.cfg.Commit, c.tr.Name()),
		Cycles:              c.now,
		Committed:           c.committed,
		Fetched:             c.fetched,
		Dispatched:          c.dispatched,
		Issued:              c.issued,
		Replayed:            c.replayed,
		Rollbacks:           c.rollbacks,
		PseudoROBRecoveries: c.probRecoveries,
		Branch:              c.pred.Stats(),
		Mem:                 c.hier.Stats(),
		Retire:              c.retire,
		MaxInflight:         c.maxInflight,
		Occ:                 c.occ,
		SkippedCycles:       c.skippedCycles,
		SkipEvents:          c.skipEvents,
		LongestSkip:         c.longestSkip,
	}
	if c.now > 0 {
		r.MeanInflight = float64(c.sumInflight) / float64(c.now)
	}
	c.policy.AddStats(&r)
	if c.sliq != nil {
		ss := c.sliq.Stats()
		r.SLIQMoved = ss.Inserted
		r.SLIQWoken = ss.Woken
	}
	// Program-backed workloads surface the LSQ and BTB counters their
	// real addresses make meaningful; synthetic results omit both so
	// their encodings (and every cached result) stay byte-identical.
	if c.code != nil {
		ls := c.lq.Stats()
		r.LSQ = &ls
		if c.btb != nil {
			bs := c.btb.Stats()
			r.BTB = &bs
		}
	}
	return r
}

// debugState renders a short pipeline summary for watchdog panics.
func (c *CPU) debugState() string {
	s := fmt.Sprintf("committed=%d inflight=%d fetchPos=%d intQ=%d/%d fpQ=%d/%d lsq=%d completions=%d",
		c.committed, c.inflight, c.fetchPos,
		c.intQ.Len(), c.intQ.Cap(), c.fpQ.Len(), c.fpQ.Cap(), c.lq.Len(), c.completions.Len())
	s += c.policy.DebugState()
	if c.divergedAt != nil {
		s += fmt.Sprintf(" diverged@%d", c.divergedAt.Seq)
	}
	return s
}
