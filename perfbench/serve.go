package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/isa/programs"
	"repro/internal/mem"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// fleetWorkers is the serve-mixed fleet size.
const fleetWorkers = 2

// serveSpace is the serve-mixed point space. Its warm groups are the six
// synthetic kernels and the five programs, each one trace recipe shared
// by every fresh point that lands on it; configurations and budgets
// vary within a group so fresh points are distinct but fork the same
// warmed donor.
type serveSpace struct {
	seed    uint64
	insts   uint64
	recipes []trace.Recipe
	sample  trace.SampleSpec
}

// budgetSpread is the range fresh-point budgets are drawn from above
// the scale's base budget.
const budgetSpread = 256

func newServeSpace(sc scale, seed uint64) serveSpace {
	top := sc.serveInsts + budgetSpread
	var recipes []trace.Recipe
	for _, b := range experiments.SuiteBenchmarks(seed | 1) {
		recipes = append(recipes, b.Recipe(trace.LenFor(top)))
	}
	for _, name := range programs.Names() {
		spec, _ := programs.Lookup(name)
		recipes = append(recipes, trace.Recipe{Kernel: trace.KernelProgram, Program: name, Input: spec.InputFor(top), Seed: seed})
	}
	p := sc.serveInsts / 2
	return serveSpace{
		seed:    seed,
		insts:   sc.serveInsts,
		recipes: recipes,
		sample:  trace.SampleSpec{Warmup: p / 8, Detail: p / 4, Period: p},
	}
}

// fresh returns client c's k-th fresh point: a pure function of the
// seed, c and k. About one fresh point in five is sampled.
func (s serveSpace) fresh(c, k int) (service.Job, error) {
	x := splitmix64(s.seed ^ uint64(c)<<40 ^ uint64(k))
	r := s.recipes[x%uint64(len(s.recipes))]
	x = splitmix64(x)
	var cfg config.Config
	if x%3 == 2 {
		cfg = config.BaselineSized(64 + int(x>>8%193))
	} else {
		cfg = config.CheckpointDefault(32+int(x>>8%97), 512+int(x>>16%1537))
	}
	job := service.Job{Config: cfg, Trace: r, Insts: s.insts + x>>32%budgetSpread}
	if x>>48%5 == 0 {
		job.Sample = s.sample
	}
	return job, job.Validate()
}

// servedFleet is the in-process fleet: workers with donor shipping wired
// as ooosimload -inprocess does, and a coordinator, on loopback.
type servedFleet struct {
	url     string
	workers []string
	taps    []*tap // worker taps then the coordinator's (traced runs)
	stops   []func()
}

func (f *servedFleet) stop() {
	for i := len(f.stops) - 1; i >= 0; i-- {
		f.stops[i]()
	}
}

// bootFleet starts the fleet; traced wraps every handler in a timing
// tap.
func bootFleet(e *env, traced bool) (*servedFleet, error) {
	f := &servedFleet{}
	lns := make([]net.Listener, fleetWorkers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.stops = append(f.stops, func() { ln.Close() })
		lns[i] = ln
		f.workers = append(f.workers, "http://"+ln.Addr().String())
	}
	slots := max(1, workers()/fleetWorkers)
	serve := func(ln net.Listener, h http.Handler, layer string) {
		if traced {
			t := &tap{e: e, layer: layer, inner: h}
			f.taps = append(f.taps, t)
			h = t
		}
		srv := &http.Server{Handler: h}
		done := make(chan struct{})
		go func() { srv.Serve(ln); close(done) }()
		f.stops = append(f.stops, func() { srv.Close(); <-done })
	}
	for i := range lns {
		sched := service.NewScheduler(service.SchedulerOptions{
			Workers: slots,
			Donors:  service.NewDonorExchange(f.workers[i], f.workers),
		})
		serve(lns[i], service.NewHandler(sched), "service")
	}
	coord, err := fleet.New(fleet.Options{Workers: f.workers, PingInterval: 500 * time.Millisecond})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.stops = append(f.stops, coord.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.url = "http://" + ln.Addr().String()
	serve(ln, fleet.NewHandler(coord), "fleet")
	return f, nil
}

// scrape reads one node's /metrics into name → value (labelled series
// are skipped).
func scrape(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// batchTag names a batch's jobs "b<tag>.<index>" so the taps can tell
// which client batch a worker sub-batch belongs to. Job names are labels
// only: they enter neither fingerprints nor results.
func batchTag(jobs []service.Job) int64 {
	if len(jobs) == 0 {
		return -1
	}
	s, _, _ := strings.Cut(strings.TrimPrefix(jobs[0].Name, "b"), ".")
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// recentPoints bounds how far back each of clients repeats its own
// points: everything a client may repeat, and everything the fleet
// stored since, stays within half the workers' default cache capacity,
// so every repeat is a hit and memory stops growing with the length of
// the run once the caches are full.
func recentPoints(clients int) int {
	return service.DefaultCacheEntries * fleetWorkers / (4 * clients)
}

// runServe is the serve-mixed workload: one closed-loop client per host
// CPU submits batches through service.Client to an in-process fleet.
// Each batch point repeats one of the client's recent points with
// probability serveRepeat (a cache hit) and is otherwise fresh.
func runServe(ctx context.Context, e *env) error {
	space := newServeSpace(e.sc, inputSeed(e.seed, "serve"))

	var f *servedFleet
	var setups []float64
	for i := 0; i < e.sc.serveSetups; i++ {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		var err error
		if f, err = bootFleet(e, e.traced); err != nil {
			return err
		}
		rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err = (&service.Client{BaseURL: f.url}).AwaitReady(rctx)
		cancel()
		if err != nil {
			f.stop()
			return fmt.Errorf("fleet never became ready: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.stop()
	e.set("setup_s", median(setups))

	before, err := scrapeFleet(ctx, f)
	if err != nil {
		return err
	}
	var (
		mu       sync.Mutex
		lats     []float64
		points   int
		covered  uint64
		byFP     = map[string]service.Job{}
		nextTag  atomic.Int64
		firstErr error
	)
	clients := workers()
	settle()
	rss := sampleRSS()
	defer rss.peakMB()
	// The host reference runs every refEvery with no batch in flight:
	// it holds gate for writing, the clients hold it for reading around
	// each batch, and the time it takes is left out of the window.
	if err := e.ref.measure(); err != nil {
		return err
	}
	var gate sync.RWMutex
	var refErr error
	var refTime time.Duration
	refDone, refStop := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(refDone)
		tick := time.NewTicker(e.sc.refEvery)
		defer tick.Stop()
		for {
			select {
			case <-refStop:
				return
			case <-tick.C:
			}
			gate.Lock()
			t0 := time.Now()
			if err := e.ref.measure(); err != nil && refErr == nil {
				refErr = err
			}
			refTime += time.Since(t0)
			gate.Unlock()
		}
	}()
	start := time.Now()
	deadline := start.Add(e.dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &service.Client{BaseURL: f.url}
			rng := splitmix64(space.seed ^ uint64(c+1)<<56)
			var history []service.Job
			k := 0
			for time.Now().Before(deadline) && ctx.Err() == nil {
				tag := nextTag.Add(1)
				jobs := make([]service.Job, e.sc.serveBatch)
				fps := make([]string, len(jobs))
				var fresh []service.Job
				for i := range jobs {
					rng = splitmix64(rng)
					if len(history) > 0 && float64(rng>>11)/(1<<53) < e.sc.serveRepeat {
						jobs[i] = history[(rng>>3)%uint64(len(history))]
					} else {
						j, err := space.fresh(c, k)
						if err != nil {
							mu.Lock()
							firstErr = fmt.Errorf("point space: %w", err)
							mu.Unlock()
							return
						}
						k++
						jobs[i] = j
						fresh = append(fresh, j)
					}
					fp, err := jobs[i].Fingerprint()
					if err != nil {
						mu.Lock()
						firstErr = err
						mu.Unlock()
						return
					}
					fps[i] = fp
					jobs[i].Name = fmt.Sprintf("b%d.%d", tag, i)
				}
				raw := make([][]byte, len(jobs))
				gate.RLock()
				t0 := time.Now()
				root := e.tr.add("http.client_run", -1, tag, t0, time.Time{})
				e.tr.link(tag, root)
				res, err := client.Run(ctx, jobs, func(ev service.Event, _ *stats.Results) {
					if ev.Type == "result" && ev.Index >= 0 && ev.Index < len(raw) {
						raw[ev.Index] = ev.Results
					}
				})
				lat := time.Since(t0)
				gate.RUnlock()
				e.tr.finish(root)
				if err != nil {
					e.chk.fail(len(jobs), fmt.Sprintf("batch %d: %v", tag, err))
					continue
				}
				var cov uint64
				for i, r := range res {
					if r.Sampled != nil {
						cov += r.Sampled.TotalInsts
					} else {
						cov += r.Committed
					}
					e.chk.observe(fps[i], digestBytes(raw[i]), jobs[i].Trace.WorkloadName()+" "+fps[i][:12])
				}
				history = append(history, fresh...)
				if n := recentPoints(clients); len(history) > n {
					history = append(history[:0], history[len(history)-n:]...)
				}
				mu.Lock()
				lats = append(lats, ms(lat))
				points += len(jobs)
				covered += cov
				for i, j := range jobs {
					j.Name = ""
					byFP[fps[i]] = j
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(refStop)
	<-refDone
	elapsed := time.Since(start) - refTime
	if firstErr != nil {
		return firstErr
	}
	if refErr != nil {
		return refErr
	}
	e.set("peak_rss_mb", rss.peakMB())
	e.set("kips", float64(covered)/elapsed.Seconds()/1000)
	e.set("points_per_s", float64(points)/elapsed.Seconds())
	e.set("batch_p50_ms", median(lats))
	e.set("batch_p99_ms", quantile(lats, 0.99))
	e.note("batch_p50_ms", "n=%d batches of %d points", len(lats), e.sc.serveBatch)
	e.note("batch_p99_ms", "n=%d batches, %d beyond it", len(lats), len(lats)-int(0.99*float64(len(lats))+0.5))
	e.atRefSpeed()

	after, err := scrapeFleet(ctx, f)
	if err != nil {
		return err
	}
	specs, err := localSpecs(byFP)
	if err != nil {
		return err
	}
	if !e.traced {
		return verifyByRun(e, specs, nil)
	}
	// The verification runs double as the traced run's core sample: one
	// cold sim.Run per distinct point served, reported per client batch.
	acc := &coreAcc{passes: len(lats)}
	if err := verifyByRun(e, specs, acc); err != nil {
		return err
	}
	acc.publish(e)
	publishServe(e, f, before, after, points)
	return serveWarmTime(e, specs, after)
}

// localSpecs turns every served point into the sim.RunSpec a local run
// uses: materialised traces (one per recipe) for detailed points,
// stream-only handles for sampled ones.
func localSpecs(byFP map[string]service.Job) (map[string]sim.RunSpec, error) {
	traces := map[string]*trace.Trace{}
	out := map[string]sim.RunSpec{}
	for fp, j := range byFP {
		var tr *trace.Trace
		var err error
		if j.Sample.Enabled() {
			tr, err = trace.StreamOnly(j.Trace)
		} else if tr = traces[j.Trace.String()]; tr == nil {
			tr, err = j.Trace.Materialise()
			traces[j.Trace.String()] = tr
		}
		if err != nil {
			return nil, err
		}
		out[fp] = sim.RunSpec{Name: j.Trace.WorkloadName(), Config: j.Config, Trace: tr, Insts: j.Insts, Sample: j.Sample}
	}
	return out, nil
}

// serveWarmTime sets mem.warm_count to the fleet's donor warm-ups and
// mem.warm_ms to that count times the mean time of one core.WarmDonor
// call over the workload's warm groups, timed here.
func serveWarmTime(e *env, specs map[string]sim.RunSpec, after fleetScrape) error {
	seen := map[*trace.Trace]bool{}
	var total time.Duration
	for _, s := range specs {
		if s.Sample.Enabled() || seen[s.Trace] {
			continue
		}
		seen[s.Trace] = true
		id := e.tr.start("mem.WarmDonor", -1, -1)
		t0 := time.Now()
		_, err := core.WarmDonor(mem.WarmKeyFor(s.Config), s.Trace)
		total += time.Since(t0)
		e.tr.finish(id)
		if err != nil {
			return err
		}
	}
	builds := after.sum("ooosim_warm_builds_total")
	e.set("mem.warm_count", builds)
	if len(seen) > 0 {
		e.set("mem.warm_ms", builds*ms(total)/float64(len(seen)))
	}
	return nil
}

// fleetScrape is one /metrics reading of every worker and the
// coordinator.
type fleetScrape struct {
	workers []map[string]float64
	coord   map[string]float64
}

func scrapeFleet(ctx context.Context, f *servedFleet) (fleetScrape, error) {
	var s fleetScrape
	for _, u := range f.workers {
		m, err := scrape(ctx, u)
		if err != nil {
			return s, err
		}
		s.workers = append(s.workers, m)
	}
	m, err := scrape(ctx, f.url)
	s.coord = m
	return s, err
}

func (s fleetScrape) sum(name string) float64 {
	var t float64
	for _, m := range s.workers {
		t += m[name]
	}
	return t
}

// publishServe sets the service, fleet and http per-layer metrics from
// the taps' spans and the /metrics deltas of the measured window.
func publishServe(e *env, f *servedFleet, before, after fleetScrape, points int) {
	delta := func(name string) float64 { return after.sum(name) - before.sum(name) }
	e.set("service.submit_ms", median(e.tr.durations("service.submit")))
	e.set("service.batch_ms", median(e.tr.durations("service.batch")))
	e.set("service.hit_frac", ratio(delta("ooosim_points_cached_total"), delta("ooosim_points_total")))
	e.set("service.warm_builds", delta("ooosim_warm_builds_total"))
	e.set("service.warm_reuses", delta("ooosim_warm_reuses_total"))
	e.set("service.donors_adopted", delta("ooosim_donors_adopted_total"))
	e.set("fleet.batch_ms", median(e.tr.durations("fleet.batch")))
	e.set("fleet.overhead_ms", median(e.tr.overheads("fleet.batch", "service.batch")))
	var most, total float64
	for i := range after.workers {
		d := after.workers[i]["ooosim_simulations_total"] - before.workers[i]["ooosim_simulations_total"]
		most, total = max(most, d), total+d
	}
	e.set("fleet.shard_skew", ratio(most, total/float64(len(after.workers))))
	e.set("fleet.reroutes", after.coord["ooosim_fleet_reroutes_total"]-before.coord["ooosim_fleet_reroutes_total"])
	e.set("fleet.point_errors", after.coord["ooosim_fleet_point_errors_total"]-before.coord["ooosim_fleet_point_errors_total"])
	var wire int64
	for _, t := range f.taps {
		if t.layer == "fleet" {
			wire += t.bytes.Load()
		}
	}
	e.set("http.bytes_per_point", ratio(float64(wire), float64(points)))
	var tapNS int64
	for _, t := range f.taps {
		tapNS += t.ownNS.Load()
	}
	e.set("tracing.overhead_pct", 100*ratio(float64(tapNS)/1e6, sumDur(e.tr.durations("http.client_run"))))
}

func sumDur(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

// tap wraps a worker's or the coordinator's HTTP handler and records a
// <layer>.submit span around POST /v1/batches and a <layer>.batch span
// from that POST until the batch's event stream ends, plus the bytes the
// handler reads and writes. ownNS is the time the tap itself spends
// outside the handler (parsing bodies, recording spans): the serving
// path's tracing cost.
type tap struct {
	e     *env
	layer string
	inner http.Handler
	bytes atomic.Int64
	ownNS atomic.Int64

	mu      sync.Mutex
	batches map[string]int // batch id → open <layer>.batch span
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/batches":
		t0 := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req struct {
			Jobs []service.Job `json:"jobs"`
		}
		json.Unmarshal(body, &req) // a bad body is the handler's to reject
		tag := batchTag(req.Jobs)
		id := t.e.tr.add(t.layer+".batch", t.e.tr.parentOf(tag, t.layer), tag, t0, time.Time{})
		if t.layer == "fleet" {
			t.e.tr.linkLayer(tag, t.layer, id)
		}
		rec := &recordingWriter{ResponseWriter: w}
		t1 := time.Now()
		t.inner.ServeHTTP(rec, r)
		t2 := time.Now()
		t.e.tr.add(t.layer+".submit", id, tag, t1, t2)
		var st service.BatchStatus
		if json.Unmarshal(rec.buf.Bytes(), &st) == nil && st.ID != "" {
			t.mu.Lock()
			if t.batches == nil {
				t.batches = map[string]int{}
			}
			t.batches[st.ID] = id
			t.mu.Unlock()
		}
		t.bytes.Add(int64(len(body)) + int64(rec.buf.Len()))
		t.ownNS.Add(t1.Sub(t0).Nanoseconds() + time.Since(t2).Nanoseconds())
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/events"):
		cw := &countingWriter{ResponseWriter: w}
		t.inner.ServeHTTP(cw, r)
		t0 := time.Now()
		bid := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/batches/"), "/events")
		t.mu.Lock()
		id, ok := t.batches[bid]
		delete(t.batches, bid)
		t.mu.Unlock()
		if ok {
			t.e.tr.finish(id)
		}
		t.bytes.Add(cw.n)
		t.ownNS.Add(time.Since(t0).Nanoseconds())
	default:
		t.inner.ServeHTTP(w, r)
	}
}

// recordingWriter keeps a copy of what the handler writes.
type recordingWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

func (w *recordingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// countingWriter counts what the handler writes; Unwrap keeps the
// event stream's flushes working.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
