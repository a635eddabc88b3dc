package main

import (
	"fmt"
	"sync"
	"time"
)

// The shared host this benchmark runs on changes speed by tens of
// percent over tens of seconds as its neighbours come and go: identical
// figure-9 sweeps in one process ranged 480-1160 ms within minutes, and
// whole 30-second runs of one workload differed by up to a factor of
// two. No statistic over one run averages out a drift that slow, and
// simple probes do not track it (a memory copy, pointer chases from L1
// to DRAM sizes, an ALU loop and an allocation-heavy tree build
// correlated 0.0-0.7 with neighbouring sweeps, with a slope that changed
// from one set of runs to the next). Work of the same kind as the
// simulator's does track it. So the benchmark carries its own
// reference: a small out-of-order pipeline loop (refCore) that the
// program under test cannot change. Each run interleaves it with the
// measured batches, with no batch in flight, and reports the timed
// end-to-end metrics at the reference host speed: the raw figure scaled
// by the run's mean reference time over its nominal time. A change to
// the program moves the scaled figures as it moves the raw ones; a
// change of host speed moves the batches and the reference together.
// The raw figures are on the report.

// refNominalNS is the reference's time per cycle on the host the
// benchmark was built on in a quiet phase: the host speed the timed
// metrics are reported at.
const refNominalNS = 40.0

// Reference pipeline sizes: a 2048-entry window, a 256-entry issue
// queue, 4-wide, over an 8192-set 8-way cache model; a working set of
// under a megabyte per core, beyond the host's private L1 as the
// simulator's is.
const (
	refROB   = 2048
	refIQ    = 256
	refWidth = 4
	refSets  = 8192
	refWays  = 8
	refWheel = 512
)

// refInst is one in-flight instruction of the reference pipeline.
type refInst struct {
	seq     uint64
	dst     int
	pending int
	done    bool
	load    bool
	addr    uint64
	waiters []*refInst
}

// refCore is the reference pipeline: dispatch with register
// dependences into a reorder buffer and a seq-ordered issue heap,
// loads through a set-associative tag array, completion on an event
// wheel that wakes dependants, and in-order retirement. Its instruction
// stream is a fixed xorshift sequence, so every run does the same work.
type refCore struct {
	pool    []refInst
	rng     uint64
	cycle   uint64
	seq     uint64
	free    []*refInst
	rob     []*refInst
	head    int
	count   int
	regs    [64]*refInst
	iq      []*refInst
	wheel   [][]*refInst
	tags    []uint64
	age     []uint8
	retired uint64
}

func newRefCore() *refCore {
	return &refCore{
		pool:  make([]refInst, refROB),
		rob:   make([]*refInst, refROB),
		wheel: make([][]*refInst, refWheel),
		tags:  make([]uint64, refSets*refWays),
		age:   make([]uint8, refSets*refWays),
	}
}

// reset returns the core to its initial state with stream seed.
func (c *refCore) reset(seed uint64) {
	c.rng, c.cycle, c.seq, c.head, c.count, c.retired = seed|1, 0, 0, 0, 0, 0
	c.free = c.free[:0]
	for i := range c.pool {
		c.pool[i].waiters = c.pool[i].waiters[:0]
		c.free = append(c.free, &c.pool[i])
	}
	clear(c.rob)
	clear(c.regs[:])
	c.iq = c.iq[:0]
	for i := range c.wheel {
		c.wheel[i] = c.wheel[i][:0]
	}
	clear(c.tags)
	clear(c.age)
}

func (c *refCore) next() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng
}

func (c *refCore) push(in *refInst) {
	c.iq = append(c.iq, in)
	for i := len(c.iq) - 1; i > 0; {
		p := (i - 1) / 2
		if c.iq[p].seq <= c.iq[i].seq {
			break
		}
		c.iq[p], c.iq[i] = c.iq[i], c.iq[p]
		i = p
	}
}

func (c *refCore) pop() *refInst {
	top := c.iq[0]
	n := len(c.iq) - 1
	c.iq[0] = c.iq[n]
	c.iq = c.iq[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && c.iq[l].seq < c.iq[m].seq {
			m = l
		}
		if r < n && c.iq[r].seq < c.iq[m].seq {
			m = r
		}
		if m == i {
			break
		}
		c.iq[m], c.iq[i] = c.iq[i], c.iq[m]
		i = m
	}
	return top
}

// access looks addr up in the tag array, filling it on a miss, and
// returns the latency.
func (c *refCore) access(addr uint64) uint64 {
	line := addr >> 6
	base := int(line%refSets) * refWays
	victim := base
	for w := base; w < base+refWays; w++ {
		if c.tags[w] == line {
			c.age[w] = 0
			return 4
		}
		c.age[w]++
		if c.age[w] > c.age[victim] {
			victim = w
		}
	}
	c.tags[victim], c.age[victim] = line, 0
	return 300
}

// step simulates one cycle: complete, retire, issue, dispatch.
func (c *refCore) step() {
	c.cycle++
	slot := &c.wheel[c.cycle%refWheel]
	for _, in := range *slot {
		in.done = true
		for _, w := range in.waiters {
			if w.pending--; w.pending == 0 {
				c.push(w)
			}
		}
		in.waiters = in.waiters[:0]
		if c.regs[in.dst] == in {
			c.regs[in.dst] = nil
		}
	}
	*slot = (*slot)[:0]
	for k := 0; k < refWidth && c.count > 0 && c.rob[c.head].done; k++ {
		c.free = append(c.free, c.rob[c.head])
		c.rob[c.head] = nil
		c.head = (c.head + 1) % refROB
		c.count--
		c.retired++
	}
	for k := 0; k < refWidth && len(c.iq) > 0; k++ {
		in := c.pop()
		lat := uint64(1)
		if in.load {
			lat = c.access(in.addr)
		}
		at := &c.wheel[(c.cycle+min(lat, refWheel-1))%refWheel]
		*at = append(*at, in)
	}
	for k := 0; k < refWidth && c.count < refROB && len(c.iq) < refIQ && len(c.free) > 0; k++ {
		x := c.next()
		in := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		c.seq++
		in.seq, in.done, in.pending = c.seq, false, 0
		in.dst = int(x % 64)
		in.load = x>>8%4 == 0
		if x>>12%2 == 0 {
			in.addr = c.seq * 64 % (16 << 20) // streaming
		} else {
			in.addr = x >> 20 % (16 << 20) // scattered
		}
		for _, r := range [2]int{int(x >> 16 % 64), int(x >> 24 % 64)} {
			if p := c.regs[r]; p != nil && !p.done {
				p.waiters = append(p.waiters, in)
				in.pending++
			}
		}
		c.regs[in.dst] = in
		c.rob[(c.head+c.count)%refROB] = in
		c.count++
		if in.pending == 0 {
			c.push(in)
		}
	}
}

// hostRef runs the reference, one refCore per worker in parallel as the
// workloads run their simulations, and keeps its times.
type hostRef struct {
	cycles  int // per core and measurement
	cores   []*refCore
	retired uint64 // per measurement; every measurement must match
	samples []refSample
}

type refSample struct {
	At time.Time `json:"at"`
	MS float64   `json:"ms"`
}

func newHostRef(n, cycles int) *hostRef {
	r := &hostRef{cycles: cycles}
	for i := 0; i < n; i++ {
		r.cores = append(r.cores, newRefCore())
	}
	return r
}

// measure times one reference run. The run's work is fixed; a retired
// count that differs from the first measurement's is an error.
func (r *hostRef) measure() error {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range r.cores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.reset(0x9e3779b97f4a7c15 + uint64(i))
			for k := 0; k < r.cycles; k++ {
				c.step()
			}
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	var retired uint64
	for _, c := range r.cores {
		retired += c.retired
	}
	if len(r.samples) == 0 {
		r.retired = retired
	} else if retired != r.retired {
		return fmt.Errorf("host reference retired %d instructions, first run %d", retired, r.retired)
	}
	r.samples = append(r.samples, refSample{t0, ms(d)})
	return nil
}

// meanMS is the mean reference time so far.
func (r *hostRef) meanMS() float64 {
	var s float64
	for _, x := range r.samples {
		s += x.MS
	}
	return s / float64(max(len(r.samples), 1))
}

// nominalMS is the time one measurement takes at the reference host
// speed.
func (r *hostRef) nominalMS() float64 { return refNominalNS * float64(r.cycles) / 1e6 }

// scale is the factor that brings a time measured in this run to the
// reference host speed: the nominal over the mean reference time (below
// 1 when the host ran slow).
func (r *hostRef) scale() float64 { return ratio(r.nominalMS(), r.meanMS()) }

// atRefSpeed brings the timed end-to-end metrics to the reference host
// speed and notes the raw figures beside them.
func (e *env) atRefSpeed() {
	s := e.ref.scale()
	for _, name := range []string{"kips", "points_per_s", "batch_p50_ms", "batch_p99_ms", "setup_s"} {
		raw := e.metrics[name]
		if name == "kips" || name == "points_per_s" {
			e.metrics[name] = raw / s
		} else {
			e.metrics[name] = raw * s
		}
		e.note(name, "raw %.6g", raw)
	}
	e.set("host.ref_ms", e.ref.meanMS())
	e.logf("host reference: mean %.1f ms over %d runs, nominal %.1f ms; timed metrics scaled by %.4f",
		e.ref.meanMS(), len(e.ref.samples), e.ref.nominalMS(), s)
}
