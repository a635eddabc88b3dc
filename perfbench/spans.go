package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the layer's public function. Spans of one batch share a
// batch id; Parent is the index of the enclosing span (-1 for a root).
type span struct {
	Name    string `json:"name"`
	Batch   int64  `json:"batch"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// (untraced runs, or paused between traced iterations) records nothing
// and returns id -1.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
	links map[linkKey]int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) setEnabled(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// start opens a span and returns its id.
func (t *tracer) start(name string, parent int, batch int64) int {
	return t.add(name, parent, batch, time.Now(), time.Time{})
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere (end may be
// zero and set later by finish).
func (t *tracer) add(name string, parent int, batch int64, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	s := span{Name: name, Batch: batch, Parent: parent, StartNS: start.Sub(t.t0).Nanoseconds()}
	if !end.IsZero() {
		s.EndNS = end.Sub(t.t0).Nanoseconds()
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// spanStat is one span name's whole-run totals.
type spanStat struct {
	name            string
	n               int
	totalMS, selfMS float64
}

// summary totals duration and self time per span name. Self time is a
// span's duration minus the part of it its children cover.
func (t *tracer) summary() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	by := map[string]*spanStat{}
	var order []string
	for i, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			by[s.Name] = st
			order = append(order, s.Name)
		}
		d := float64(s.EndNS-s.StartNS) / 1e6
		st.n++
		st.totalMS += d
		st.selfMS += d - float64(covered(children[i], s.StartNS, s.EndNS))/1e6
	}
	out := make([]spanStat, 0, len(order))
	for _, n := range order {
		out = append(out, *by[n])
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], end), min(x[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// durations lists the duration (ms) of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNS > 0 {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// overheads lists, per batch, the duration of its outer span minus the
// longest inner span of the same batch: the time the outer layer adds
// beyond its slowest part. Batches without an inner span are skipped.
func (t *tracer) overheads(outer, inner string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	outerMS, innerMS := map[int64]float64{}, map[int64]float64{}
	for _, s := range t.spans {
		if s.EndNS == 0 {
			continue
		}
		d := float64(s.EndNS-s.StartNS) / 1e6
		switch s.Name {
		case outer:
			outerMS[s.Batch] = d
		case inner:
			innerMS[s.Batch] = max(innerMS[s.Batch], d)
		}
	}
	var out []float64
	for b, d := range outerMS {
		if in, ok := innerMS[b]; ok {
			out = append(out, d-in)
		}
	}
	return out
}

// link records span id as the root of batch tag; linkLayer records it
// as the span layer opened for tag. parentOf finds the span a layer's
// span of tag nests in: the client's for the coordinator, the
// coordinator's for a worker.
func (t *tracer) link(tag int64, id int) { t.linkLayer(tag, "client", id) }

func (t *tracer) linkLayer(tag int64, layer string, id int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.links == nil {
		t.links = map[linkKey]int{}
	}
	t.links[linkKey{tag, layer}] = id
}

func (t *tracer) parentOf(tag int64, layer string) int {
	above := map[string]string{"fleet": "client", "service": "fleet"}[layer]
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.links[linkKey{tag, above}]; ok {
		return id
	}
	return -1
}

type linkKey struct {
	tag   int64
	layer string
}
