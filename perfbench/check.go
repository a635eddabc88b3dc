package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/stats"
)

// pinsJSON is the benchmark's pinned data, produced by `perfbench -pin`.
//
//go:embed data/pins.json
var pinsJSON []byte

// pins holds result digests by point fingerprint (sim.Fingerprint) and
// the full-detail IPC of every programs-sampled point, keyed by the
// fingerprint of the same point without sampling.
type pins struct {
	Digests     map[string]string  `json:"digests"`
	FullIPC     map[string]float64 `json:"full_detail_ipc"`
	Description string             `json:"description"`
}

func loadPins() pins {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("perfbench: embedded data/pins.json: " + err.Error())
	}
	if p.Digests == nil {
		p.Digests = map[string]string{}
	}
	if p.FullIPC == nil {
		p.FullIPC = map[string]float64{}
	}
	return p
}

// digestBytes identifies a result by its canonical JSON encoding, the
// bytes the service caches and serves.
func digestBytes(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

func digest(res stats.Results) string {
	raw, err := json.Marshal(res)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return digestBytes(raw)
}

// checker counts attempted and failed points. A point fails when it
// errors or is refused, when its digest differs from the pinned one,
// from an earlier result of the same point, or from the independently
// computed reference. Nothing is dropped: every failure is counted and
// the first few are named in the report.
type checker struct {
	pinned map[string]string

	mu        sync.Mutex
	attempted int
	failed    int
	seen      map[string]*observed
	why       []string
}

type observed struct {
	digest, label string
	n             int
}

func newChecker(pinned map[string]string) *checker {
	return &checker{pinned: pinned, seen: map[string]*observed{}}
}

// observe checks one result of the point with fingerprint fp.
func (c *checker) observe(fp, dig, label string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	o := c.seen[fp]
	switch {
	case o == nil:
		o = &observed{digest: dig, label: label}
		c.seen[fp] = o
	case o.digest != dig:
		c.failLocked(1, fmt.Sprintf("%s: result %s differs from an earlier result %s of the same point", label, dig, o.digest))
	}
	o.n++
	if want, ok := c.pinned[fp]; ok && want != dig {
		c.failLocked(1, fmt.Sprintf("%s: digest %s, pinned %s", label, dig, want))
	}
}

// fail counts n attempted points that failed or were refused.
func (c *checker) fail(n int, why string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted += n
	c.failLocked(n, why)
}

func (c *checker) failLocked(n int, why string) {
	c.failed += n
	if len(c.why) < 10 {
		c.why = append(c.why, why)
	}
}

// unpinned lists the observed fingerprints without a pinned digest, in
// a stable order; each needs a reference computation.
func (c *checker) unpinned() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for fp := range c.seen {
		if _, ok := c.pinned[fp]; !ok {
			out = append(out, fp)
		}
	}
	sort.Strings(out)
	return out
}

// reference compares fp's observed results to an independently computed
// digest; on a mismatch every observation of fp counts as failed.
func (c *checker) reference(fp, dig string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o := c.seen[fp]
	if o == nil || o.digest == dig {
		return
	}
	c.failLocked(o.n, fmt.Sprintf("%s: result %s differs from the reference %s", o.label, o.digest, dig))
}

// digests returns every observed digest by fingerprint (the self-test
// pins them).
func (c *checker) digests() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]string{}
	for fp, o := range c.seen {
		out[fp] = o.digest
	}
	return out
}

func (c *checker) totals() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, min(c.failed, c.attempted)
}

func (c *checker) problems() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.why...)
}
