package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// donorSumHeader carries the hex SHA-256 of the snapshot body on
// GET /v1/donors/{key} responses. Snapshot validation in mem is
// structural (magic, lengths, bounds) and cannot detect bit flips
// inside the tag arrays, so the transport adds an end-to-end digest:
// a fetch whose body does not hash to the header is rejected (and
// retried, then degraded to a local warm-up — never silently adopted).
const donorSumHeader = "X-Ooosim-Snapshot-Sum"

// DonorExchange is the warm-donor shipping fabric of a worker fleet.
//
// Every snapshot group — a (trace recipe, warm-relevant cache shape)
// pair — has one *home node*, chosen by sharding the group's donor key
// over the fleet's canonical peer list. The home node warms the group's
// donor exactly once; every other node adopts it over HTTP
// (GET /v1/donors/{key}) instead of replaying the warm-up itself, so a
// fleet of N nodes sweeping G groups performs G donor warm-ups, not
// N*G. The endpoint builds on demand: a request carrying the group's
// spec (recipe + warm key) makes the home node warm the donor even
// before any of its own points need it, which is what makes the
// one-build guarantee deterministic rather than a race.
//
// Failure degrades, never blocks: a dead or misbehaving home node means
// the requester warms locally (exactly the pre-fleet behaviour), and a
// node with no peer list behaves like a single-node daemon.
//
// The exchange holds no donors of its own: it adopts into, and serves
// from, its scheduler's donor memo, the same memo the node's own points
// fork from.
//
// Donors ship as mem.Hierarchy snapshots (see mem.WriteSnapshot); the
// adopted donor forks bit-identically to a locally warmed one, so
// results are byte-identical whichever path produced the donor.
type DonorExchange struct {
	self   string   // this node's entry in peers ("" disables homing)
	peers  []string // all fleet workers, same canonical order on every node
	client *http.Client

	// node is the scheduler whose donor memo the exchange adopts into
	// and serves from; NewScheduler attaches it.
	node *Scheduler

	adopted      atomic.Uint64 // donors fetched from a peer
	shipped      atomic.Uint64 // donors served to peers
	fetchRetries atomic.Uint64 // fetch attempts retried before success or fallback
	fetchFails   atomic.Uint64 // peer fetches that fell back to local warm-up
}

// NewDonorExchange builds the exchange for a node. peers is the full
// fleet worker list — every node must pass the same URLs in the same
// order, or home selection diverges and the one-build guarantee decays
// to best-effort adoption. self is this node's own entry in peers; an
// empty or unlisted self disables homing (the node warms everything
// locally and only serves).
func NewDonorExchange(self string, peers []string) *DonorExchange {
	return &DonorExchange{
		self:  self,
		peers: append([]string(nil), peers...),
		// Donor fetches block a warm-up, not a request handler; the
		// timeout must cover an on-demand build (trace materialisation +
		// warm replay, well under a second at figure scale) plus shipping
		// a few hundred KB.
		client: &http.Client{Timeout: 30 * time.Second},
	}
}

// DonorSpec is the wire description of a snapshot group: everything a
// peer needs to build the donor on demand.
type DonorSpec struct {
	Trace trace.Recipe `json:"trace"`
	Warm  mem.WarmKey  `json:"warm"`
}

// DonorKey returns the group's content address: a hex SHA-256 over the
// canonical recipe string and the warm key. Peers address donors by it,
// and home selection shards it over the peer list.
func DonorKey(r trace.Recipe, key mem.WarmKey) string {
	keyJSON, err := json.Marshal(key)
	if err != nil {
		// WarmKey is a plain struct of plain structs; Marshal cannot fail.
		panic(fmt.Sprintf("service: marshal warm key: %v", err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "ooosim-donor-v1\x00%s\x00", r.String())
	h.Write(keyJSON)
	return hex.EncodeToString(h.Sum(nil))
}

// home returns the node responsible for warming key, or "" when homing
// is disabled.
func (dx *DonorExchange) home(key string) string {
	if len(dx.peers) == 0 {
		return ""
	}
	return dx.peers[sim.ShardFor(key, len(dx.peers))]
}

// adopt fetches the group's donor from its home node when that is a
// peer. nil means the caller warms locally: this node is the home,
// homing is disabled, or the fetch failed.
func (dx *DonorExchange) adopt(key string, spec DonorSpec) *mem.Hierarchy {
	home := dx.home(key)
	if home == "" || home == dx.self {
		return nil
	}
	donor, err := dx.fetch(home, key, spec)
	if err != nil {
		dx.fetchFails.Add(1)
		return nil
	}
	dx.adopted.Add(1)
	return donor
}

// UseTransport swaps the fetch client's transport (chaos injection).
func (dx *DonorExchange) UseTransport(rt http.RoundTripper) {
	dx.client = &http.Client{Timeout: dx.client.Timeout, Transport: rt}
}

// maxDonorSnapshot bounds how much body a fetch will buffer for digest
// verification; donors are a few hundred KB, so 64 MB is pathology.
const maxDonorSnapshot = 64 << 20

// fetch retrieves (building on demand) the donor for spec, whose donor
// key is key, from peer, retrying transient transport failures and
// integrity mismatches a few times before the caller falls back to a
// local warm-up. The body is verified against the peer's snapshot
// digest header before a single byte of it is parsed.
func (dx *DonorExchange) fetch(peer, key string, spec DonorSpec) (*mem.Hierarchy, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	url := fmt.Sprintf("%s/v1/donors/%s?spec=%s",
		peer, key, base64.RawURLEncoding.EncodeToString(specJSON))
	retrier := &faults.Retrier{
		MaxAttempts: 3,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    time.Second,
		OnRetry:     func(int, error, time.Duration) { dx.fetchRetries.Add(1) },
	}
	var donor *mem.Hierarchy
	err = retrier.Do(nil, func() error {
		resp, err := dx.client.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			err := fmt.Errorf("service: donor fetch: %s: %s", resp.Status, bytes.TrimSpace(body))
			if resp.StatusCode >= 500 {
				// A 5xx home may just be mid-hiccup; 404/400 are terminal
				// (unwarmed or mismatched — retrying won't change them).
				return faults.MarkTransient(err)
			}
			return err
		}
		blob, err := io.ReadAll(io.LimitReader(resp.Body, maxDonorSnapshot))
		if err != nil {
			return faults.MarkTransient(fmt.Errorf("service: donor fetch: %w", err))
		}
		if want := resp.Header.Get(donorSumHeader); want != "" {
			sum := sha256.Sum256(blob)
			if hex.EncodeToString(sum[:]) != want {
				// Damaged in transit; the peer's copy is fine, refetch.
				return faults.MarkTransient(fmt.Errorf("service: donor fetch: snapshot digest mismatch"))
			}
		}
		d, err := mem.ReadSnapshot(bytes.NewReader(blob))
		if err != nil {
			return faults.MarkTransient(fmt.Errorf("service: donor fetch: %w", err))
		}
		if d.WarmKey() != spec.Warm {
			return fmt.Errorf("service: donor fetch: peer returned warm key %+v, want %+v",
				d.WarmKey(), spec.Warm)
		}
		donor = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	return donor, nil
}

// ServeHTTP answers GET /v1/donors/{key}: the serialised donor for the
// group, built on demand when the request carries the group's spec.
// Without a spec only already-warmed donors are served (404 otherwise);
// that lookup never adds to the donor memo, so requests for arbitrary
// keys cannot crowd warmed donors out of it.
func (dx *DonorExchange) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	var (
		g     donorGroup
		ready bool
		err   error
	)
	if raw := r.URL.Query().Get("spec"); raw != "" {
		spec, bad := parseDonorSpec(raw, key)
		if bad != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: bad.Error()})
			return
		}
		// Build here, never adopt: the requester chose this node as the
		// group's home.
		g, _, err = dx.node.warmDonor(key, spec.Trace, spec.Warm, nil, false)
		ready = true
	} else {
		g, ready, err = dx.node.groups.Peek(key)
	}
	if !ready {
		writeJSON(w, http.StatusNotFound, apiError{Error: "donor not warmed on this node"})
		return
	}
	if err != nil {
		// The build failed: the requester warms locally.
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	var buf bytes.Buffer
	if err := g.donor.WriteSnapshot(&buf); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	sum := sha256.Sum256(buf.Bytes())
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	w.Header().Set(donorSumHeader, hex.EncodeToString(sum[:]))
	if _, err := w.Write(buf.Bytes()); err == nil {
		dx.shipped.Add(1)
	}
}

// parseDonorSpec decodes a ?spec= query value and checks that it
// describes a valid group whose donor key is key.
func parseDonorSpec(raw, key string) (DonorSpec, error) {
	var spec DonorSpec
	specJSON, err := base64.RawURLEncoding.DecodeString(raw)
	if err != nil {
		return spec, fmt.Errorf("bad spec encoding: %v", err)
	}
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return spec, fmt.Errorf("bad spec: %v", err)
	}
	if err := spec.Trace.Validate(); err != nil {
		return spec, err
	}
	if DonorKey(spec.Trace, spec.Warm) != key {
		return spec, fmt.Errorf("spec does not hash to the requested donor key")
	}
	return spec, nil
}

// writeMetrics renders the exchange counters (part of the scheduler's
// /metrics surface).
func (dx *DonorExchange) writeMetrics(w io.Writer) {
	WriteMetric(w, "counter", "ooosim_donors_adopted_total", "Warm donors adopted from a peer instead of warming locally.", Val(dx.adopted.Load()))
	WriteMetric(w, "counter", "ooosim_donors_shipped_total", "Warm donors served to peers.", Val(dx.shipped.Load()))
	WriteMetric(w, "counter", "ooosim_donor_fetch_retries_total", "Donor fetch attempts retried after a transient failure.", Val(dx.fetchRetries.Load()))
	WriteMetric(w, "counter", "ooosim_donor_fetch_failures_total", "Peer donor fetches that fell back to a local warm-up.", Val(dx.fetchFails.Load()))
}

// Stats reports the exchange counters and the attached node's local
// donor builds (tests and operator tooling).
func (dx *DonorExchange) Stats() (adopted, built, shipped, fetchFails uint64) {
	return dx.adopted.Load(), dx.node.metrics.WarmBuilds.Load(), dx.shipped.Load(), dx.fetchFails.Load()
}
