package fleet

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/service"
	"repro/internal/trace"
)

// metricSample matches one exposition sample line: name, optional
// label block, value.
var metricSample = regexp.MustCompile(`^([a-z_]+)(\{[^}]*\})? \S+$`)

var labelValue = regexp.MustCompile(`="[^"]*"`)

// maskExposition keeps every metric name, HELP text, TYPE, label key
// and the line order of a /metrics body, and replaces sample values
// with V and node label values with URL: the shape is the contract
// dashboards, the benchmark and CI scrape by name, the values are not.
func maskExposition(body string) string {
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if m := metricSample.FindStringSubmatch(line); m != nil && !strings.HasPrefix(line, "#") {
			labels := labelValue.ReplaceAllString(m[2], `="URL"`)
			line = m[1] + labels + " V"
		}
		out.WriteString(line + "\n")
	}
	return out.String()
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: %s", url, resp.Status)
	}
	return string(body)
}

// TestMetricsExpositionGolden pins the /metrics surface of one worker
// with a donor exchange and of one coordinator in front of it, each
// after one small batch, against testdata/metrics_golden.txt (values
// and node URLs masked). Regenerate with GEN_GOLDEN=1 only for a change
// that is meant to alter the exposition.
func TestMetricsExpositionGolden(t *testing.T) {
	const path = "testdata/metrics_golden.txt"
	var worker http.Handler
	wsrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		worker.ServeHTTP(w, r)
	}))
	defer wsrv.Close()
	sched := service.NewScheduler(service.SchedulerOptions{
		Workers: 1,
		Donors:  service.NewDonorExchange(wsrv.URL, []string{wsrv.URL}),
	})
	worker = service.NewHandler(sched)

	coord, err := New(Options{Workers: []string{wsrv.URL}, PingInterval: time.Hour})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	csrv := httptest.NewServer(NewHandler(coord))
	defer csrv.Close()

	r := trace.Recipe{Kernel: trace.KernelStream, N: 6000}
	jobs := []service.Job{
		{Name: "a", Config: config.CheckpointDefault(32, 512), Trace: r, Insts: 1500},
		{Name: "b", Config: config.CheckpointDefault(64, 512), Trace: r, Insts: 1500},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := (&service.Client{BaseURL: csrv.URL}).Run(ctx, jobs, nil); err != nil {
		t.Fatalf("batch: %v", err)
	}

	got := "# worker\n" + maskExposition(scrapeMetrics(t, wsrv.URL)) +
		"# coordinator\n" + maskExposition(scrapeMetrics(t, csrv.URL))
	if os.Getenv("GEN_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			g, w := "", ""
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("exposition diverges at line %d:\n got: %q\nwant: %q", i+1, g, w)
			}
		}
	}
}
