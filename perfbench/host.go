package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// host records where a run was measured, so a reader can confirm that
// two runs they compare shared a host and normalise across hosts by the
// calibration time. The calibration is a record, not a gate.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	CPU        string  `json:"cpu"`
	CalibMS    float64 `json:"calib_ms"`
}

func recordHost() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		CalibMS:    calibrate(),
	}
}

// cpuModel reads the first model name of /proc/cpuinfo ("unknown" off
// Linux).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var calibSink uint64

// calibrate times a fixed single-threaded integer loop (xorshift, 2^24
// steps) five times and returns the median in ms.
func calibrate() float64 {
	var times []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		x := uint64(i) + 0x9e3779b97f4a7c15
		for j := 0; j < 1<<24; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		times = append(times, ms(time.Since(t0)))
	}
	return median(times)
}

// rssMB is the process's resident set (VmRSS) in MiB, falling back to
// the Go runtime's total mapped memory off Linux.
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(l, "VmRSS:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return float64(readMetric("/memory/classes/total:bytes")) / (1 << 20)
}

// rssSampler samples the resident set every 50 ms until stopped.
// The garbage-collected heap saw-tooths between its live size and the
// collector's goal, so the all-time high-water mark is an extreme value
// of that noise; the 95th percentile of the samples is the top of the
// saw-tooth and repeats from run to run.
type rssSampler struct {
	once    sync.Once
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			s.samples = append(s.samples, rssMB())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// peakMB stops the sampler (if still running) and returns the 95th
// percentile of its samples.
func (s *rssSampler) peakMB() float64 {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	return quantile(s.samples, 0.95)
}

// settle collects the set-up's garbage and returns it to the OS before
// the measured window, so neither the window's time nor its resident
// set carries the set-up's leftovers.
func settle() { debug.FreeOSMemory() }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs is the number of heap objects the process has allocated.
func heapAllocs() uint64 { return readMetric("/gc/heap/allocs:objects") }

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
