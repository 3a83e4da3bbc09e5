package main

import (
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"parblockchain/internal/execution"
	"parblockchain/internal/ordering"
	"parblockchain/internal/telemetry"
)

// counters is a snapshot of every cumulative counter the benchmark reads,
// taken at both ends of the measurement window.
type counters struct {
	at       int64 // ns since the deployment began
	cpu      time.Duration
	msgs     int64
	bytes    int64
	orderers []ordering.Stats
	execs    []execution.Stats
	alloc    float64 // heap bytes allocated
	gcCPU    float64 // GC CPU seconds (runtime estimate)
	totalCPU float64 // all CPU seconds (runtime estimate)
	// Host CPU ticks, all and stolen by the hypervisor, when the kernel
	// reports them.
	hostTicks, stealTicks uint64
	// Traced deployments only.
	calls, busyNs, consensusMsgs, blockBytes int64
	stages                                   map[string]telemetry.HistogramSnapshot
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func (d *deployment) snapshot() counters {
	c := counters{
		at:    d.load.now(),
		cpu:   processCPU(),
		msgs:  d.net.MessageCount(""),
		bytes: d.net.BytesSent(),
	}
	c.hostTicks, c.stealTicks = hostCPUTicks()
	for _, o := range d.nw.Orderers {
		c.orderers = append(c.orderers, o.Stats())
	}
	for _, e := range d.nw.Executors {
		c.execs = append(c.execs, e.Stats())
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	c.alloc = float64(samples[0].Value.Uint64())
	c.gcCPU = samples[1].Value.Float64()
	c.totalCPU = samples[2].Value.Float64()
	if d.ctr != nil {
		c.calls, c.busyNs = d.ctr.calls.Load(), d.ctr.busyNs.Load()
		c.consensusMsgs, c.blockBytes = d.probe.consensusMsgs.Load(), d.probe.blockBytes.Load()
		c.stages = d.nw.Executors[0].Tracer().StageSnapshot()
	}
	return c
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPUTicks returns the host's total and stolen CPU ticks from
// /proc/stat, or zeros where the kernel does not provide them.
func hostCPUTicks() (total, steal uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealFrac is the share of host CPU time the hypervisor gave to other
// machines during the window: a slow point with a high share was slowed
// by its host, not by the program.
func (w *window) stealFrac() float64 {
	if w.c1.hostTicks <= w.c0.hostTicks {
		return 0
	}
	return float64(w.c1.stealTicks-w.c0.stealTicks) / float64(w.c1.hostTicks-w.c0.hostTicks)
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// window is one measurement window and what happened in it. The window
// is cut into equal parts; each end-to-end figure is the median of its
// per-part values, so a stretch of a few seconds that the host slowed
// down does not move it.
type window struct {
	marks  []counters // snapshots at the start, every part boundary and the end
	c0, c1 counters   // the first and last mark

	// Filled by summarize once the run is drained.
	attempted, failed int
	committed         int // transactions committed in the window
	parts             []partStats
}

// partStats are the end-to-end figures of one part of the window.
type partStats struct {
	tput           float64 // tx/s between the part's first and last commit
	latP50, latP99 int64   // exact, from the part's per-transaction samples
	latBeyondP99   int
	cpuUsPerTx     float64
}

// measure waits out the warm-up, then snapshots the counters at the
// boundaries of a window of length dur cut into parts.
func (d *deployment) measure(warmup, dur time.Duration, parts int) *window {
	time.Sleep(warmup)
	w := &window{marks: []counters{d.snapshot()}}
	for i := 1; i <= parts; i++ {
		time.Sleep(time.Until(d.base.Add(time.Duration(w.marks[0].at) + dur*time.Duration(i)/time.Duration(parts))))
		w.marks = append(w.marks, d.snapshot())
	}
	w.c0, w.c1 = w.marks[0], w.marks[parts]
	return w
}

func (w *window) contains(t int64) bool { return t >= w.c0.at && t < w.c1.at }

func (w *window) seconds() float64 { return float64(w.c1.at-w.c0.at) / 1e9 }

// summarize computes the end-to-end figures of a drained run. A
// transaction counts as attempted when it was submitted in the window, and
// as failed when it aborted, was refused or never committed.
func (d *deployment) summarize(w *window) {
	l := d.load
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.done {
		if w.contains(r.submit) {
			w.attempted++
			if r.aborted {
				w.failed++
			}
		}
		if w.contains(r.commit) && !r.aborted {
			w.committed++
		}
	}
	for _, t := range l.pending {
		if w.contains(t) {
			w.attempted++
			w.failed++
		}
	}
	for _, t := range l.sendFailed {
		if w.contains(t) {
			w.attempted++
			w.failed++
		}
	}
	for i := 1; i < len(w.marks); i++ {
		w.parts = append(w.parts, l.part(w.marks[i-1], w.marks[i]))
	}
}

// part computes one part's figures; l.mu must be held.
func (l *loader) part(from, to counters) partStats {
	var p partStats
	in := func(t int64) bool { return t >= from.at && t < to.at }
	var lat []int64
	for _, r := range l.done {
		if in(r.commit) && !r.aborted {
			lat = append(lat, r.commit-r.submit)
		}
	}
	slices.Sort(lat)
	if len(lat) > 0 {
		p.latP50, _ = percentile(lat, 0.50)
		p.latP99, p.latBeyondP99 = percentile(lat, 0.99)
	}

	// Commits arrive a block at a time, so the rate is taken between the
	// part's first and last commit: a block more or less at either edge
	// then moves neither the count nor the time span.
	first, last, txns := int64(-1), int64(0), 0
	for _, c := range l.commits {
		if !in(c.at) {
			continue
		}
		if first < 0 {
			first = c.at
		} else {
			txns += c.txns
		}
		last = c.at
	}
	secs := float64(to.at-from.at) / 1e9
	if first >= 0 && last > first {
		p.tput = float64(txns) / (float64(last-first) / 1e9)
	} else {
		p.tput = float64(len(lat)) / secs
	}
	if p.tput > 0 {
		cpuPerSec := float64(to.cpu-from.cpu) / 1e3 / secs // µs of CPU per second
		p.cpuUsPerTx = cpuPerSec / p.tput
	}
	return p
}

// medianOf returns the median over the window's parts of one figure.
func (w *window) medianOf(f func(partStats) float64) float64 {
	xs := make([]float64, len(w.parts))
	for i, p := range w.parts {
		xs[i] = f(p)
	}
	return median(xs)
}

// percentile returns the nearest-rank q-quantile of sorted samples and
// the number of samples ranked above it.
func percentile(sorted []int64, q float64) (int64, int) {
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = max(rank, 1)
	return sorted[rank-1], len(sorted) - rank
}

// median returns the middle of unsorted samples (the mean of the middle
// two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
