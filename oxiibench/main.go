// Command oxiibench is the repository's end-to-end benchmark. It deploys
// OXII in-process through oxii.New, drives it with a closed loop from one
// client endpoint, checks the outcome, and prints one JSON result line.
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash oxiibench/run.sh --workload signed --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it makes the end-to-end run: tracing off, set-up timed
// over several fresh deployments, then a warm-up and a measurement window
// on the last one. With --trace 1 it makes an untraced run and a traced
// run of the same workload and reports per-layer metrics: the traced run
// times calls into each layer from outside the program (a wrapping
// contract, a passive transport probe and the executor's block tracer),
// and offline replays of the same seeded blocks time the dependency-graph,
// state and crypto layers alone.
//
// Every run passes a correctness gate before anything is reported. A run
// that fails it prints "correct": false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

const (
	warmup    = 2 * time.Second
	setupReps = 5 // set-up is timed on this many fresh deployments
	// End-to-end figures are medians over parts of the window this long:
	// the host's speed swings for a few seconds at a time, and the median
	// over the parts leaves such a swing out. A part still holds over ten
	// of bigblock's 1000-transaction blocks.
	partLength         = 5 * time.Second
	firstCommitTimeout = 20 * time.Second
	drainTimeout       = 30 * time.Second
	// runLimit stops a wedged run before the 180 s a run may take.
	runLimit = 170 * time.Second
)

// options are one run's settings.
type options struct {
	spec   spec
	seed   int64
	window time.Duration
	warmup time.Duration
	trace  bool
	parts  int
	// setupReps, drain and replayTxns shrink in tests.
	setupReps  int
	drain      time.Duration
	replayTxns int
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is printed on the line before the result: where and on what the
// numbers were measured, the input's identity and the latency sample
// counts.
type detail struct {
	CPUModel     string    `json:"cpu_model"`
	NProc        int       `json:"nproc"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	GoVersion    string    `json:"go_version"`
	Commit       string    `json:"commit"`
	Seed         int64     `json:"seed"`
	Workload     spec      `json:"workload"`
	WindowS      float64   `json:"window_s"`
	Trace        bool      `json:"trace"`
	StreamDigest string    `json:"stream_digest"`
	LatSamples   int       `json:"lat_samples,omitempty"`
	BeyondP99    int       `json:"lat_fewest_beyond_p99_in_a_part,omitempty"`
	StealFrac    float64   `json:"host_steal_frac"`
	SetupRuns    []float64 `json:"setup_s_runs,omitempty"`
	RSSAtEnd     bool      `json:"rss_read_at_end,omitempty"`
	Error        string    `json:"error,omitempty"`
}

// Units of every metric the benchmark reports.
var units = map[string]string{
	"tput_tx_s":     "tx/s",
	"lat_p50_ms":    "ms",
	"lat_p99_ms":    "ms",
	"cpu_us_per_tx": "us",
	"rss_peak_mb":   "MiB",
	"setup_s":       "s",

	"client.submit_us_p50":               "us",
	"ordering.submit_to_cut_ms_p50":      "ms",
	"ordering.submit_to_cut_ms_p99":      "ms",
	"ordering.txns_per_block":            "count",
	"ordering.graph_build_us_per_block":  "us",
	"ordering.rejected_frac":             "ratio",
	"consensus.msgs_per_block":           "count",
	"transport.msgs_per_tx":              "count",
	"transport.bytes_per_tx":             "B",
	"transport.block_bytes_per_tx":       "B",
	"execution.cut_to_commit_ms_p50":     "ms",
	"execution.cut_to_commit_ms_p99":     "ms",
	"execution.exec_calls_per_tx":        "ratio",
	"execution.parallelism":              "ratio",
	"execution.hot_chain_gap_us_p50":     "us",
	"execution.dropped_future":           "count",
	"execution.commit_msgs_per_block":    "count",
	"execution.stage.admission_ms_p50":   "ms",
	"execution.stage.dispatch_ms_p50":    "ms",
	"execution.stage.execute_ms_p50":     "ms",
	"execution.stage.seal_ms_p50":        "ms",
	"execution.stage.finalize_ms_p50":    "ms",
	"execution.stage.externalize_ms_p50": "ms",
	"contract.us_per_call":               "us",
	"depgraph.append_us_per_block":       "us",
	"depgraph.critical_path_len":         "count",
	"depgraph.ideal_speedup":             "ratio",
	"state.overlay_record_us_per_block":  "us",
	"state.apply_us_per_block":           "us",
	"crypto.verify_us":                   "us",
	"crypto.sign_us":                     "us",
	"go.alloc_bytes_per_tx":              "B",
	"go.gc_cpu_frac":                     "ratio",
	"telemetry.trace_tput_ratio":         "ratio",
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("oxiibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: bigblock, signed or contended")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 15, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := specByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: oxiibench --workload bigblock|signed|contended --seed N --seconds S --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	stopWatchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "oxiibench: run exceeded %s; giving up\n", runLimit)
		os.Exit(1)
	})
	defer stopWatchdog.Stop()

	opts := options{
		spec:       sp,
		seed:       *seed,
		window:     time.Duration(*seconds) * time.Second,
		warmup:     warmup,
		trace:      *trace == 1,
		parts:      partsOf(time.Duration(*seconds) * time.Second),
		setupReps:  setupReps,
		drain:      drainTimeout,
		replayTxns: digestTxns,
	}
	res, det, err := run(opts)
	det.CPUModel, det.NProc, det.GOMAXPROCS = cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0)
	det.GoVersion, det.Commit = runtime.Version(), commit()
	det.Seed, det.Workload, det.WindowS, det.Trace = opts.seed, sp, opts.window.Seconds(), opts.trace
	if err != nil {
		det.Error = err.Error()
		fmt.Fprintf(stderr, "oxiibench: %s: %v\n", sp.Name, err)
	}
	enc := json.NewEncoder(stdout)
	_ = enc.Encode(det) // a failed write to stdout surfaces on the result line
	if encErr := enc.Encode(res); encErr != nil {
		fmt.Fprintf(stderr, "oxiibench: writing result: %v\n", encErr)
		return 1
	}
	if err != nil {
		return 1
	}
	return 0
}

// run makes one run and returns its result. A run that fails the
// correctness gate returns an error and a result marked incorrect.
func run(o options) (result, detail, error) {
	res := result{Metrics: make(map[string]metric)}
	var det detail
	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: units[name]} }

	if !o.trace {
		w, d, setups, err := endToEnd(o, false)
		det.SetupRuns = setups
		if w != nil {
			res.Attempted, res.Failed = w.attempted, w.failed
			det.LatSamples, det.BeyondP99 = latDetail(w)
			det.StealFrac = w.stealFrac()
			det.StreamDigest = d.load.src.digest()
		}
		if err != nil {
			return res, det, err
		}
		put("tput_tx_s", w.medianOf(func(p partStats) float64 { return p.tput }))
		put("lat_p50_ms", w.medianOf(func(p partStats) float64 { return float64(p.latP50) / 1e6 }))
		put("lat_p99_ms", w.medianOf(func(p partStats) float64 { return float64(p.latP99) / 1e6 }))
		put("cpu_us_per_tx", w.medianOf(func(p partStats) float64 { return p.cpuUsPerTx }))
		d.load.mu.Lock()
		rss := d.load.rssMiB
		d.load.mu.Unlock()
		if rss == 0 { // too slow to commit RSSAfterTxns: the whole run's peak
			rss = peakRSSMiB()
			det.RSSAtEnd = true
		}
		put("rss_peak_mb", rss)
		put("setup_s", median(setups))
		res.Correct = true
		return res, det, nil
	}

	// The traced run and its untraced twin each measure half the window.
	o.window /= 2
	o.parts = partsOf(o.window)
	o.setupReps = 1
	plain, _, _, err := endToEnd(o, false)
	if plain != nil {
		res.Attempted, res.Failed = plain.attempted, plain.failed
	}
	if err != nil {
		return res, det, fmt.Errorf("untraced run: %w", err)
	}
	traced, d, _, err := endToEnd(o, true)
	if traced != nil {
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		det.LatSamples, det.BeyondP99 = latDetail(traced)
		det.StealFrac = traced.stealFrac()
		det.StreamDigest = d.load.src.digest()
	}
	if err != nil {
		return res, det, fmt.Errorf("traced run: %w", err)
	}
	for name, v := range d.layerMetrics(traced) {
		put(name, v)
	}
	tput := func(p partStats) float64 { return p.tput }
	put("telemetry.trace_tput_ratio", traced.medianOf(tput)/plain.medianOf(tput))
	offline, replayed, err := replay(o.spec, o.seed, o.replayTxns)
	if err != nil {
		return res, det, err
	}
	if o.replayTxns >= digestTxns && replayed != det.StreamDigest {
		return res, det, fmt.Errorf("replayed stream digest %s differs from the live stream's %s", replayed, det.StreamDigest)
	}
	for name, v := range offline {
		put(name, v)
	}
	res.Correct = true
	return res, det, nil
}

// endToEnd deploys the workload, waits for the first commit, measures one
// window, drains and gates the run. Set-up is timed on o.setupReps fresh
// deployments and the last one is measured; the set-up times come back in
// deployment order.
func endToEnd(o options, traced bool) (*window, *deployment, []float64, error) {
	reps := max(o.setupReps, 1)
	var setups []float64
	var d *deployment
	for i := 0; i < reps; i++ {
		if d != nil {
			d.close()
		}
		runtime.GC() // leave the previous deployment's garbage out of this one
		var err error
		d, err = newDeployment(o.spec, o.seed, traced, nil)
		if err != nil {
			return nil, nil, setups, err
		}
		d.start()
		setup, err := d.awaitFirstCommit(firstCommitTimeout)
		if err != nil {
			d.close()
			return nil, nil, setups, err
		}
		setups = append(setups, setup.Seconds())
	}
	defer d.close()
	w := d.measure(o.warmup, o.window, o.parts)
	d.drain(o.drain)
	d.summarize(w)
	return w, d, setups, d.gate(w)
}

// partsOf returns how many parts of about partLength a window is cut into.
func partsOf(window time.Duration) int {
	return max(1, int(window/partLength))
}

// latDetail returns a window's latency sample count and the fewest
// samples beyond p99 in any of its parts.
func latDetail(w *window) (int, int) {
	beyond := -1
	for _, p := range w.parts {
		if beyond < 0 || p.latBeyondP99 < beyond {
			beyond = p.latBeyondP99
		}
	}
	return w.committed, beyond
}

// cpuModel names the host CPU, from the kernel's description of it.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision the binary was built from, when it was
// built inside a git work tree.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	switch {
	case rev == "":
		return "unknown (not built in a git work tree)"
	case dirty:
		return rev + "+modified"
	}
	return rev
}
