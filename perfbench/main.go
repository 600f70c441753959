// Command perfbench is the repository benchmark for minsim. It runs
// one workload for a fixed measurement window, checks that every
// output is correct, and prints the workload's metrics — end-to-end
// metrics untraced, per-layer metrics with -trace 1 — ending with one
// JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload paper-cold --seed 1 --seconds 30 --trace 0
//
// Workloads: paper-cold, simd-open, fleet-cold (see
// README.md). All inputs derive from --seed; the program under test
// receives only the generated inputs. Scratch files live under
// --workdir, which is removed when the run ends. The exit code is 0
// only when every correctness check passed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricUnits declares every metric the benchmark prints, with its
// unit; BENCHMARK.json must declare the same names and units (the
// package tests enforce it). Every workload prints every metric of its
// run's kind: a workload that bypasses a layer reports that layer's
// counts as 0 (see runReport.bypassed), and every timing is measured on
// every workload. Timings that exist on one workload only (server job
// and queue times, fleet round trips, store latencies, generator
// lateness) are printed as notes in the summary instead.
var metricUnits = map[string]string{
	// End to end.
	"setup_s":     "s",
	"wall_s":      "s",
	"peak_rss_mb": "MiB",
	"ok_ratio":    "ratio",

	// Per layer: engine.
	"engine.ns_per_cycle":       "ns",
	"engine.new_ms":             "ms",
	"engine.cycles":             "count",
	"engine.delivered_flits":    "count",
	"engine.injected_flits":     "count",
	"engine.idle_skipped_share": "ratio",
	"engine.stall_share":        "ratio",
	// topology, routing and traffic
	"topology.build_ms":   "ms",
	"routing.factored_ms": "ms",
	"routing.bytes":       "bytes",
	"traffic.next_calls":  "count",
	"traffic.next_ns":     "ns",
	"traffic.factory_ms":  "ms",
	// simrun
	"simrun.fingerprint_ms":  "ms",
	"simrun.key_us":          "us",
	"simrun.store_gets":      "count",
	"simrun.store_hits":      "count",
	"simrun.points_executed": "count",
	"simrun.points_cached":   "count",
	// experiments, server and fleet
	"experiments.claims_passed":  "count",
	"server.requests":            "count",
	"server.rejected":            "count",
	"fleet.leases":               "count",
	"fleet.duplicate_executions": "count",
	// the benchmark itself
	"bench.trace_overhead_s": "s",
}

// endToEnd lists the metrics printed untraced; every other declared
// metric is per layer and printed only with -trace 1.
var endToEnd = map[string]bool{"setup_s": true, "wall_s": true, "peak_rss_mb": true, "ok_ratio": true}

// sizes fixes the amount of work each workload does. fullSize is what
// BENCHMARK.json describes; the tests run tinySize.
type sizes struct {
	minReps   int // timed reps per run, at least
	setupReps int // set-ups per run where set-up is not part of every rep (simd-open)

	paperWarmup, paperMeasure int64 // paper-cold cycle budget per point
	fleetWarmup, fleetMeasure int64 // fleet-cold cycle budget per point

	// simd-open: pre-warm budget of the ten panels, cold request budget,
	// arrival rates (requests/s), least requests per rate and one cold
	// request in coldEvery; the open loop gets openShare of the window,
	// closed-loop bursts of burstN requests the rest.
	warmWarmup, warmMeasure int64
	coldWarmup, coldMeasure int64
	loRate, hiRate          float64
	block                   time.Duration // schedule block; lo and hi blocks alternate
	minPhaseN               int
	coldEvery               int
	minTail                 float64 // percentile the open-loop latencies must be entitled to
	openShare               float64
	burstN                  int
}

var fullSize = sizes{
	minReps:      5,
	setupReps:    7,
	paperWarmup:  1_000,
	paperMeasure: 3_000,
	fleetWarmup:  500,
	fleetMeasure: 2_000,
	warmWarmup:   500,
	warmMeasure:  1_500,
	coldWarmup:   1_000,
	coldMeasure:  4_000,
	loRate:       100,
	hiRate:       250,
	block:        time.Second,
	minPhaseN:    1_050,
	coldEvery:    10,
	minTail:      99,
	openShare:    0.5,
	burstN:       200,
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	window  time.Duration // measurement window
	trace   bool
	workdir string
	workers int // simulation workers and client connections: nproc, at most 2
	size    sizes
}

// runReport collects one run's metrics, operation counts and check
// failures.
type runReport struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	failures  []string
	notes     []string
}

func newReport() *runReport { return &runReport{metrics: map[string]float64{}} }

// set records a metric; the name must be declared in metricUnits.
func (r *runReport) set(name string, v float64) {
	if _, ok := metricUnits[name]; !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.metrics[name] = v
}

// check records a correctness failure when ok is false.
func (r *runReport) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// bypassed records 0 for counts of layers the workload does not call.
func (r *runReport) bypassed(names ...string) {
	for _, name := range names {
		if metricUnits[name] != "count" {
			panic("perfbench: only counts can be bypassed: " + name)
		}
		r.set(name, 0)
	}
}

func (r *runReport) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// missing lists the metrics of the run's kind (end-to-end or per-layer)
// the run did not record.
func (r *runReport) missing(traced bool) []string {
	var out []string
	for name := range metricUnits {
		if _, ok := r.metrics[name]; !ok && endToEnd[name] != traced {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// print writes the human-readable summary and then the JSON result as
// the last line. Only the metrics of the run's kind (end-to-end or
// per-layer) go into the JSON line, and all of them must be there.
func (r *runReport) print(w io.Writer, traced bool) error {
	if m := r.missing(traced); len(m) > 0 {
		return fmt.Errorf("metrics not recorded: %v", m)
	}
	bw := bufio.NewWriter(w)
	for _, n := range r.notes {
		fmt.Fprintln(bw, n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(bw, "CHECK FAILED:", f)
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	line := resultLine{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, name := range names {
		v := r.metrics[name]
		fmt.Fprintf(bw, "%-36s %14.6g %s\n", name, v, metricUnits[name])
		if endToEnd[name] != traced {
			line.Metrics[name] = metricValue{Value: v, Unit: metricUnits[name]}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	bw.Write(data)
	bw.WriteByte('\n')
	return bw.Flush()
}

var workloads = map[string]func(cfg config, r *runReport) error{
	"paper-cold": runPaperCold,
	"simd-open":  runSimdOpen,
	"fleet-cold": runFleetCold,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: paper-cold, simd-open or fleet-cold")
	seedArg := fs.String("seed", "1", "workload seed, any 64-bit integer; the same seed gives the same inputs")
	secs := fs.Int("seconds", 30, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory, removed at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seed, err := parseSeed(*seedArg)
	fn, ok := workloads[*workload]
	if err != nil || !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of paper-cold, simd-open, fleet-cold; an integer --seed; --seconds >= 1; --trace 0|1\n")
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", *workload, seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: workdir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{
		seed:    seed,
		window:  time.Duration(*secs) * time.Second,
		trace:   *trace == 1,
		workdir: dir,
		workers: min(runtime.NumCPU(), 2),
		size:    fullSize,
	}
	r := newReport()
	if err := fn(cfg, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := r.print(stdout, cfg.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(r.failures) > 0 {
		return 1
	}
	return 0
}

// parseSeed accepts any signed or unsigned 64-bit integer; a negative
// seed maps to its two's-complement bits.
func parseSeed(s string) (uint64, error) {
	if u, err := strconv.ParseUint(s, 10, 64); err == nil {
		return u, nil
	}
	i, err := strconv.ParseInt(s, 10, 64)
	return uint64(i), err
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// repeat runs fn for rep = 0, 1, ... until the window has elapsed and
// at least minReps reps have run.
func repeat(window time.Duration, minReps int, fn func(rep int) error) error {
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start) < window; rep++ {
		if err := fn(rep); err != nil {
			return err
		}
	}
	return nil
}

// mkScratch creates a fresh directory under the run's workdir.
func mkScratch(cfg config, name string) (string, error) {
	return os.MkdirTemp(cfg.workdir, name+"-")
}
