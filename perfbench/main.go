// Command perfbench is the repository's performance benchmark: it drives a
// four-node loopback TCP cluster through the public API (NewTCPNode and
// dlclient) and a sixteen-node emulated geo cluster through the harness,
// checks that every run's output is correct, and prints its metrics.
//
//	perfbench --workload small-256 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of one untraced run; with
// --trace 1 it runs untraced and then traced (node telemetry on, CPU
// profile of this process) and prints the per-layer metrics, followed by
// single-layer replays on inputs shaped like the run's blocks. The last
// line of standard output is one JSON object; README.md lists every
// metric with its unit and base.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// closedWindow is the bulk workload's submissions in flight per
// connection: past the point where the window limits throughput.
const closedWindow = 1024

// lateLimit rejects an open-loop run whose generator fell behind its
// schedule. Latency is timed from the due time, so lateness below the
// limit is counted in it; beyond the limit (a quarter of small-256's p50)
// the latencies would describe the generator, not the ledger.
const lateLimit = 50 * time.Millisecond

// subWindows splits the measurement window into equal parts. Rates,
// latencies and CPU cost are medians over the parts, so a burst of noise
// from other tenants of the host moves one part rather than the result.
const subWindows = 5

// subWindow is what one part of the window measured.
type subWindow struct {
	mbps  float64 // commit rate as reported (geo: paper-equivalent)
	bytes float64 // committed payload, the base of cpu
	cpu   time.Duration
	lat   []time.Duration // live: transactions started in the part
}

// setupReps is how often an untraced run sets a cluster up; setup_s is
// the median.
const setupReps = 5

type passConfig struct {
	seed      int64
	window    time.Duration // measurement window (geo: see geoPerSec)
	setupReps int
	traced    bool
	scratch   string // a directory inside the checkout for data files
	closedWin int
}

// passResult is what one pass over a workload measured.
type passResult struct {
	setups            []time.Duration
	attempted, failed int
	subs              []subWindow
	// Summaries: finish derives them from subs, except that geo sets
	// p50ms, p99ms and samples itself (per-node quantiles averaged over
	// nodes).
	p50ms, p99ms  float64
	samples       int
	mbps          float64
	cpuPerMB      float64
	windowBytes   float64 // committed payload in the whole window
	windowTxs     float64
	virtualWindow time.Duration // geo: the window on the virtual clock
	win           windowStats
	submit        []time.Duration
	verify        []time.Duration
	late          []time.Duration
	deliveries    deliveryStats
	shape         blockShape
	layer         metricSet // traced: telemetry-derived metrics
}

var workloads = map[string]func(passConfig) (*passResult, error){
	"small-256": func(c passConfig) (*passResult, error) {
		return runLive(liveSpec{txSize: 256, openRate: 12000}, c)
	},
	"bulk-4k-durable": func(c passConfig) (*passResult, error) {
		return runLive(liveSpec{txSize: 4096, durable: true, window: c.closedWin}, c)
	},
	"geo16-emu": runGeo,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: small-256, bulk-4k-durable or geo16-emu")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	window := fs.Int("window", closedWindow, "closed loop: submissions in flight per connection")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *window < 1 {
		fmt.Fprintf(stderr, "perfbench: need --workload (small-256, bulk-4k-durable, geo16-emu), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	scratch, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("perfbench-run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(scratch, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	cfg := passConfig{
		seed: *seed, window: time.Duration(*seconds) * time.Second,
		setupReps: setupReps, scratch: scratch, closedWin: *window,
	}

	// Each pass starts with the heap returned to the OS, so the traced
	// pass does not run on memory the untraced one already mapped.
	pass := func(cfg passConfig) (*passResult, error) {
		debug.FreeOSMemory()
		return wl(cfg)
	}
	var (
		m    metricSet
		defs []metricDef
		res  *passResult
	)
	if *trace == 0 {
		res, err = pass(cfg)
		if err == nil {
			m, err = endToEndMetrics(res)
		}
		defs = endToEnd
	} else {
		cfg.setupReps = 1
		var base *passResult
		if base, err = pass(cfg); err == nil {
			cfg.traced = true
			if res, err = pass(cfg); err == nil {
				m, err = perLayerMetrics(base, res, cfg)
			}
		}
		defs = perLayer
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: run rejected: %v\n", *name, err)
		return 1
	}
	vals, err := m.ordered(defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d window %ds trace %d: %d attempted, %d failed, %d latency samples\n",
		*name, *seed, *seconds, *trace, res.attempted, res.failed, res.samples)
	out := map[string]any{}
	for i, d := range defs {
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", d.name, vals[i], d.unit)
		out[d.name] = map[string]any{"value": vals[i], "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// finish derives the summary numbers every pass shares and rejects a run
// the generator could not drive.
func finish(r *passResult) error {
	if r.attempted == 0 {
		return errors.New("no transaction attempted")
	}
	var rates, cpus, p50s, p99s []float64
	for _, sw := range r.subs {
		if sw.bytes == 0 {
			return errors.New("a part of the measurement window committed nothing")
		}
		rates = append(rates, sw.mbps)
		cpus = append(cpus, sw.cpu.Seconds()/(sw.bytes/mb))
		if sw.lat != nil {
			p50s = append(p50s, ms(quantile(sw.lat, 0.50)))
			p99s = append(p99s, ms(quantile(sw.lat, 0.99)))
			r.samples += len(sw.lat)
		}
	}
	if len(rates) == 0 {
		return errors.New("nothing measured")
	}
	r.mbps, r.cpuPerMB = median(rates), median(cpus)
	if p50s != nil {
		r.p50ms, r.p99ms = median(p50s), median(p99s)
	}
	if r.samples == 0 {
		return errors.New("no latency sample in the measurement window")
	}
	if late := quantile(r.late, 0.99); late > lateLimit {
		return fmt.Errorf("load generator fell behind: p99 lateness %v > %v", late, lateLimit)
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func endToEndMetrics(r *passResult) (metricSet, error) {
	if err := finish(r); err != nil {
		return nil, err
	}
	setups := append([]time.Duration(nil), r.setups...)
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	m := metricSet{
		"commit_mb_s":   r.mbps,
		"commit_p50_ms": r.p50ms,
		"commit_p99_ms": r.p99ms,
		"cpu_s_per_mb":  r.cpuPerMB,
		"commit_ratio":  float64(r.attempted-r.failed) / float64(r.attempted),
		"setup_s":       setups[len(setups)/2].Seconds(),
		"max_rss_mb":    maxRSSMB(),
	}
	return m, finite(m)
}

// profileTolerance bounds how far the CPU profile's total may stray from
// getrusage over the same window before attribution is not trusted.
const profileTolerance = 0.15

func perLayerMetrics(base, r *passResult, cfg passConfig) (metricSet, error) {
	if err := finish(base); err != nil {
		return nil, err
	}
	if err := finish(r); err != nil {
		return nil, err
	}
	m := metricSet{}
	for k, v := range r.layer {
		m[k] = v
	}
	committedMB := r.windowBytes / mb
	a := attribute(r.win.profile)
	for _, l := range cpuLayers {
		m["cpu."+l+".ms_per_mb"] = float64(a.byLayer[l]) / 1e6 / committedMB
	}
	m["cpu.txhash.ms_per_mb"] = float64(a.txHash) / 1e6 / committedMB
	m["cpu.eventloop.share"] = 0
	if a.total > 0 {
		m["cpu.eventloop.share"] = float64(a.eventLoop) / float64(a.total)
	}
	profiled := float64(a.total) / float64(r.win.cpu)
	m["cpu.profiled_frac"] = profiled
	if math.Abs(profiled-1) > profileTolerance {
		return nil, fmt.Errorf("CPU profile covers %.2f of getrusage CPU; attribution does not reconcile", profiled)
	}

	m["client.submit.p50_ms"] = ms(quantile(r.submit, 0.50))
	m["client.submit.p99_ms"] = ms(quantile(r.submit, 0.99))
	m["client.verify_us"] = float64(quantile(r.verify, 0.50)) / float64(time.Microsecond)
	window := cfg.window
	if r.virtualWindow > 0 {
		window = r.virtualWindow
	}
	d := r.deliveries
	m["deliver.epochs_per_s"] = float64(d.epochs) / window.Seconds()
	m["deliver.block_kb"], m["deliver.linked_frac"] = 0, 0
	if d.blocks > 0 {
		m["deliver.block_kb"] = float64(d.payload) / float64(d.blocks) / 1024
		m["deliver.linked_frac"] = float64(d.linked) / float64(d.blocks)
	}
	m["gen.late_p99_ms"] = ms(quantile(r.late, 0.99))
	m["go.gc_cpu_frac"] = r.win.gcCPUFrac
	m["go.gc_pause.p99_ms"] = ms(r.win.gcPauseP99)
	m["go.alloc_kb_per_tx"] = r.win.allocBytes / 1024 / r.windowTxs
	m["go.allocs_per_tx"] = r.win.allocObjs / r.windowTxs
	m["telemetry.overhead.cpu_frac"] = r.cpuPerMB/base.cpuPerMB - 1

	replays, err := runReplays(r.shape, cfg.scratch)
	if err != nil {
		return nil, err
	}
	for k, v := range replays {
		m[k] = v
	}
	return m, finite(m)
}

func finite(m metricSet) error {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a number", k)
		}
	}
	return nil
}
