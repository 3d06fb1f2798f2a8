// Command perfbench is the repository benchmark: it drives the public
// entry points (DiscoverContext and the job server's HTTP API) on one
// of two seeded workloads, checks every output, and prints the
// end-to-end metrics, or with -trace 1 the per-layer breakdown, as one
// JSON object on the last line of standard output.
//
//	perfbench -workload discover-gift64-r25 -seed 1 -seconds 30 -trace 0
//
// Run it through run.sh from the repository root, which builds it. See
// README.md for the workloads, the metrics and the measured baseline.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// setupReps is how many times each workload is set up; setup_s is the
// median, so a one-off stall does not move it.
const setupReps = 5

// On the virtual machines the benchmark was built on, a CPU that has
// been idle for a few seconds runs at about half speed for the first
// second of load. The benchmark therefore keeps every core busy for
// startWarmup before it times set-up and for phaseWarmup before each
// phase (a phase can start after an idle stretch of the job workload).
const (
	startWarmup = 1500 * time.Millisecond
	phaseWarmup = 500 * time.Millisecond
)

// agreementTolerance is the largest difference allowed between a
// layer's traced share and its profiled share in the traced phase, as a
// fraction of the larger of the two. A gap beyond it fails the run.
const agreementTolerance = 0.25

// workload is one seeded benchmark scenario.
type workload interface {
	// setup prepares the workload's inputs and engines in dir, wiring
	// metrics (nil outside the traced phase) into the program. It runs
	// setupReps times to be timed and once more before each phase;
	// release ends each instance.
	setup(dir string, metrics *obs.Registry) error
	release()
	// run performs operations until the deadline passes (the operation
	// in flight then completes) and records them in p. ctx carries a
	// trace root span in the traced phase; p.metrics is non-nil there.
	run(ctx context.Context, p *phase, deadline time.Time) error
	// verify runs the correctness checks that need extra work (reruns
	// with other worker counts, golden comparisons, direct calls) and
	// records them in c.
	verify(ctx context.Context, c *checks) error
	// layerMetrics adds the workload's per-layer values of a traced
	// phase (registry counters, span totals) to m.
	layerMetrics(p *phase, m map[string]float64)
	// agreement returns the workload's comparisons between the traced
	// phase's traced and profiled CPU shares.
	agreement(traced *phase) []shareCheck
	// native returns the workload's end-to-end figures under their own
	// names (episodes_per_min, job_rtt_p95_ms, ...).
	native(p *phase) map[string]float64
}

// phase is one timed stretch of a run.
type phase struct {
	name     string
	metrics  *obs.Registry // non-nil in the traced phase
	wall     time.Duration
	cpu      time.Duration // user + system
	steal    time.Duration // CPU time the hypervisor gave to other guests
	units    float64       // work units completed (episodes, cells, jobs)
	unitTime time.Duration // denominator of units_per_s (wall unless the workload sets it)
	unitCPU  time.Duration // CPU time charged to the units (cpu unless the workload sets it)
	latMS    []float64     // end-to-end latency of each operation
	// The traced phase's spans, their totals, its CPU profile folded
	// by layer and the CPU time the profile holds.
	spans   []span
	totals  map[string]spanTotals
	shares  map[string]float64
	profCPU time.Duration
	snap    obs.Snapshot
	// extra accumulates workload-specific figures of the phase.
	extra map[string]float64
}

// add accumulates a workload-specific figure.
func (p *phase) add(name string, v float64) {
	if p.extra == nil {
		p.extra = map[string]float64{}
	}
	p.extra[name] += v
}

// capacity is the phase's CPU capacity in seconds.
func (p *phase) capacity() float64 {
	return p.wall.Seconds() * float64(runtime.GOMAXPROCS(0))
}

// unitsPerSec is the phase's throughput.
func (p *phase) unitsPerSec() float64 {
	d := p.unitTime
	if d == 0 {
		d = p.wall
	}
	return p.units / d.Seconds()
}

// cpuPerUnit is the CPU time per work unit.
func (p *phase) cpuPerUnit() time.Duration {
	c := p.unitCPU
	if c == 0 {
		c = p.cpu
	}
	return time.Duration(float64(c) / p.units)
}

// selfShare is the traced self time of the named spans as a share of the
// phase's CPU capacity.
func (p *phase) selfShare(names ...string) float64 {
	var us float64
	for _, n := range names {
		us += p.totals[n].Self
	}
	return us / 1e6 / p.capacity()
}

// cpuShare is the profiled CPU time of the named layers as a share of
// the phase's CPU capacity.
func (p *phase) cpuShare(buckets ...string) float64 {
	var s float64
	for _, b := range buckets {
		s += p.shares[b]
	}
	return s * p.profCPU.Seconds() / p.capacity()
}

// shareCheck compares a traced layer share with the profiled share of
// the packages that implement it.
type shareCheck struct {
	Layer   string  `json:"layer"`
	Traced  float64 `json:"traced"`
	Profile float64 `json:"profile"`
}

// gap is the difference between the two shares as a fraction of the
// larger one; a layer that did no work on either side scores 1.
func (s shareCheck) gap() float64 {
	hi := math.Max(s.Traced, s.Profile)
	if hi <= 0 {
		return 1
	}
	return math.Abs(s.Traced-s.Profile) / hi
}

// checks counts the operations whose outputs were verified.
type checks struct {
	attempted, failed int
	failures          []string
}

// op records one checked operation: ok false (with a reason) counts a
// failure.
func (c *checks) op(ok bool, format string, args ...any) {
	var failures []string
	if !ok {
		failures = []string{fmt.Sprintf(format, args...)}
	}
	c.tally(1, failures)
}

// tally records n checked operations of which the listed ones failed.
func (c *checks) tally(n int, failures []string) {
	c.attempted += n
	c.failed += len(failures)
	for _, f := range failures {
		if len(c.failures) < 20 {
			c.failures = append(c.failures, f)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured seconds per phase")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced and profiled run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames())
	}
	scratch, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return fmt.Errorf("creating scratch directory: %w", err)
	}
	defer os.RemoveAll(scratch)

	w := mk(root, *seed)
	ctx := context.Background()
	dur := time.Duration(*seconds) * time.Second

	warmCPU(startWarmup)
	setupS, err := timeSetup(w, scratch)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}

	plain := &phase{name: "plain"}
	var tracedPh *phase
	phases := []*phase{plain}
	if *traced == 1 {
		tracedPh = &phase{name: "traced", metrics: obs.NewRegistry()}
		phases = append(phases, tracedPh)
	}
	for _, ph := range phases {
		err := freshSetup(w, scratch, ph.metrics)
		if err == nil {
			warmCPU(phaseWarmup)
			err = runPhase(ctx, w, ph, dur, ph == tracedPh)
		}
		w.release()
		if err != nil {
			return err
		}
	}
	var c checks
	metrics := map[string]metricValue{}
	if err := w.verify(ctx, &c); err != nil {
		return fmt.Errorf("verify: %w", err)
	}

	detail := map[string]any{
		"host":     hostFacts(root, *seed),
		"workload": *name,
		"native":   w.native(plain),
		"phases":   phaseSummary(plain, tracedPh),
	}
	if *traced == 0 {
		for k, v := range map[string]float64{
			"setup_s":         setupS,
			"units_per_s":     plain.unitsPerSec(),
			"cpu_ms_per_unit": plain.cpuPerUnit().Seconds() * 1e3,
			"op_p50_ms":       median(plain.latMS),
			"max_rss_mb":      maxRSSMB(),
		} {
			metrics[k] = metricValue{v, endToEndUnits[k]}
		}
	} else {
		layers, agree := layerReport(w, plain, tracedPh, &c)
		for k, v := range layers {
			unit, ok := perLayerUnits[k]
			if !ok {
				return fmt.Errorf("per-layer metric %s has no unit", k)
			}
			metrics[k] = metricValue{v, unit}
		}
		detail["agreement"] = agree
		detail["agreement_tolerance"] = agreementTolerance
	}
	if plain.units <= 0 {
		c.op(false, "no work completed in the measured phase")
	}
	detail["failures"] = c.failures
	for k, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, v.Value)
		}
	}
	if err := json.NewEncoder(stdout).Encode(detail); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(result{
		Correct:   c.failed == 0 && c.attempted > 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   metrics,
	})
}

// timeSetup sets the workload up setupReps times, releasing each
// instance, and returns the median duration.
func timeSetup(w workload, scratch string) (float64, error) {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(scratch, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		err := w.setup(dir, nil)
		ds = append(ds, time.Since(t0).Seconds())
		w.release()
		if err != nil {
			return 0, err
		}
	}
	return median(ds), nil
}

// freshSetup sets up the instance a phase runs on, so every phase starts
// from the same state (an empty job table, for instance).
func freshSetup(w workload, scratch string, metrics *obs.Registry) error {
	dir, err := os.MkdirTemp(scratch, "phase-")
	if err != nil {
		return err
	}
	if err := w.setup(dir, metrics); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	return nil
}

// runPhase measures one phase. The traced phase installs a tracer (and
// the phase's metrics registry, which the workload passes to the
// program) and records a CPU profile, so its span self times and its
// profile describe the same execution.
func runPhase(ctx context.Context, w workload, p *phase, dur time.Duration, traced bool) error {
	var tr *trace.Tracer
	var root *trace.Span
	var prof bytes.Buffer
	if traced {
		tr = trace.New()
		root, ctx = tr.StartRoot(ctx, "bench")
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	cpu0, steal0 := processCPU(), hostSteal()
	t0 := time.Now()
	err := w.run(ctx, p, t0.Add(dur))
	p.wall = time.Since(t0)
	p.cpu, p.steal = processCPU()-cpu0, hostSteal()-steal0
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return fmt.Errorf("%s phase: %w", p.name, err)
	}
	if !traced {
		return nil
	}
	root.End()
	var doc bytes.Buffer
	if err := tr.Export(&doc); err != nil {
		return fmt.Errorf("exporting trace: %w", err)
	}
	spans, err := parseSpans(&doc)
	if err != nil {
		return err
	}
	p.spans = spans
	p.totals = selfTimes(spans)
	if p.snap.Counters == nil {
		p.snap = p.metrics.Snapshot()
	}
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return err
	}
	var ns int64
	for _, s := range samples {
		ns += s.Nanos
	}
	p.profCPU = time.Duration(ns)
	p.shares = foldByPackage(samples)
	return nil
}

// layerReport assembles the per-layer metrics of a traced run and
// records each trace/profile agreement comparison as a check in c.
func layerReport(w workload, plain, traced *phase, c *checks) (map[string]float64, []shareCheck) {
	m := map[string]float64{}
	for name := range perLayerUnits {
		m[name] = 0
	}
	for k, v := range measureLayers() {
		m[k] = v
	}
	w.layerMetrics(traced, m)
	for _, n := range tracedSpanNames {
		m["trace.share."+n] = traced.selfShare(n)
	}
	for b, s := range traced.shares {
		m["share."+b] = s
	}
	m["trace.overhead_frac"] = 1 - traced.unitsPerSec()/plain.unitsPerSec()
	agree := w.agreement(traced)
	gap := 0.0
	for _, a := range agree {
		gap = math.Max(gap, a.gap())
		c.op(a.gap() <= agreementTolerance, "%s: traced share %.4f and profiled share %.4f differ by %.2f of the larger (tolerance %.2f)",
			a.Layer, a.Traced, a.Profile, a.gap(), agreementTolerance)
	}
	m["trace.profile_gap"] = gap
	lat := summarize(plain.latMS)
	m["op.samples"] = float64(lat.N)
	m["op.tail_pct"] = lat.Pct
	m["op.tail_ms"] = lat.Value
	return m, agree
}

// endToEndUnits lists the end-to-end metrics with their units. A work
// unit is an episode (discover-gift64-r25) or a job (jobs-assess); an
// operation is a Discover call or a job round trip.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"units_per_s":     "1/s",
	"cpu_ms_per_unit": "ms",
	"op_p50_ms":       "ms",
	"max_rss_mb":      "MB",
}

// tracedSpanNames are the program's span names whose self time the
// traced run reports. The sweep engine's sweep_shard spans are not among
// them: the workloads run sweeps only inside the job server, on job
// contexts the benchmark's tracer does not reach.
var tracedSpanNames = []string{
	trace.SpanSession, trace.SpanEpisode, trace.SpanPPOUpdate, trace.SpanOracleEval,
	trace.SpanAssess, trace.SpanShard, trace.SpanCollect, trace.SpanHarvest,
}

// perLayerUnits lists every per-layer metric with its unit. Every traced
// run reports all of them; a workload that does not exercise a layer
// reports its counts and times as 0.
var perLayerUnits = func() map[string]string {
	m := map[string]string{
		"nn.forward_ns_per_sample":    "ns",
		"nn.backward_ns_per_sample":   "ns",
		"ppo.update_s":                "s",
		"ppo.updates":                 "count",
		"rl.collect_s":                "s",
		"explore.oracle_evals":        "count",
		"explore.oracle_eval_self_s":  "s",
		"explore.cache_hit_ratio":     "fraction",
		"abstraction.harvest_s":       "s",
		"abstraction.verifications":   "count",
		"fault.traces":                "count",
		"fault.collect_self_s":        "s",
		"evaluate.assessments":        "count",
		"evaluate.worker_utilization": "fraction",
		"sweep.cells":                 "count",
		"sweep.shard_s":               "s",
		"server.queue_wait_ms":        "ms",
		"server.run_ms":               "ms",
		"server.overhead_ms":          "ms",
		"server.table_records":        "count",
		"server.table_bytes":          "bytes",
		"trace.overhead_frac":         "fraction",
		"trace.profile_gap":           "fraction",
		"op.samples":                  "count",
		"op.tail_pct":                 "percentile",
		"op.tail_ms":                  "ms",
	}
	for _, fc := range forkCases {
		m["stats.add_ns_per_row."+fc.cipher] = "ns"
		m["ciphers.fork_ns_per_trace."+fc.cipher] = "ns"
	}
	for _, n := range tracedSpanNames {
		m["trace.share."+n] = "fraction"
	}
	for _, b := range shareBuckets {
		m["share."+b.Name] = "fraction"
	}
	return m
}()

func phaseSummary(phases ...*phase) map[string]any {
	out := map[string]any{}
	for _, p := range phases {
		if p == nil {
			continue
		}
		lat := summarize(p.latMS)
		var ops []float64
		if len(p.latMS) <= 32 {
			ops = p.latMS
		}
		out[p.name] = map[string]any{
			"wall_s":      p.wall.Seconds(),
			"cpu_s":       p.cpu.Seconds(),
			"steal_s":     p.steal.Seconds(),
			"units":       p.units,
			"units_per_s": p.unitsPerSec(),
			"ops":         lat.N,
			"op_ms":       ops,
			"op_p50_ms":   lat.P50,
			"op_tail_pct": lat.Pct,
			"op_tail_ms":  lat.Value,
		}
	}
	return out
}

// warmCPU keeps GOMAXPROCS goroutines busy with arithmetic for d.
func warmCPU(d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := 1.0
			for time.Now().Before(deadline) {
				for i := 0; i < 1<<16; i++ {
					x = x*1.0000001 + 1e-9
				}
			}
			warmSink.Add(int64(x))
		}()
	}
	wg.Wait()
}

// warmSink keeps the warm-up loop from being optimized away.
var warmSink atomic.Int64

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// repoRoot returns the working directory after checking that it is the
// repository root the benchmark measures: the root module and the
// golden atlases must be present.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, f := range []string{"go.mod", "internal/sweep/testdata/gift64-r25.atlas.json"} {
		if _, err := os.Stat(filepath.Join(wd, f)); err != nil {
			return "", fmt.Errorf("run from the repository root: %w", err)
		}
	}
	if err := os.MkdirAll(filepath.Join(wd, ".bench_build"), 0o755); err != nil {
		return "", err
	}
	return wd, nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// workloads maps each workload name to its constructor, which derives
// the workload's inputs from the seed.
var workloads = map[string]func(root string, seed uint64) workload{
	"discover-gift64-r25": newDiscover,
	"jobs-assess":         newJobs,
}
