// Command perfbench is the repository's benchmark. It drives the live
// multirail engine through the public repro/multirail API on one of
// three seeded workloads and prints every end-to-end metric (untraced
// run) or every per-layer metric (traced run) by name, with its unit
// and sample count, followed by one JSON result line. See README.md.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload eager-latency --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/multirail"
)

const (
	// setups is how many clusters a run builds; set-up time is their
	// median.
	setups = 5
	// warmup runs the loop untimed before each timed region, so lazy
	// engine state and the heap reach their steady size first.
	warmup = 300 * time.Millisecond
	// processDeadline ends a run that is still going, whatever it waits on.
	processDeadline = 170 * time.Second
	// splitSizes is how many of the workload's sizes the live split
	// decision is timed over.
	splitSizes = 2000
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "timed seconds per run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: %s)\n", strings.Join(names, ", "))
		return 2
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	r := &report{traced: *traced == 1, decl: decl}
	var dog *watchdog
	dog = newWatchdog(processDeadline, func(why string) {
		r.print(dog.attempted.Load(), dog.failed.Load(), false)
		os.Exit(0)
	})
	defer dog.close()

	fmt.Printf("# env workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		w.name, *seed, *seconds, *traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	in := genInputs(w, *seed)
	region := time.Duration(*seconds) * time.Second
	if r.traced {
		err = runTraced(r, w, in, region, dog)
	} else {
		err = runUntraced(r, w, in, region, dog)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	failed := dog.failed.Load()
	if !r.print(dog.attempted.Load(), failed, failed == 0) {
		return 1
	}
	return 0
}

// timedNew builds a cluster and returns it with the wall time New took.
func timedNew(cfg multirail.Config) (*multirail.Cluster, float64, error) {
	t := time.Now()
	c, err := multirail.New(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("multirail.New: %w", err)
	}
	return c, time.Since(t).Seconds(), nil
}

// setupClusters builds `setups` clusters for w one after the other and
// returns each New's wall time in seconds and the last cluster.
func setupClusters(w workload, adjust func(*multirail.Config)) ([]float64, *multirail.Cluster, error) {
	var times []float64
	var c *multirail.Cluster
	for i := 0; i < setups; i++ {
		if c != nil {
			c.Close()
		}
		cfg := w.config()
		if adjust != nil {
			adjust(&cfg)
		}
		var secs float64
		var err error
		if c, secs, err = timedNew(cfg); err != nil {
			return nil, nil, err
		}
		times = append(times, secs)
	}
	return times, c, nil
}

// describe prints the routing the engine chose: each rail's sampled
// eager threshold and the split plans of three rendezvous sizes.
func describe(c *multirail.Cluster, when string) {
	if strings.HasSuffix(when, "before") {
		for r := 0; r < c.Rails(); r++ {
			fmt.Printf("# rail %d kind=%s sampled_eager_threshold=%dB\n", r, c.RailKind(r), c.Threshold(r))
		}
	}
	fmt.Printf("# routing %s: eager_threshold(0->1)=%dB", when, c.EagerThreshold(0, 1))
	for _, n := range []int{128 << 10, 1 << 20, 4 << 20} {
		fmt.Printf(" plan(%dKB)=[%s]", n>>10, c.DescribePlan(0, 1, n))
	}
	fmt.Println()
}

// pass runs one timed region on c, starting at message index first, and
// returns the loop's result with counter snapshots taken at the
// region's edges.
func pass(c *multirail.Cluster, w workload, in *inputs, first int, region time.Duration, dog *watchdog, spans *spanTracer, edge func(start bool)) (*passResult, delta) {
	dog.watch(c)
	d := delta{c: c}
	ld := &loader{c: c, w: w, in: in, dog: dog, spans: spans, next: first, region: func(start bool) {
		if start {
			if edge != nil {
				edge(true)
			}
			d.a = snapCounters(c)
			return
		}
		d.b = snapCounters(c)
		if edge != nil {
			edge(false)
		}
	}}
	return ld.run(warmup, region), d
}

// endToEnd computes the user-visible metrics over passes. Timings are
// medians over every window of every pass; allocations per message are
// the median over passes, so one pass whose live sampling flipped the
// routing (see the "routing" lines) does not decide them.
func endToEnd(passes []*passResult, deltas []delta) []metric {
	var p50, p99, rate, goodput, allocs, allocBytes []float64
	n := 0
	for i, res := range passes {
		for _, w := range res.windows {
			lat := sortedCopy(res.latNS[w.lo:w.hi])
			sec := w.dur.Seconds()
			p50 = append(p50, quantile(lat, 0.50)/1e3)
			p99 = append(p99, quantile(lat, 0.99)/1e3)
			rate = append(rate, ratio(float64(len(lat)), sec))
			goodput = append(goodput, ratio(float64(w.bytes)/1e6, sec))
		}
		d, m := deltas[i], float64(res.msgs())
		allocs = append(allocs, ratio(float64(d.b.mem.Mallocs-d.a.mem.Mallocs), m))
		allocBytes = append(allocBytes, ratio(float64(d.b.mem.TotalAlloc-d.a.mem.TotalAlloc), m))
		n += res.msgs()
	}
	return []metric{
		{"latency_p50_us", median(p50), "us", n},
		{"latency_p99_us", median(p99), "us", n},
		{"msg_rate", median(rate), "msg/s", n},
		{"goodput_MBps", median(goodput), "MB/s", n},
		{"allocs_per_msg", median(allocs), "allocs/msg", n},
		{"alloc_bytes_per_msg", median(allocBytes), "B/msg", n},
	}
}

// printWindows lists each window as msgs/ms/p50/p99/bytes (times in us
// unless stated).
func printWindows(label string, res *passResult) {
	fmt.Printf("# %s windows (msgs/ms/p50_us/p99_us/bytes):", label)
	for _, w := range res.windows {
		lat := sortedCopy(res.latNS[w.lo:w.hi])
		fmt.Printf(" %d/%.1f/%.2f/%.2f/%d", len(lat), float64(w.dur.Microseconds())/1e3,
			quantile(lat, 0.5)/1e3, quantile(lat, 0.99)/1e3, w.bytes)
	}
	fmt.Println()
}

// value returns the named metric's value (0 if absent).
func value(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// runUntraced measures the end-to-end metrics. The region is split
// into one segment per set-up: each cluster is built, timed, loaded for
// its segment and closed, so a run sees `setups` independent live
// samplings of the rails, and no one sampling decides the run.
func runUntraced(r *report, w workload, in *inputs, region time.Duration, dog *watchdog) error {
	var times []float64
	var passes []*passResult
	var deltas []delta
	next := 0
	for i := 0; i < setups; i++ {
		c, secs, err := timedNew(w.config())
		if err != nil {
			return err
		}
		times = append(times, secs)
		describe(c, fmt.Sprintf("segment %d before", i))
		res, d := pass(c, w, in, next, region/setups, dog, nil, nil)
		describe(c, fmt.Sprintf("segment %d after", i))
		printWindows(fmt.Sprintf("segment %d", i), res)
		c.Close()
		next = res.next
		passes, deltas = append(passes, res), append(deltas, d)
	}
	r.add(metric{"setup_s", median(times), "s", len(times)})
	for _, m := range endToEnd(passes, deltas) {
		r.add(m)
	}
	return nil
}

// runTraced measures the per-layer metrics. It builds the live-sampled
// cluster A and a cluster B fed A's sampling with the span tracer
// installed, runs half the region untraced on A (counter layers, the
// reference end-to-end numbers, the live split decision) and half
// traced on B (stage spans), then the microbenchmarks on the run's own
// shapes.
func runTraced(r *report, w workload, in *inputs, region time.Duration, dog *watchdog) error {
	liveTimes, a, err := setupClusters(w, nil)
	if err != nil {
		return err
	}
	defer func() {
		if a != nil {
			a.Close()
		}
	}()
	var sampled bytes.Buffer
	if err := a.SaveSampling(&sampled); err != nil {
		return fmt.Errorf("SaveSampling: %w", err)
	}
	spans := newSpanTracer()
	fileTimes, b, err := setupClusters(w, func(cfg *multirail.Config) {
		cfg.SamplingFrom = bytes.NewReader(sampled.Bytes())
		cfg.Tracer = spans
	})
	if err != nil {
		return err
	}
	defer func() {
		if b != nil {
			b.Close()
		}
	}()
	r.layer("sampling.sample_s", median(liveTimes)-median(fileTimes), "s", len(liveTimes))

	// Untraced reference pass on A.
	describe(a, "before")
	ref, d := pass(a, w, in, 0, region/2, dog, nil, nil)
	describe(a, "after")
	refE2E := endToEnd([]*passResult{ref}, []delta{d})
	r.note("untraced", refE2E)
	// The tail is reported here, without a bound: on a shared 2-CPU
	// host it moved too much between runs to be judged by one.
	r.layer("latency_p99_us", value(refE2E, "latency_p99_us"), "us", ref.msgs())
	counterLayers(r, d, ref.msgs())
	r.layer("multirail.isend_us_p50", quantile(sortedCopy(ref.isendNS), 0.5)/1e3, "us", len(ref.isendNS))
	tenth := len(ref.latNS) / 10
	r.layer("multirail.p50_first_tenth_us", quantile(sortedCopy(ref.latNS[:tenth]), 0.5)/1e3, "us", tenth)
	r.layer("multirail.p50_last_tenth_us", quantile(sortedCopy(ref.latNS[len(ref.latNS)-tenth:]), 0.5)/1e3, "us", tenth)
	split := splitDecision(a, in.size[:splitSizes])
	r.layer("strategy.split_decision_us", quantile(sortedCopy(split), 0.5)/1e3, "us", len(split))
	pkts := ratio(d.engine(func(s multirail.EngineStats) uint64 { return s.EagerSent }), float64(d.b.containers-d.a.containers))
	sh, err := newShapes(a, in, sampled.Bytes(), pkts)
	if err != nil {
		return fmt.Errorf("loading the run's sampling: %w", err)
	}
	a.Close()
	a = nil

	// Traced pass on B, sampling at most maxStageSamples spans per stage.
	spans.stride = max(1, (ref.msgs()+maxStageSamples-1)/maxStageSamples)
	var h0, h1 multirail.MetricsSnapshot
	tr, dt := pass(b, w, in, ref.next, region/2, dog, spans, func(start bool) {
		if start {
			h0 = b.MetricsSnapshot()
			spans.on.Store(true)
		} else {
			h1 = b.MetricsSnapshot()
		}
	})
	spans.stop()
	trE2E := endToEnd([]*passResult{tr}, []delta{dt})
	r.note("traced", trE2E)
	stageLayers(r, spans, h0, h1)
	// The headline of a windowed workload is its rate, else its median
	// latency; overhead is how much tracing worsened it.
	if w.depth > 1 {
		r.layer("trace.overhead_frac", ratio(value(refE2E, "msg_rate"), value(trE2E, "msg_rate"))-1, "frac", tr.msgs())
	} else {
		r.layer("trace.overhead_frac", ratio(value(trE2E, "latency_p50_us"), value(refE2E, "latency_p50_us"))-1, "frac", tr.msgs())
	}
	b.Close()
	b = nil

	microLayers(r, sh)

	dir := filepath.Join(".bench_build", "perfbench", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, w.name+".csv")
	if err := spans.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("# spans: %d messages written to %s\n", len(spans.kept), path)
	return nil
}

// stageLayers reports the traced stage medians and compares the
// engine's own nm_stage_latency_seconds histograms (node 0, region
// only) with them. submit_completed and submit_acked span exactly the
// same events in both, so their gap is the histogram's bucket error;
// the other engine stages end at internal stamps the trace does not
// expose, so they are printed for reference only.
func stageLayers(r *report, spans *spanTracer, h0, h1 multirail.MetricsSnapshot) {
	p := func(st int, q float64) (float64, int) {
		s := sortedCopy(spans.samples[st])
		return quantile(s, q) / 1e3, len(s)
	}
	for _, st := range []int{stSubmitDecision, stDecisionSent, stSentDelivered, stHandshake, stCTSDecision, stDeliveredAcked} {
		v, n := p(st, 0.5)
		r.layer("core."+stageNames[st]+"_us_p50", v, "us", n)
	}
	v, n := p(stSentDelivered, 0.99)
	r.layer("core.sent_delivered_us_p99", v, "us", n)
	v, n = p(stOnewaySelf, 0.5)
	r.layer("multirail.oneway_self_us_p50", v, "us", n)

	fmt.Println("# stage p50 (us): nm_stage_latency_seconds histogram vs the benchmark's exact spans")
	for _, s := range []struct {
		engine, ours string
		same         bool // both span the same two events
	}{
		{"submit_decision", "submit_decision", false}, {"decision_enqueue", "decision_sent", false},
		{"wire_acked", "", false}, {"submit_completed", "submit_completed", true}, {"submit_acked", "submit_acked", true},
	} {
		hist := stageHistDelta(h0, h1, s.engine)
		hp := hist.Quantile(0.5) * 1e6
		line := fmt.Sprintf("#   %-17s histogram=%.2f (n=%d)", s.engine, hp, hist.Count)
		if s.ours != "" {
			exact, n := p(stageIndex(s.ours), 0.5)
			line += fmt.Sprintf("  exact %s=%.2f (n=%d)", s.ours, exact, n)
			if s.same {
				gap := ratio(hp, exact) - 1
				r.layer("metrics."+s.ours+"_p50_gap_frac", gap, "frac", n)
				line += fmt.Sprintf("  bucket gap=%+.1f%%", 100*gap)
			}
		}
		fmt.Println(line)
	}
}

func stageIndex(name string) int {
	for i, n := range stageNames {
		if n == name {
			return i
		}
	}
	panic("unknown stage " + name)
}

// stageHistDelta is node 0's histogram of one engine stage restricted
// to what was observed between two snapshots.
func stageHistDelta(h0, h1 multirail.MetricsSnapshot, stage string) metrics.MetricSnapshot {
	labels := []multirail.MetricLabel{{Name: "node", Value: "0"}, {Name: "stage", Value: stage}}
	a, b := h0.Find("nm_stage_latency_seconds", labels...), h1.Find("nm_stage_latency_seconds", labels...)
	if a == nil || b == nil {
		return metrics.MetricSnapshot{}
	}
	out := metrics.MetricSnapshot{Count: b.Count - a.Count}
	for i, bk := range b.Buckets {
		bk.Count -= a.Buckets[i].Count
		out.Buckets = append(out.Buckets, bk)
	}
	return out
}

// metric is one named measurement with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// report collects a run's metrics and prints them. The watchdog may
// print it from its own goroutine when a run has to be aborted.
type report struct {
	traced bool
	decl   declared

	mu     sync.Mutex
	e2e    []metric
	layers []metric
}

func (r *report) add(m metric) {
	r.mu.Lock()
	r.e2e = append(r.e2e, m)
	r.mu.Unlock()
}

func (r *report) layer(name string, v float64, unit string, n int) {
	r.mu.Lock()
	r.layers = append(r.layers, metric{name, v, unit, n})
	r.mu.Unlock()
}

// note prints end-to-end metrics of one pass of a traced run.
func (r *report) note(pass string, ms []metric) {
	for _, m := range ms {
		fmt.Printf("# %s pass: %s = %.6g %s (n=%d)\n", pass, m.name, m.value, m.unit, m.n)
	}
}

// print writes every metric of the run's kind as a text line, then the
// JSON result line holding exactly the metrics BENCHMARK.json declares
// for that kind. It reports false if a declared metric is missing or
// its unit differs (a benchmark bug).
func (r *report) print(attempted, failed int64, correct bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ms, want := r.e2e, r.decl.EndToEnd
	if r.traced {
		ms, want = r.layers, r.decl.PerLayer
	}
	got := map[string]metric{}
	for _, m := range ms {
		fmt.Printf("metric %s = %.6g %s (n=%d)\n", m.name, m.value, m.unit, m.n)
		got[m.name] = m
	}
	fmt.Printf("metric error_rate = %.6g frac (n=%d)\n", ratio(float64(failed), float64(attempted)), attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(attempted, 1), failed, map[string]value{}}
	ok := true
	for _, d := range want {
		m, found := got[d.Name]
		if correct && (!found || m.unit != d.Unit) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s (%s) declared but measured as %q (%s)\n", d.Name, d.Unit, m.name, m.unit)
			ok = false
		}
		out.Metrics[d.Name] = value{m.value, d.Unit}
	}
	if !ok {
		return false
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return true
}

// declared is the metric list of BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(path string) (declared, error) {
	var d declared
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func sortedCopy[T int64 | uint32](v []T) []T {
	s := append([]T(nil), v...)
	slices.Sort(s)
	return s
}

// quantile is the nearest-rank q-quantile of sorted samples (0 if none).
func quantile[T int64 | uint32](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
