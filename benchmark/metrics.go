package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/timingwheel"
)

// metricDef is one metric as BENCHMARK.json lists it. The two tables
// below are the source; smoke_test.go checks that BENCHMARK.json says
// the same.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median a run set may be worse by
}

// endToEnd is what a user of the stack sees. Every workload reports
// every metric; an operation is one 64 KiB write (bulk_*), one round
// trip (echo_pipe_1k) or one whole session (fetch_pipe_16k).
//
// The timing bounds are the widest the benchmark contract allows. They
// are not what the stack deserves but what a shared 2-vCPU sandbox can
// resolve: README.md has the measurements. allocs_per_op is a count and
// repeats to a fraction of a percent, so its bound stays tight. Tail
// latency is reported (the whole-window p99 and p99.9 in the report,
// core.op_p99_us in the traced run) but not gated: between identical
// sets of runs it spread 9-40 %.
var endToEnd = []metricDef{
	{"goodput_MBps", "MB/s", "higher", 0.25},
	{"cpu_ns_per_byte", "ns/B", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"op_p50_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// result is everything one execution of a workload measured.
type result struct {
	cfg       runConfig
	traced    bool
	correct   bool
	attempted int64
	failed    int64
	failures  []string
	values    map[string]float64 // metric name -> value
	notes     []string           // printed with the report, e.g. flagged counts
}

func (res *result) set(name string, v float64) { res.values[name] = v }

func (res *result) defs() []metricDef { return defsFor(res.traced) }

// defsFor lists the metrics a run of that kind prints, in table order.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// line is the JSON object the run ends with: every end-to-end metric of
// an untraced run, every per-layer metric of a traced one.
func (res *result) line() resultLine {
	l := resultLine{Correct: res.correct, Attempted: max(res.attempted, 1), Failed: res.failed,
		Metrics: map[string]measured{}}
	for _, d := range res.defs() {
		if v, ok := res.values[d.Name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			l.Metrics[d.Name] = measured{Value: v, Unit: d.Unit}
		}
	}
	return l
}

// print writes the human-readable report.
func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d  attempted=%d failed=%d fail_ratio=%g correct=%v\n",
		res.cfg.workload, res.cfg.seed, res.attempted, res.failed,
		float64(res.failed)/float64(max(res.attempted, 1)), res.correct)
	for _, d := range res.defs() {
		v, ok := res.values[d.Name]
		if !ok {
			continue
		}
		bound := ""
		if !res.traced {
			bound = fmt.Sprintf("  (%s is better, bound %g%%)", d.Better, d.Bound*100)
		}
		fmt.Fprintf(w, "  %-40s %14.4f %-6s%s\n", d.Name, v, d.Unit, bound)
	}
	extra := make([]string, 0)
	for k := range res.values {
		if !defined(res.defs(), k) {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(w, "  %-40s %14.4f (diagnostic)\n", k, res.values[k])
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// execute runs one workload under cfg and returns what it measured. It
// never exits the process except through onStall.
func execute(cfg runConfig, traced bool, spansPath string) *result {
	res := &result{cfg: cfg, traced: traced, values: map[string]float64{}}
	r := &run{cfg: cfg, in: newInputs(cfg.seed)}
	if traced {
		r.tr = newTracer()
	}
	// The process-wide timer wheel starts its driver goroutine on first
	// use; start it now so it is part of the goroutine baseline.
	timingwheel.Default()

	mon := startMonitor(r, func(r *run) {
		// End the workload: report what is known and leave. Blocked
		// calls cannot be relied on to return.
		res.collect(r)
		res.print(os.Stderr)
		printLine(res)
		os.Exit(1)
	})
	defer mon.close()
	baseline := runtime.NumGoroutine()

	// Set-up is repeated and timed; the last one is kept for the run.
	var w workload
	var setupTimes []float64
	for k := 0; k < cfg.setups; k++ {
		if w != nil {
			w.teardown()
		}
		w = newWorkload(cfg.workload)
		r.attempted.Add(1)
		// A set-up allocates 1-2 MB, so every second or third one would
		// otherwise contain a GC cycle and take twice as long: the median
		// of such a mixture jumps. Start each from a collected heap.
		runtime.GC()
		t := time.Now()
		if err := w.setup(r); err != nil {
			r.failed.Add(1)
			r.fail("set-up %d: %v", k, err)
			w.teardown()
			res.collect(r)
			return res
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
		r.progress.Add(1)
	}

	untraced, tracedWin := r.loop(w)
	if !r.aborted.Load() {
		if err := w.finish(r); err != nil {
			r.fail("finish: %v", err)
		}
	}
	w.teardown()

	res.collect(r)
	if untraced == nil || untraced.ops == 0 {
		res.correct = false
		return res
	}
	if !traced {
		res.endToEnd(untraced, setupTimes)
		return res
	}
	if tracedWin == nil || tracedWin.ops == 0 {
		res.correct = false
		return res
	}
	res.set("proc.peak_rss_MB", peakRSSMB()) // of the workload: the drives' buffers come after
	goroutines := waitGoroutines(baseline, 2*time.Second)
	res.layersFromWorkload(r, untraced, tracedWin, goroutines, baseline)
	res.layersFromFetch(r, w, tracedWin, mon)
	res.layersFromDrives(r, cfg.drives)
	res.ledger()
	if err := r.tr.writeJSON(spansPath); err != nil {
		res.notes = append(res.notes, fmt.Sprintf("spans not written: %v", err))
	} else {
		res.notes = append(res.notes, fmt.Sprintf("spans written to %s (%d started, %d kept)",
			spansPath, r.tr.next.Load(), min(r.tr.next.Load(), spanBufCap)))
	}
	res.collect(r)
	return res
}

// printLine ends a single-workload run: one JSON object, last on stdout.
func printLine(res *result) {
	b, err := json.Marshal(res.line())
	if err != nil {
		fatalf("result: %v", err)
	}
	fmt.Println(string(b))
}

// collect copies the run's failure accounting into the result.
func (res *result) collect(r *run) {
	r.failMu.Lock()
	res.failures = append(res.failures[:0], r.failures...)
	r.failMu.Unlock()
	res.attempted = r.attempted.Load()
	res.failed = r.failed.Load()
	if len(res.failures) > 0 && res.failed == 0 {
		res.failed = 1 // a failure outside an operation (finish, watchdog) still fails the run
	}
	res.correct = res.failed == 0
}

func us(ns float64) float64 { return ns / 1e3 }

// endToEnd fills the end-to-end metrics from the untraced window.
func (res *result) endToEnd(w *window, setupTimes []float64) {
	res.set("goodput_MBps", median(w.bytesPerSec)/1e6)
	res.set("cpu_ns_per_byte", median(w.cpuPerByte))
	res.set("cpu_us_per_op", us(median(w.cpuPerOp)))
	res.set("allocs_per_op", float64(w.mallocs)/float64(w.ops))
	res.set("op_p50_us", us(median(w.p50)))
	res.set("setup_s", median(setupTimes))
	// Diagnostics over the whole window: printed, not in the result line.
	res.set("whole.goodput_MBps", float64(w.bytes)/w.wall.Seconds()/1e6)
	res.set("whole.cpu_ns_per_byte", float64(w.cpu)/float64(w.bytes))
	res.set("whole.op_p50_us", us(w.hist.quantile(0.50)))
	res.set("whole.op_p99_us", us(w.hist.quantile(0.99)))
	res.set("whole.op_p99.9_us", us(w.hist.quantile(0.999)))
	res.set("whole.op_samples", float64(w.hist.n))
	res.set("whole.op_samples_beyond_p99", float64(w.hist.beyond(0.99)))
	res.set("slices", float64(len(w.p50)))
	res.set("peak_rss_MB", peakRSSMB())
}
