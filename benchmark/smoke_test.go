package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// These tests keep the harness compiling and correct as the APIs under
// it change: every workload and every layer drive runs briefly with the
// same correctness checks as a real run. They assert no timing.

func smokeConfig(workload string) runConfig {
	return runConfig{
		workload: workload,
		seed:     42,
		warmup:   20 * time.Millisecond,
		measure:  200 * time.Millisecond,
		setups:   2,
		stall:    20 * time.Second, // -race on a loaded machine is slow, not hung
		slice:    50 * time.Millisecond,
	}
}

func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.correct || res.failed != 0 || len(res.failures) != 0 {
		t.Fatalf("run failed: correct=%v failed=%d failures=%v", res.correct, res.failed, res.failures)
	}
	if res.attempted < int64(res.cfg.setups)+1 {
		t.Errorf("attempted = %d, want more than the %d set-ups", res.attempted, res.cfg.setups)
	}
	line := res.line()
	for _, d := range defs {
		m, ok := line.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: missing from the result line", d.Name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", d.Name, m.Value)
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("result line has %d metrics, want %d", len(line.Metrics), len(defs))
	}
}

func TestWorkloadsEndToEnd(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res := execute(smokeConfig(name), false, "")
			checkResult(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.values[d.Name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.Name, res.values[d.Name])
				}
			}
		})
	}
}

func TestWorkloadsTraced(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := smokeConfig(name)
			cfg.measure = 100 * time.Millisecond
			cfg.traced = 100 * time.Millisecond
			cfg.drives = 0.002
			spans := filepath.Join(t.TempDir(), "spans.json")
			res := execute(cfg, true, spans)
			checkResult(t, res, perLayer)
			for _, k := range []string{"core.tx_self_ns_per_byte", "core.rx_self_ns_per_byte",
				"core.transport_writes_per_op", "core.handshake_us", "tls13.seal_16k_ns_per_byte",
				"tls13.handshake_psk_us", "tcpnet.bulk_ns_per_byte", "trace.overhead_ratio"} {
				if res.values[k] <= 0 {
					t.Errorf("%s = %v, want > 0", k, res.values[k])
				}
			}
			// tcpnet and the link carry traffic on the netsim workload only.
			if segs := res.values["tcpnet.segments_per_MB"]; (segs > 0) != (name == "bulk_netsim_64k") {
				t.Errorf("tcpnet.segments_per_MB = %v on %s", segs, name)
			}
			var file struct {
				Kept  int64 `json:"spans_kept"`
				Spans []struct {
					Name       string
					Start, End int64
					Parent     int32
				}
			}
			b, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &file); err != nil {
				t.Fatalf("span file: %v", err)
			}
			if file.Kept == 0 || int64(len(file.Spans)) != file.Kept {
				t.Fatalf("span file keeps %d spans, lists %d", file.Kept, len(file.Spans))
			}
			// A transport write lies inside the call that caused it. The
			// attribution is by "the call in progress on this side", so an
			// ack the read loop sends while the application is in a call
			// of its own may be credited to that call and outlive it.
			nested, outside := 0, 0
			for _, s := range file.Spans {
				if s.Parent >= 0 && s.Name == spanNames[spanTransportWrite] {
					p := file.Spans[s.Parent]
					if p.Start > s.Start || (p.End != 0 && s.End > p.End) {
						outside++
					} else {
						nested++
					}
				}
			}
			if nested == 0 || outside*20 > nested {
				t.Errorf("%d transport writes nest inside their parent span, %d do not", nested, outside)
			}
		})
	}
}

// A workload that stops making progress is reported, with the run
// marked failed, instead of hanging the pipeline.
type stuck struct{ release chan struct{} }

func (s *stuck) setup(r *run) error { return nil }
func (s *stuck) op(r *run, i int64) error {
	if i < 3 {
		return nil
	}
	<-s.release
	return errors.New("released by the watchdog")
}
func (s *stuck) finish(r *run) error { return nil }
func (s *stuck) teardown()           {}

func TestWatchdogReportsAStall(t *testing.T) {
	cfg := smokeConfig("stuck")
	cfg.stall = 100 * time.Millisecond
	r := &run{cfg: cfg, in: newInputs(1), world: newPipeWorld(nil)}
	w := &stuck{release: make(chan struct{})}
	stalled := make(chan *run, 1)
	mon := startMonitor(r, func(r *run) {
		stalled <- r
		close(w.release)
	})
	defer mon.close()
	untraced, _ := r.loop(w)
	select {
	case got := <-stalled:
		if got != r {
			t.Error("watchdog reported another run")
		}
	default:
		t.Fatal("the loop ended without the watchdog firing")
	}
	res := &result{values: map[string]float64{}}
	res.collect(r)
	if untraced != nil || res.correct || res.failed == 0 || !r.aborted.Load() {
		t.Errorf("stalled run: window=%v correct=%v failed=%d aborted=%v",
			untraced, res.correct, res.failed, r.aborted.Load())
	}
	if len(res.failures) == 0 || !strings.Contains(res.failures[0], "watchdog") {
		t.Errorf("failures = %v", res.failures)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for v := int64(1); v <= 1_000_000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		got, want := h.quantile(q), q*1e6
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<40 - 1} {
		i := histIndex(v)
		if lo, hi := histLower(i), histLower(i+1); v < lo || v >= hi {
			t.Errorf("value %d in bucket %d = [%d,%d)", v, i, lo, hi)
		}
	}
}

// BENCHMARK.json must list exactly what the program prints.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the package: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
		if newWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", names, workloadNames)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
}

func TestCompareGatesOnTheBound(t *testing.T) {
	bound := func(name string) float64 {
		for _, d := range endToEnd {
			if d.Name == name {
				return d.Bound
			}
		}
		t.Fatalf("no end-to-end metric %q", name)
		return 0
	}
	set := func(goodput, p50 float64) *resultFile {
		f := &resultFile{}
		for seed := int64(1); seed <= 3; seed++ {
			f.Runs = append(f.Runs, runRecord{Workload: "echo_pipe_1k", Seed: seed, Correct: true, Attempted: 100,
				Metrics: map[string]float64{"goodput_MBps": goodput * (1 + float64(seed-2)/100), "op_p50_us": p50}})
		}
		return f
	}
	base := set(100, 10)
	gp, lat := bound("goodput_MBps"), bound("op_p50_us")
	var out bytes.Buffer
	if got := compareResults(&out, base, set(100*(1-gp/2), 10*(1+lat/2))); got != 0 {
		t.Errorf("worse by half the bounds: status %d\n%s", got, out.String())
	}
	if got := compareResults(&out, base, set(150, 5)); got != 0 {
		t.Errorf("an improvement: status %d", got)
	}
	out.Reset()
	if got := compareResults(&out, base, set(100, 10*(1+lat*1.2))); got != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("op_p50_us worse by 1.2 bounds: status %d\n%s", got, out.String())
	}
	if got := compareResults(&out, base, set(100*(1-gp*1.2), 10)); got != 1 {
		t.Errorf("goodput worse by 1.2 bounds: status %d", got)
	}
	failed := set(100, 10)
	failed.Runs[1].Failed, failed.Runs[1].Correct = 1, false
	if got := compareResults(&out, base, failed); got != 1 {
		t.Errorf("a failed operation: status %d", got)
	}
}
