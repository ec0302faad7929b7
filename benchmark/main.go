// Command benchmark is the repository's benchmark: four closed-loop
// workloads over in-memory transports, end-to-end metrics measured with
// tracing off, and a separate traced run that prices each layer from
// outside. BENCHMARK.json at the repository root names the workloads
// and metrics; README.md in this directory explains them.
//
//	go run ./benchmark                                  every workload, end-to-end metrics
//	go run ./benchmark -trace 1                         every workload, per-layer metrics
//	go run ./benchmark -workload echo_pipe_1k -seed 7   one workload (what the driver runs)
//	go run ./benchmark -runs 3 -out a.json              a set of runs, saved
//	go run ./benchmark -compare a.json b.json           two sets side by side, gated
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// procs is the GOMAXPROCS every run is pinned to. One client and one
// server endpoint are two busy goroutines; more would only measure the
// scheduler, and one would hide the cost of handing data between them.
const procs = 2

func main() {
	var (
		workloadName = flag.String("workload", "", "run this workload only, in this process, and end with one JSON line")
		seed         = flag.Int64("seed", 1, "seed of the payload bytes and of netsim")
		seconds      = flag.Float64("seconds", 30, "length of the measured window")
		trace        = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: end-to-end metrics")
		runs         = flag.Int("runs", 1, "without -workload: how many times to run every workload (seed, seed+1, ...)")
		out          = flag.String("out", "", "without -workload: also write the results to this file, for -compare")
		spansPath    = flag.String("spans", "", "traced run: write the raw spans here (default .bench_build/spans-<workload>.json)")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: benchmark -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *workloadName != "":
		os.Exit(runOne(*workloadName, *seed, *seconds, *trace != 0, *spansPath))
	default:
		os.Exit(runAll(*seed, *seconds, *trace != 0, *runs, *out))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// measured is one metric as printed.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// runOne runs one workload in this process and prints its result line.
func runOne(name string, seed int64, seconds float64, traced bool, spansPath string) int {
	if newWorkload(name) == nil {
		fatalf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	if seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	runtime.GOMAXPROCS(procs)
	cfg := runConfig{
		workload: name,
		seed:     seed,
		warmup:   2 * time.Second,
		measure:  time.Duration(seconds * float64(time.Second)),
		setups:   25,
		stall:    5 * time.Second,
		slice:    time.Second,
	}
	if traced {
		// A traced run is short: an untraced window to compare with, the
		// same with spans on, then the layer drives.
		cfg.measure = min(cfg.measure, 5*time.Second)
		cfg.traced = cfg.measure
		cfg.drives = 1
		if spansPath == "" {
			spansPath = ".bench_build/spans-" + name + ".json"
		}
	}
	res := execute(cfg, traced, spansPath)
	res.print(os.Stderr)
	printLine(res)
	if !res.correct {
		return 1
	}
	return 0
}

// runRecord is one workload run as kept in a result file.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Conditions map[string]string `json:"conditions"`
	Runs       []runRecord       `json:"runs"`
}

// runAll runs every workload, each in its own re-exec'd child process
// so that heap and GC state do not leak from one workload to the next.
func runAll(seed int64, seconds float64, traced bool, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("cannot find own executable: %v", err)
	}
	file := resultFile{Conditions: conditions(seed, seconds)}
	fmt.Println("conditions:")
	for _, k := range sortedKeys(file.Conditions) {
		fmt.Printf("  %-12s %s\n", k, file.Conditions[k])
	}
	status := 0
	for run := 0; run < runs; run++ {
		for _, name := range workloadNames {
			s := seed + int64(run)
			traceArg := "0"
			if traced {
				traceArg = "1"
			}
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(s),
				"-seconds", fmt.Sprint(seconds), "-trace", traceArg)
			cmd.Stderr = os.Stderr // the child's report and any watchdog dump
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (seed %d): %v\n", name, s, err)
				status = 1
			}
			line, ok := lastLine(stdout)
			var res resultLine
			if !ok || json.Unmarshal([]byte(line), &res) != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (seed %d): no result line\n", name, s)
				status = 1
				continue
			}
			rec := runRecord{Workload: name, Seed: s, Trace: traced, Correct: res.Correct,
				Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]float64{}}
			for k, m := range res.Metrics {
				rec.Metrics[k] = m.Value
			}
			file.Runs = append(file.Runs, rec)
		}
	}
	printSummary(os.Stdout, file.Runs, traced)
	if out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing %s: %v\n", out, err)
			status = 1
		}
	}
	return status
}

func lastLine(b []byte) (string, bool) {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	last := lines[len(lines)-1]
	return last, last != ""
}

// conditions records what the numbers were measured under.
func conditions(seed int64, seconds float64) map[string]string {
	return map[string]string{
		"gomaxprocs": fmt.Sprint(procs),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"go":         runtime.Version(),
		"seed":       fmt.Sprint(seed),
		"seconds":    fmt.Sprint(seconds),
		"cpu":        cpuModel(),
		"commit":     commit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout (the driver's is not)
	}
	return strings.TrimSpace(string(b))
}
