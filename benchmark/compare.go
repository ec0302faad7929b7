package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// medians reduces a set of runs to one median per (workload, metric).
func medians(runs []runRecord) map[string]map[string]float64 {
	vals := map[string]map[string][]float64{}
	for _, r := range runs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for k, v := range r.Metrics {
			vals[r.Workload][k] = append(vals[r.Workload][k], v)
		}
	}
	out := map[string]map[string]float64{}
	for w, ms := range vals {
		out[w] = map[string]float64{}
		for k, v := range ms {
			out[w][k] = median(v)
		}
	}
	return out
}

// printSummary prints the medians of a run set, one block per workload.
func printSummary(w io.Writer, runs []runRecord, traced bool) {
	med := medians(runs)
	counts := map[string]int{}
	attempted, failed := map[string]int64{}, map[string]int64{}
	for _, r := range runs {
		counts[r.Workload]++
		attempted[r.Workload] += r.Attempted
		failed[r.Workload] += r.Failed
	}
	for _, name := range workloadNames {
		if counts[name] == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s  (median of %d run(s); %d operations attempted, %d failed, fail_ratio %g)\n",
			name, counts[name], attempted[name], failed[name],
			float64(failed[name])/float64(max(attempted[name], 1)))
		for _, d := range defsFor(traced) {
			v, ok := med[name][d.Name]
			if !ok {
				continue
			}
			if traced {
				fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.Name, v, d.Unit)
			} else {
				fmt.Fprintf(w, "  %-40s %14.4f %-6s %s is better, bound %g%%\n",
					d.Name, v, d.Unit, d.Better, d.Bound*100)
			}
		}
	}
	if !traced {
		return
	}
	// The one ledger line that needs two workloads.
	pipe, okP := med["bulk_pipe_64k"]["ledger.cpu_ns_per_byte"]
	sim, okS := med["bulk_netsim_64k"]["ledger.cpu_ns_per_byte"]
	if okP && okS {
		fmt.Fprintf(w, "\nledger.netsim_over_pipe_ns_per_byte %10.4f ns/B  (beside tcpnet.bulk_ns_per_byte %.4f)\n",
			sim-pipe, med["bulk_netsim_64k"]["tcpnet.bulk_ns_per_byte"])
	}
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &f, nil
}

// compareFiles prints one row per (workload, metric) with the medians
// of both result files, how much worse b is than a, and the bound. It
// returns 1 if an end-to-end metric of b is worse than a's by more than
// its bound, or if either set has a failed operation.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResults(pathB); err == nil {
			return compareResults(w, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 2
}

func compareResults(w io.Writer, a, b *resultFile) int {
	traced := a.Runs[0].Trace
	medA, medB := medians(a.Runs), medians(b.Runs)
	status := 0
	for _, f := range []*resultFile{a, b} {
		for _, r := range f.Runs {
			if !r.Correct || r.Failed != 0 {
				fmt.Fprintf(w, "FAILED RUN: %s seed %d: %d of %d operations failed\n",
					r.Workload, r.Seed, r.Failed, r.Attempted)
				status = 1
			}
		}
	}
	fmt.Fprintf(w, "%-16s %-40s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, name := range workloadNames {
		for _, d := range defsFor(traced) {
			va, okA := medA[name][d.Name]
			vb, okB := medB[name][d.Name]
			if !okA || !okB {
				continue
			}
			// Positive means b is worse than a, whichever way is better.
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := ""
			bound := "-"
			if !traced {
				bound = fmt.Sprintf("%g%%", d.Bound*100)
				if worse > d.Bound {
					verdict = "  REGRESSION"
					status = 1
				}
			}
			fmt.Fprintf(w, "%-16s %-40s %14.4f %14.4f %+8.2f%% %7s%s\n",
				name, d.Name, va, vb, worse*100, bound, verdict)
		}
	}
	return status
}
