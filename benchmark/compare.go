package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// loadSet reads one side of a comparison: a comma-separated list of result
// files, reduced to the median of every (workload, metric) over the files.
func loadSet(arg string) (map[string]map[string]float64, error) {
	values := make(map[string]map[string][]float64)
	for _, path := range strings.Split(arg, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range rep.Results {
			if !r.Correct {
				return nil, fmt.Errorf("%s: workload %s did not pass its gates; its numbers do not count", path, r.Workload)
			}
			if values[r.Workload] == nil {
				values[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Metrics {
				values[r.Workload][name] = append(values[r.Workload][name], m.Value)
			}
		}
	}
	out := make(map[string]map[string]float64)
	for w, byName := range values {
		out[w] = make(map[string]float64)
		for name, vs := range byName {
			out[w][name] = median(vs)
		}
	}
	return out, nil
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians, how much worse the second is than the first as a share of the
// first, and the metric's bound. It returns 1 when any bound is exceeded.
func compareFiles(a, b string, stdout, stderr io.Writer) int {
	before, err := loadSet(a)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	after, err := loadSet(b)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	return compareSets(before, after, stdout)
}

func compareSets(before, after map[string]map[string]float64, stdout io.Writer) int {
	exceeded := 0
	fmt.Fprintf(stdout, "%-12s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloads {
		for _, d := range endToEndDefs {
			x, okX := before[w.name][d.name]
			y, okY := after[w.name][d.name]
			if !okX || !okY {
				continue
			}
			worse := (y - x) / x
			if d.better == "higher" {
				worse = (x - y) / x
			}
			verdict := ""
			if worse > d.bound {
				verdict = "  EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(stdout, "%-12s %-18s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", w.name, d.name, x, y, 100*worse, 100*d.bound, verdict)
		}
	}
	if exceeded > 0 {
		fmt.Fprintf(stdout, "%d bound(s) exceeded\n", exceeded)
		return 1
	}
	return 0
}
