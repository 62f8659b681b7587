package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the metric and
// workload tables this package reports from.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEndDefs) || len(f.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the code has %d+%d", len(f.EndToEnd), len(f.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	seen := make(map[string]bool)
	for i, d := range endToEndDefs {
		m := f.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
		seen[d.name] = true
	}
	for i, d := range perLayerDefs {
		m := f.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
		if seen[d.name] {
			t.Errorf("metric name %q is used twice", d.name)
		}
		seen[d.name] = true
	}
	for name := range seen {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, nameRE)
		}
	}
}

// TestSmoke runs all four workloads end to end on shrunken inputs with a
// one-second window: both passes, the restart, the verification, the trace
// and the comparison tool. It asserts no timing, only that every metric is
// reported, every gate passes and the trace is a tree.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	var stdout bytes.Buffer
	rep, err := runAll(workloads, options{seed: 1, seconds: 1, trace: -1, out: out, sz: small}, &stdout)
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout.String())
	}
	if err := writeJSON(out, rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(workloads) {
		t.Fatalf("%d results for %d workloads", len(rep.Results), len(workloads))
	}
	for _, res := range rep.Results {
		for _, g := range res.Gates {
			if !g.OK {
				t.Errorf("%s: gate %q failed: %s", res.Workload, g.Name, g.Detail)
			}
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: correct %v, attempted %d", res.Workload, res.Correct, res.Attempted)
		}
		for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s: metric %s reported %v as %+v, want unit %q", res.Workload, d.name, ok, m, d.unit)
				}
			}
		}
		for _, d := range endToEndDefs {
			if res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", res.Workload, d.name, res.Metrics[d.name].Value)
			}
		}

		b, err := os.ReadFile(filepath.Join(dir, "trace-"+res.Workload+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(b, &spans); err != nil {
			t.Fatalf("%s trace: %v", res.Workload, err)
		}
		ids := make(map[string]bool)
		names := make(map[string]bool)
		for _, s := range spans {
			if ids[s.ID] {
				t.Errorf("%s trace: span id %q used twice", res.Workload, s.ID)
			}
			ids[s.ID] = true
			names[s.Name] = true
		}
		for _, s := range spans {
			if s.Parent != "" && !ids[s.Parent] {
				t.Errorf("%s trace: span %q names parent %q, which is absent", res.Workload, s.ID, s.Parent)
			}
			if s.End < s.Start {
				t.Errorf("%s trace: span %q ends before it starts", res.Workload, s.ID)
			}
		}
		for _, want := range []string{spanJob, spanHTTP, spanDecode, spanCompile, spanRun, spanEncode} {
			if !names[want] {
				t.Errorf("%s trace: no %s span", res.Workload, want)
			}
		}
	}

	var cmp, cmpErr bytes.Buffer
	if code := realMain([]string{"-compare", out, out}, &cmp, &cmpErr); code != 0 {
		t.Errorf("-compare of a file with itself exits %d:\n%s%s", code, cmp.String(), cmpErr.String())
	}
	// Doubling one latency must trip its bound.
	rep.Results[0].Metrics["job_p50_ms"] = metric{Value: 2 * rep.Results[0].Metrics["job_p50_ms"].Value, Unit: "ms"}
	worse := filepath.Join(dir, "worse.json")
	if err := writeJSON(worse, rep); err != nil {
		t.Fatal(err)
	}
	if code := realMain([]string{"-compare", out, worse}, &cmp, &cmpErr); code != 1 {
		t.Errorf("-compare against a doubled p50 exits %d, want 1", code)
	}
}

// TestSelfTimes checks that overlapping children are counted once.
func TestSelfTimes(t *testing.T) {
	self := selfTimes([]span{
		{ID: "p", Name: "parent", Start: 0, End: 100},
		{ID: "a", Parent: "p", Name: "child", Start: 10, End: 50},
		{ID: "b", Parent: "p", Name: "child", Start: 30, End: 70},
		{ID: "c", Parent: "p", Name: "child", Start: 90, End: 120},
	})
	if self["parent"] != 30 { // 100 - [10,70) - [90,100)
		t.Errorf("parent self time %v, want 30", self["parent"])
	}
	if self["child"] != 60+30 { // [10,70) and [90,120)
		t.Errorf("child self time %v, want 90", self["child"])
	}
}
