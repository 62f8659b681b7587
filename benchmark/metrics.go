package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/metrics"
)

// metricDef names one metric; BENCHMARK.json lists exactly these.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// The timing bounds are set by the machine, not the sample size. On the
// two-core shared box the baseline was taken on, ten seeds' quartiles lie 2
// to 10 % of the median apart on warm-replay and knn-corpus while the
// machine is quiet and 13 to 22 % while it is not, and their medians moved by
// up to 17 % between two sets of ten taken back to back (3 to 6 % on
// cold-fanout and zipf-open, which mostly wait). alloc_mb_per_job repeats to
// 2 % on a seed; zipf-open's 6 % is how much the miss count differs between
// seeds.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p90_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_job", "MB", "lower", 0.20},
}

var perLayerDefs = []metricDef{
	{name: "server.decode_ms", unit: "ms", better: "lower"},
	{name: "server.encode_ms", unit: "ms", better: "lower"},
	{name: "server.overhead_ms", unit: "ms", better: "lower"},
	{name: "server.running_mean", unit: "count", better: "lower"},
	{name: "server.waiting_mean", unit: "count", better: "lower"},
	{name: "server.gate_util", unit: "share", better: "lower"},
	{name: "server.throttled", unit: "count", better: "lower"},
	{name: "server.rejected_busy", unit: "count", better: "lower"},
	{name: "server.drain_ms", unit: "ms", better: "lower"},
	{name: "server.new_warm_ms", unit: "ms", better: "lower"},
	{name: "server.restart_ready_ms", unit: "ms", better: "lower"},
	{name: "server.restart_lost_share", unit: "share", better: "lower"},

	{name: "pipeline.compile_us", unit: "us", better: "lower"},
	{name: "pipeline.optimize_us", unit: "us", better: "lower"},
	{name: "pipeline.run_ms", unit: "ms", better: "lower"},
	{name: "pipeline.run_ms.materialized", unit: "ms", better: "lower"},
	{name: "pipeline.run_ms.adaptive", unit: "ms", better: "lower"},
	{name: "pipeline.stage_service_ms", unit: "ms", better: "lower"},
	{name: "pipeline.stage_wait_ms", unit: "ms", better: "lower"},
	{name: "pipeline.chunks_per_job", unit: "count", better: "lower"},
	{name: "pipeline.us_per_unit_ask", unit: "us", better: "lower"},

	{name: "core.impute_fixed_ms", unit: "ms", better: "lower"},
	{name: "core.impute_per_record_us", unit: "us", better: "lower"},
	{name: "core.filter_us_per_record", unit: "us", better: "lower"},

	{name: "workflow.hit_ns", unit: "ns", better: "lower"},
	{name: "workflow.hit_allocs", unit: "count", better: "lower"},
	{name: "workflow.hit_ns_contended", unit: "ns", better: "lower"},
	{name: "workflow.miss_overhead_ns", unit: "ns", better: "lower"},
	{name: "workflow.cache_hit_share", unit: "share", better: "higher"},
	{name: "workflow.coalesced_share", unit: "share", better: "higher"},
	{name: "workflow.duplicate_calls", unit: "count", better: "lower"},
	{name: "workflow.envelopes_per_job", unit: "count", better: "lower"},
	{name: "workflow.log_flush_ms", unit: "ms", better: "lower"},
	{name: "workflow.log_flush_records", unit: "count", better: "lower"},
	{name: "workflow.log_bytes_per_entry", unit: "B", better: "lower"},
	{name: "workflow.log_replay_ms", unit: "ms", better: "lower"},

	{name: "embed.embed_us", unit: "us", better: "lower"},
	{name: "embed.index_build_ms", unit: "ms", better: "lower"},
	{name: "embed.registry_hit_ms", unit: "ms", better: "lower"},
	{name: "embed.nearest_us", unit: "us", better: "lower"},
	{name: "embed.share_of_run", unit: "share", better: "lower"},
	{name: "embed.registry_builds_per_job", unit: "count", better: "lower"},
	{name: "embed.registry_hits_per_job", unit: "count", better: "lower"},
	{name: "embed.index_save_ms", unit: "ms", better: "lower"},
	{name: "embed.index_load_ms", unit: "ms", better: "lower"},
	{name: "embed.index_file_mb", unit: "MB", better: "lower"},

	{name: "resil.wrap_overhead_ns", unit: "ns", better: "lower"},
	{name: "resil.retries_per_job", unit: "count", better: "lower"},
	{name: "resil.hedges_per_job", unit: "count", better: "lower"},
	{name: "resil.breaker_opens", unit: "count", better: "lower"},

	{name: "llm.upstream_calls_per_job", unit: "count", better: "lower"},
	{name: "llm.upstream_tokens_per_job", unit: "count", better: "lower"},
	{name: "llm.upstream_inflight_mean", unit: "count", better: "higher"},
	{name: "llm.upstream_idle_share", unit: "share", better: "lower"},
	{name: "llm.sim_us_per_call", unit: "us", better: "lower"},
	{name: "llm.httpapi_roundtrip_us", unit: "us", better: "lower"},

	{name: "process.cpu_ms_per_job", unit: "ms", better: "lower"},
	{name: "process.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "process.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "process.mallocs_per_job", unit: "count", better: "lower"},
	{name: "process.goroutines_end", unit: "count", better: "lower"},

	{name: "loadgen.job_p95_ms", unit: "ms", better: "lower"},
	{name: "loadgen.late_share", unit: "share", better: "lower"},
	{name: "loadgen.failed_share", unit: "share", better: "lower"},
	{name: "loadgen.mismatch_share", unit: "share", better: "lower"},
	{name: "loadgen.backlog_end", unit: "count", better: "lower"},

	{name: "trace.overhead_share", unit: "share", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
}

func defOf(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value summarises (0 for a
	// counter delta).
	Samples int `json:"samples,omitempty"`
}

// gate is one correctness or validity check of a run.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is one workload's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Gates     []gate            `json:"gates"`
	// SelfShare is, per span name, self time as a share of the traced
	// jobs' wall clock.
	SelfShare map[string]float64 `json:"self_share,omitempty"`
}

func (r *result) set(name string, value float64, samples int) {
	d, ok := defOf(name)
	if !ok {
		panic("benchmark: metric " + name + " is not defined") // a bug in this package, caught by the smoke test
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.Metrics[name] = metric{Value: value, Unit: d.unit, Samples: samples}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Gates = append(r.Gates, gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Correct = false
	}
}

// median is the nearest-rank median, as every percentile reported here is.
func median(values []float64) float64 { return metrics.Percentile(values, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the latencies of the done jobs and how many jobs were
// not done.
func latencies(samples []sample) (done []float64, failed int) {
	for _, s := range samples {
		if s.ok {
			done = append(done, s.latencyMS())
		} else {
			failed++
		}
	}
	return done, failed
}

// endToEnd fills the metrics a user of the service sees, from a window
// measured with tracing off.
func (r *result) endToEnd(w window, setups []float64) {
	lat, failed := latencies(w.samples)
	c := delta(w)
	r.Attempted += len(w.samples)
	r.Failed += failed
	r.set("setup_s", median(setups), len(setups))
	r.set("job_p50_ms", median(lat), c.jobs)
	r.set("job_p90_ms", metrics.Percentile(lat, 90), c.jobs)
	r.set("jobs_per_s", float64(c.jobs)/w.seconds(), c.jobs)
	r.set("alloc_mb_per_job", float64(c.allocBytes)/1e6/float64(max(c.jobs, 1)), c.jobs)
}
