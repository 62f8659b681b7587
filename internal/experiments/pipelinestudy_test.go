package experiments

import (
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/token"
)

func sumStageUsage(stages []pipeline.StageReport) token.Usage {
	var u token.Usage
	for _, s := range stages {
		u = u.Add(s.Usage)
	}
	return u
}

// TestPipelineStudyPinned pins the acceptance contract of the pipeline
// layer on the sim model: the optimized pipeline spends strictly fewer
// upstream calls and tokens than naive sequential operator invocation,
// produces identical results at temperature 0, and its per-stage usage
// attribution sums exactly to the pipeline total.
func TestPipelineStudyPinned(t *testing.T) {
	res, err := PipelineStudy(ctx(), DefaultPipelineStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Fatal("optimized pipeline results differ from naive sequential results at temperature 0")
	}
	if res.Optimized.UpstreamCalls >= res.Naive.UpstreamCalls {
		t.Fatalf("optimized calls = %d, want strictly fewer than naive %d",
			res.Optimized.UpstreamCalls, res.Naive.UpstreamCalls)
	}
	if res.Optimized.UpstreamTokens >= res.Naive.UpstreamTokens {
		t.Fatalf("optimized tokens = %d, want strictly fewer than naive %d",
			res.Optimized.UpstreamTokens, res.Naive.UpstreamTokens)
	}
	if len(res.Rewrites) == 0 {
		t.Fatal("optimizer applied no rewrites; the study spec must exercise filter pushdown")
	}
	// The streaming configuration: identical temperature-0 results to the
	// materialized optimized run, probe spend attributed under its own
	// stage tag, and the probe row visible in the report.
	if !res.StreamingIdentical {
		t.Fatal("streaming + probed results differ from the materialized optimized run at temperature 0")
	}
	if res.Streaming.ProbeCalls == 0 {
		t.Fatal("probing optimizer issued no attributed probe calls on a hintless spec")
	}
	if res.Streaming.UpstreamCalls >= res.Naive.UpstreamCalls {
		t.Fatalf("streaming calls = %d (probes included), want strictly fewer than naive %d",
			res.Streaming.UpstreamCalls, res.Naive.UpstreamCalls)
	}
	probeRow := false
	for _, s := range res.Streaming.Stages {
		if s.Kind == "probe" && s.Usage.Calls == res.Streaming.ProbeCalls {
			probeRow = true
		}
	}
	if !probeRow {
		t.Fatal("streaming run's report lacks the probe attribution row")
	}
	if len(res.ProbeTrace) == 0 || !strings.Contains(strings.Join(res.ProbeTrace, "\n"), "measured selectivity") {
		t.Fatalf("probe trace missing hint-vs-measured lines: %v", res.ProbeTrace)
	}

	// The adaptive runtime: identical temperature-0 results to the
	// streaming+probed run and, like it, strictly cheaper than naive (the
	// two issue the same unit tasks; their upstream call counts differ only
	// by how the batcher's linger happened to pack envelopes, which is
	// machine timing, so neither is pinned against the other), and on the
	// side-input overlap scenario the structure its wall-clock win comes
	// from: the join compares while the feed is still running. (The two
	// clocks themselves are reported, not compared — single timed runs on
	// a loaded box.)
	if !res.AdaptiveIdentical {
		t.Fatal("adaptive runtime results differ from the streaming + probed run at temperature 0")
	}
	if res.Adaptive.UpstreamCalls >= res.Naive.UpstreamCalls {
		t.Fatalf("adaptive calls = %d (probes included), want strictly fewer than naive %d",
			res.Adaptive.UpstreamCalls, res.Naive.UpstreamCalls)
	}
	if res.Adaptive.ProbeCalls == 0 {
		t.Fatal("adaptive configuration issued no attributed probe calls on a hintless spec")
	}
	if res.Overlap == nil || !res.Overlap.Identical || res.Overlap.Matches == 0 {
		t.Fatalf("overlap scenario did not reproduce identical matches: %+v", res.Overlap)
	}
	if res.Overlap.DrainFirstEarly != 0 || res.Overlap.OverlapEarly == 0 {
		t.Fatalf("join comparisons issued before the last feed call returned: drain-first %d (want 0), adaptive %d (want at least 1)",
			res.Overlap.DrainFirstEarly, res.Overlap.OverlapEarly)
	}

	// Attribution consistency, for all configurations: the per-stage sums
	// equal the attribution total, and the total equals what the upstream
	// counter actually saw at the model boundary.
	for _, run := range []PipelineStudyRun{res.Naive, res.Optimized, res.Streaming, res.Adaptive} {
		sum := sumStageUsage(run.Stages)
		if sum != run.Usage {
			t.Errorf("%s: stage usage sum %+v != attributed total %+v", run.Config, sum, run.Usage)
		}
		if run.Usage.Calls != run.UpstreamCalls {
			t.Errorf("%s: attributed calls %d != upstream calls %d", run.Config, run.Usage.Calls, run.UpstreamCalls)
		}
		if run.Usage.Total() != run.UpstreamTokens {
			t.Errorf("%s: attributed tokens %d != upstream tokens %d", run.Config, run.Usage.Total(), run.UpstreamTokens)
		}
	}
	if res.CallReduction < 2 {
		t.Errorf("call reduction = %.1fx, want at least 2x on the study workload", res.CallReduction)
	}
	out := FormatPipelineStudy(res)
	for _, want := range []string{"rewrite:", "optimized pipeline", "streaming + probed",
		"adaptive runtime", "identical results: true (streaming: true, adaptive: true)",
		"probe calls:", "overlap scenario:", "per-stage attribution"} {
		if !strings.Contains(out, want) {
			t.Errorf("format output missing %q:\n%s", want, out)
		}
	}
}
