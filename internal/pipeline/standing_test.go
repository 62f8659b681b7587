package pipeline

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/llm"
)

// feedRecords hands the given waves to a fresh feed channel from a
// background goroutine and closes it when done, so the run under test
// genuinely receives records while it is already executing.
func feedRecords(waves ...[]dataset.Record) <-chan dataset.Record {
	feed := make(chan dataset.Record)
	go func() {
		defer close(feed)
		for _, wave := range waves {
			for _, r := range wave {
				feed <- r
			}
		}
	}()
	return feed
}

// TestStandingQueryMatchesBatch is the standing-query acceptance pin:
// records ingested mid-run through ExecConfig.Feed must leave every
// table, scalar, and detail byte-identical to a batch run whose source
// table already held the full record set — across streaming, adaptive
// (filter segments), and materialized execution.
func TestStandingQueryMatchesBatch(t *testing.T) {
	model := llm.Func{ModelName: "standing", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		switch {
		case strings.Contains(req.Prompt, "tightpred"):
			// Keeps only the two chocolate flavors, wherever they arrive.
			if strings.Contains(req.Prompt, "chocolate chip") {
				return unit("Yes"), nil
			}
			return unit("No"), nil
		case strings.Contains(req.Prompt, "Assign the following item"):
			if strings.Contains(req.Prompt, "lemon") {
				return unit("citrus"), nil
			}
			return unit("other"), nil
		}
		return unit("Yes"), nil
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "loose", Kind: KindFilter, Field: "name", Predicate: "loosepred"},
		{Name: "tight", Kind: KindFilter, Field: "name", Predicate: "tightpred"},
		{Name: "cat", Kind: KindCategorize, Field: "name", Categories: []string{"citrus", "other"}},
		{Name: "tally", Kind: KindCount, Field: "name", Predicate: "loosepred", Strategy: "per-item"},
	}}

	all := flavorTables(12)["source"]
	static, fed := all[:5], all[5:]

	// exact compares every table, scalar, and stage report byte for byte.
	// The adaptive configuration with two records in flight compares final
	// outputs only: which records had finished when a later one started
	// (and with it the segment's internal order revisions) depends on
	// wall-clock timing, so intra-segment tables may legitimately differ
	// between two runs — the segment tail and everything downstream may
	// not. One record in flight keeps the adaptive runtime's segments
	// while making the whole report deterministic.
	configs := []struct {
		name  string
		cfg   ExecConfig
		exact bool
	}{
		{"streaming", ExecConfig{Parallelism: 2}, true},
		{"adaptive-serial", ExecConfig{Adaptive: true, Parallelism: 1}, true},
		{"adaptive-windowed", ExecConfig{Adaptive: true, Parallelism: 2}, false},
		{"materialized", ExecConfig{Materialized: true, Parallelism: 2}, true},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			batchP, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			batchCfg := tc.cfg
			batchCfg.Model = model
			batch, err := batchP.Run(context.Background(), batchCfg,
				map[string][]dataset.Record{"source": all})
			if err != nil {
				t.Fatal(err)
			}

			standP, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			standCfg := tc.cfg
			standCfg.Model = model
			standCfg.Feed = feedRecords(fed[:3], fed[3:])
			standing, err := standP.Run(context.Background(), standCfg,
				map[string][]dataset.Record{"source": static})
			if err != nil {
				t.Fatal(err)
			}

			if tc.exact {
				if !reflect.DeepEqual(batch.Tables, standing.Tables) {
					t.Fatalf("standing-query tables differ from batch run:\nbatch    %v\nstanding %v",
						batch.Tables, standing.Tables)
				}
				for i, s := range batch.Stages {
					o := standing.Stages[i]
					if s.Name != o.Name || s.In != o.In || s.Out != o.Out || s.Detail != o.Detail {
						t.Fatalf("stage %q report differs: batch {in %d out %d %q} vs standing {in %d out %d %q}",
							s.Name, s.In, s.Out, s.Detail, o.In, o.Out, o.Detail)
					}
				}
			} else {
				for _, name := range []string{"tight", "cat", "tally"} {
					if !reflect.DeepEqual(batch.Tables[name], standing.Tables[name]) {
						t.Fatalf("standing-query table %q differs from batch run:\nbatch    %v\nstanding %v",
							name, batch.Tables[name], standing.Tables[name])
					}
				}
			}
			if !reflect.DeepEqual(batch.Scalars, standing.Scalars) {
				t.Fatalf("standing-query scalars differ from batch run: %v vs %v",
					batch.Scalars, standing.Scalars)
			}
			if got := len(standing.Tables["cat"]); got != 2 {
				t.Fatalf("standing query kept %d records, want 2", got)
			}
		})
	}
}

// TestStandingQueryEmptySource runs a standing query whose static source
// table is empty: every record arrives through the feed, and the result
// still matches a batch run over the fed records alone.
func TestStandingQueryEmptySource(t *testing.T) {
	model := llm.Func{ModelName: "standing", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return unit("Yes"), nil
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Field: "name", Predicate: "p"},
	}}
	fed := flavorTables(6)["source"]

	batchP, _ := Compile(spec)
	batch, err := batchP.Run(context.Background(), ExecConfig{Model: model},
		map[string][]dataset.Record{"source": fed})
	if err != nil {
		t.Fatal(err)
	}
	standP, _ := Compile(spec)
	standing, err := standP.Run(context.Background(),
		ExecConfig{Model: model, Feed: feedRecords(fed)},
		map[string][]dataset.Record{"source": nil})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch.Tables["keep"], standing.Tables["keep"]) {
		t.Fatalf("empty-source standing query differs from batch: %v vs %v",
			batch.Tables["keep"], standing.Tables["keep"])
	}
}

// TestStandingQueryCancellation cancels a run whose feed never closes:
// Run must return the cancellation instead of blocking forever, and the
// feeding goroutine must not leak (it selects on the context).
func TestStandingQueryCancellation(t *testing.T) {
	model := llm.Func{ModelName: "standing", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return unit("Yes"), nil
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Field: "name", Predicate: "p"},
	}}
	feed := make(chan dataset.Record) // never fed, never closed
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		p, _ := Compile(spec)
		_, err := p.Run(ctx, ExecConfig{Model: model, Feed: feed}, flavorTables(3))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled standing query reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled standing query never returned")
	}
}
