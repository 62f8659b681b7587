package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
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
// table already held the full record set — across windowed, serial,
// materialized and batched execution (where the feeder seals a sequence
// block whenever the feed has nothing ready).
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

	configs := []struct {
		name string
		cfg  ExecConfig
	}{
		{"streaming", ExecConfig{Parallelism: 2}},
		{"serial", ExecConfig{Parallelism: 1}},
		{"materialized", ExecConfig{Materialized: true, Parallelism: 2}},
		{"batched", ExecConfig{Parallelism: 2, Batch: 4}},
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

// TestStandingQueryBackpressure feeds a standing query whose feed never
// closes into a filter whose asks are all held upstream. Once the stage
// has Parallelism asks in flight it reads no further, and the feeder must
// stop taking fed records when the stage's edge is full: a fed record is
// a run of one, so beyond the records in flight the feeder takes at most
// edgeBuffer, queued on the edge, and the one its send waits with.
func TestStandingQueryBackpressure(t *testing.T) {
	const parallelism = 2
	var asks atomic.Int64
	model := llm.Func{ModelName: "held", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		asks.Add(1)
		<-ctx.Done()
		return llm.Response{}, ctx.Err()
	}}
	p, err := Compile(Spec{Stages: []StageSpec{{Name: "keep", Kind: KindFilter, Field: "name", Predicate: "p"}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feed := make(chan dataset.Record)
	var taken atomic.Int64
	go func() {
		for i := 0; ; i++ {
			r := dataset.Record{ID: fmt.Sprintf("f%d", i), Fields: []dataset.Field{{Name: "name", Value: fmt.Sprintf("flavor %d", i)}}}
			select {
			case feed <- r:
				taken.Add(1)
			case <-ctx.Done():
				return
			}
		}
	}()
	finished := make(chan error, 1)
	go func() {
		_, err := p.Run(ctx, ExecConfig{Model: model, Parallelism: parallelism, Feed: feed},
			map[string][]dataset.Record{"source": nil})
		finished <- err
	}()
	// Wait for the feeder to stop: no record taken for 200 ms.
	deadline := time.Now().Add(10 * time.Second)
	for last, still := int64(-1), 0; still < 10; {
		if time.Now().After(deadline) {
			t.Fatalf("the feeder never stopped taking fed records: %d taken", taken.Load())
		}
		time.Sleep(20 * time.Millisecond)
		if n := taken.Load(); n != last {
			last, still = n, 0
		} else {
			still++
		}
	}
	if n := asks.Load(); n != parallelism {
		t.Fatalf("%d asks started, want the stage's %d", n, parallelism)
	}
	if n, most := taken.Load(), int64(parallelism+edgeBuffer+1); n > most || n < edgeBuffer {
		t.Fatalf("the feeder took %d fed records before it stopped, want at most %d (%d in flight, edgeBuffer %d on the edge, one waiting to be sent) and the edge full",
			n, most, parallelism, edgeBuffer)
	}
	cancel()
	select {
	case err := <-finished:
		if err == nil {
			t.Fatal("a cancelled standing query reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled standing query never returned")
	}
}
