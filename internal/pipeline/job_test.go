package pipeline

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
)

// TestJobStartWaitResult pins the handle's contract: Result reports not-ok
// while the run is in flight, an abandoned Wait leaves the run alive, and
// the eventual outcome is exactly what a synchronous Run returns.
func TestJobStartWaitResult(t *testing.T) {
	release := make(chan struct{})
	gate := func(ctx context.Context, req llm.Request) (llm.Response, error) {
		select {
		case <-release:
			return unit("Yes"), nil
		case <-ctx.Done():
			return llm.Response{}, ctx.Err()
		}
	}
	spec := Spec{Stages: []StageSpec{{Name: "keep", Kind: KindFilter, Predicate: "p"}}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	j := p.Start(context.Background(), ExecConfig{Model: llm.Func{ModelName: "gate", Fn: gate}}, flavorTables(4))
	if _, _, ok := j.Result(); ok {
		t.Fatal("Result reported ok while the model was still blocked")
	}
	// Abandoning a Wait must not abandon the run.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := j.Wait(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait with a dead context returned %v, want context.Canceled", err)
	}
	if _, _, ok := j.Result(); ok {
		t.Fatal("abandoning a Wait finished the job")
	}

	close(release)
	got, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err2, ok := j.Result()
	if !ok || err2 != nil || res != got {
		t.Fatalf("Result after done = (%p, %v, %v), want the Wait outcome", res, err2, ok)
	}

	// The async outcome must match a synchronous run of the same spec on
	// an equivalent (now-unblocked) model.
	want, err := p.Run(context.Background(), ExecConfig{Model: llm.Func{ModelName: "gate", Fn: gate}}, flavorTables(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tables, want.Tables) || !reflect.DeepEqual(got.Scalars, want.Scalars) {
		t.Fatalf("job result diverges from synchronous Run:\njob: %v %v\nrun: %v %v",
			got.Tables, got.Scalars, want.Tables, want.Scalars)
	}
}

// TestJobCancelNoLeak cancels a job mid-call: Wait must surface the
// context error, Done must close, and every stage goroutine must exit.
// Run with -race in CI.
func TestJobCancelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	started := make(chan struct{})
	var once sync.Once
	model := llm.Func{ModelName: "hang", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return llm.Response{}, ctx.Err()
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Predicate: "p"},
		{Name: "cat", Kind: KindCategorize, Categories: []string{"a"}},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	j := p.Start(context.Background(), ExecConfig{Model: model, Parallelism: 2}, flavorTables(6))
	<-started
	j.Cancel()

	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done never closed after Cancel")
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job's error = %v, want context.Canceled", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after Cancel: %d before, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
