package workflow

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/llm"
)

// TestExecStatsDuringBatchedRun hammers ExecLayer.Stats while a batched
// workload is in flight: Stats is documented as safe under concurrent
// use, and every counter (cache, coalescer, envelopes) must be
// independently synchronized. Run with -race in CI.
func TestExecStatsDuringBatchedRun(t *testing.T) {
	var calls atomic.Int64
	layer := NewExecLayer()
	m := layer.Wrap(envelopeModel(&calls, nil))

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for p := 0; p < 4; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s := layer.Stats()
					if s.Batches < 0 || s.SoloRetries < 0 || s.CacheHits < 0 {
						t.Error("negative counter in mid-run stats snapshot")
						return
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the prompts repeat across groups, so the cache-hit and
			// coalescing counters move too, not just the envelopes.
			reqs := make([]llm.Request, 4)
			for i := range reqs {
				reqs[i].Prompt = fmt.Sprintf("task %d\nbody\n", (4*g+i)%32)
			}
			_, errs := CompleteGroup(context.Background(), m, reqs)
			for _, err := range errs {
				if err != nil {
					t.Errorf("complete: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	pollers.Wait()

	s := layer.Stats()
	if s.Batches == 0 || s.Batches > 16 {
		t.Fatalf("batched run reported %d envelopes, want 1..16: %+v", s.Batches, s)
	}
	if s.CacheSize != 32 {
		t.Fatalf("cache holds %d answers, want the 32 distinct tasks: %+v", s.CacheSize, s)
	}
}
