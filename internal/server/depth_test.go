package server

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/resil"
	"repro/internal/workflow"
)

// depthProbe is a bottom-of-the-chain model that records, for every call
// that reaches it, the llm.Model wrappers the call descended through: the
// frames on its own stack whose function is some type's Complete method.
type depthProbe struct {
	inner llm.Model

	mu     sync.Mutex
	chains [][]string
	asked  []string
}

func (p *depthProbe) Name() string { return p.inner.Name() }

func (p *depthProbe) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	pcs := make([]uintptr, 128)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)]) // skip Callers and this method
	var chain []string
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".Complete") {
			chain = append(chain, f.Function)
		}
		if !more {
			break
		}
	}
	p.mu.Lock()
	p.chains = append(p.chains, chain)
	p.asked = append(p.asked, req.Prompt)
	p.mu.Unlock()
	return p.inner.Complete(ctx, req)
}

// deepest returns the longest wrapper chain any call came through.
func (p *depthProbe) deepest(t *testing.T) []string {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.chains) == 0 {
		t.Fatal("no call reached the bottom model")
	}
	var max []string
	for _, c := range p.chains {
		if len(c) > len(max) {
			max = c
		}
	}
	return max
}

// TestUnitTaskCallDepth pins how many llm.Model wrappers a unit task
// descends: a declserver cache miss passes the shared cache-and-coalescer,
// one meter, the server's upstream counter and the resilience wrapper,
// batched or not (an envelope leaves from the layer's group form, below
// the wrapper); a bare engine's miss passes its private layer and its
// meter; a warm ask stops at the cache.
func TestUnitTaskCallDepth(t *testing.T) {
	policy := &resil.Policy{MaxAttempts: 2}
	for _, tc := range []struct {
		name  string
		batch int
		max   int
	}{
		{"server miss", 0, 4},
		{"server miss batched", 8, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probe := &depthProbe{inner: testOracle()}
			layer := workflow.NewExecLayer()
			srv := New(Config{Model: probe, Exec: layer, Resilience: policy, Batch: tc.batch})
			submit := func() {
				t.Helper()
				st, err := srv.Submit(context.Background(), SubmitRequest{
					Tenant: "acme", Spec: toolSpec(), Tables: kindTable("r", 6, "tool", "toy", "tin"),
				})
				if err != nil || st.State != JobDone {
					t.Fatalf("submit: %v, %+v", err, st)
				}
			}
			submit()
			chain := probe.deepest(t)
			if len(chain) > tc.max {
				t.Fatalf("a cache miss descended %d wrappers, want <= %d:\n  %s",
					len(chain), tc.max, strings.Join(chain, "\n  "))
			}

			// Warm: the same job again reaches nothing upstream, and an
			// ask for a prompt the cold job paid for stops at the layer's
			// wrapper — the model directly below it is never entered.
			cold := len(probe.chains)
			submit()
			if len(probe.chains) != cold {
				t.Fatalf("warm job made %d upstream calls", len(probe.chains)-cold)
			}
			if tc.batch > 0 {
				return // upstream saw envelopes, not the cached unit prompts
			}
			below := llm.Func{ModelName: probe.Name(), Fn: func(context.Context, llm.Request) (llm.Response, error) {
				t.Error("a warm ask reached the model below the cache")
				return llm.Response{}, nil
			}}
			resp, err := layer.Wrap(below).Complete(context.Background(), llm.Request{Prompt: probe.asked[0]})
			if err != nil || !resp.Usage.IsZero() || resp.Text == "" {
				t.Fatalf("warm ask = %+v, %v; want the cached answer at zero usage", resp, err)
			}
		})
	}

	t.Run("bare engine miss", func(t *testing.T) {
		probe := &depthProbe{inner: testOracle()}
		_, err := core.New(probe).Filter(context.Background(), core.FilterRequest{
			Items: []string{"tool", "toy"}, Predicate: "the kind is tool",
		})
		if err != nil {
			t.Fatal(err)
		}
		if chain := probe.deepest(t); len(chain) > 2 {
			t.Fatalf("a bare engine's miss descended %d wrappers, want <= 2:\n  %s",
				len(chain), strings.Join(chain, "\n  "))
		}
	})
}
