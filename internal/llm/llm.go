// Package llm defines the model abstraction of the toolkit: text in, text
// out, with usage accounting. Everything above this package — strategies,
// planner, quality control — is agnostic to whether a model is the
// built-in simulator, a remote HTTP endpoint, or (in a production fork) a
// real vendor API.
package llm

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/token"
)

// ErrUnknownModel reports a request for a model name absent from a
// Registry.
var ErrUnknownModel = errors.New("llm: unknown model")

// Request is one completion call.
type Request struct {
	// Prompt is the full text sent to the model.
	Prompt string
	// Temperature controls output randomness. The paper's experiments all
	// run at temperature 0 (deterministic).
	Temperature float64
	// MaxTokens caps the completion length; 0 means no explicit cap.
	MaxTokens int
	// Seed decorrelates repeated sampling of the same prompt (e.g.
	// self-consistency voting). At temperature 0 it is ignored.
	Seed int64
}

// Response is the model's reply.
type Response struct {
	// Text is the raw completion text.
	Text string
	// Usage records the token cost of this call.
	Usage token.Usage
	// Model is the name of the model that produced the response.
	Model string
}

// Model is a text completion model.
type Model interface {
	// Name returns the model identifier used for pricing and logging.
	Name() string
	// Complete runs one completion. Implementations must be safe for
	// concurrent use.
	Complete(ctx context.Context, req Request) (Response, error)
}

// ByteCompleter is the optional face of a Model that can answer a prompt
// handed over as bytes, so a caller that renders every prompt into one
// reused buffer need not make a string of it. The bytes are valid only
// for the duration of the call: an implementation that keeps the prompt
// copies it first. req carries every other field of the request; its
// Prompt is ignored.
type ByteCompleter interface {
	CompleteBytes(ctx context.Context, prompt []byte, req Request) (Response, error)
}

// Registry maps model names to models. It is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	models map[string]Model
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]Model)}
}

// Register adds or replaces a model under its own name.
func (r *Registry) Register(m Model) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.models[m.Name()] = m
}

// Get returns the named model or ErrUnknownModel.
func (r *Registry) Get(name string) (Model, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return m, nil
}

// Names returns the registered model names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.models))
	for name := range r.models {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Func adapts a function to the Model interface; useful in tests.
type Func struct {
	// ModelName is returned by Name.
	ModelName string
	// Fn handles completions.
	Fn func(ctx context.Context, req Request) (Response, error)
}

// Name implements Model.
func (f Func) Name() string { return f.ModelName }

// Complete implements Model.
func (f Func) Complete(ctx context.Context, req Request) (Response, error) {
	return f.Fn(ctx, req)
}

// CountingModel wraps a Model and accumulates total usage across calls.
// It is safe for concurrent use and is how the workflow layer observes
// spend without threading accounting through every strategy.
type CountingModel struct {
	inner Model
	mu    sync.Mutex
	total token.Usage
}

// NewCounting wraps m.
func NewCounting(m Model) *CountingModel { return &CountingModel{inner: m} }

// Name implements Model.
func (c *CountingModel) Name() string { return c.inner.Name() }

// Complete implements Model, adding the call's usage to the running total.
func (c *CountingModel) Complete(ctx context.Context, req Request) (Response, error) {
	resp, err := c.inner.Complete(ctx, req)
	if err == nil {
		c.mu.Lock()
		c.total = c.total.Add(resp.Usage)
		c.mu.Unlock()
	}
	return resp, err
}

// Total returns the usage accumulated so far.
func (c *CountingModel) Total() token.Usage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Reset zeroes the accumulated usage and returns the previous total.
func (c *CountingModel) Reset() token.Usage {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.total
	c.total = token.Usage{}
	return prev
}

// LatencyModel wraps a Model with a fixed, deterministic per-call delay —
// a stand-in for real network and inference latency when an experiment
// measures scheduling effects (streaming overlap, batching) rather than
// token counts. The sleep is context-aware: cancellation cuts the wait
// short and surfaces the context's error.
type LatencyModel struct {
	inner Model
	delay time.Duration
}

// WithLatency wraps m so every Complete call takes at least delay.
func WithLatency(m Model, delay time.Duration) *LatencyModel {
	return &LatencyModel{inner: m, delay: delay}
}

// Name implements Model.
func (l *LatencyModel) Name() string { return l.inner.Name() }

// Complete implements Model, sleeping before delegating.
func (l *LatencyModel) Complete(ctx context.Context, req Request) (Response, error) {
	if l.delay > 0 {
		timer := time.NewTimer(l.delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return Response{}, ctx.Err()
		}
	}
	return l.inner.Complete(ctx, req)
}
