package workflow

import (
	"context"
	"errors"
	"sync"

	"repro/internal/llm"
	"repro/internal/token"
)

// flight is one in-progress upstream call that followers wait on.
type flight struct {
	done chan struct{}
	resp llm.Response
	err  error
}

// FlightGroup tracks in-flight completions so concurrent identical
// requests issue one upstream call (the singleflight pattern). A group
// keys by (model, prompt, temperature, max tokens, seed), so it can be
// shared by wrappers over different models. Safe for concurrent use.
type FlightGroup struct {
	mu        sync.Mutex
	inflight  map[cacheKey]*flight
	coalesced int
}

// NewFlightGroup returns an empty group.
func NewFlightGroup() *FlightGroup {
	return &FlightGroup{inflight: make(map[cacheKey]*flight)}
}

// Coalesced returns how many requests were answered by joining another
// caller's in-flight upstream call.
func (g *FlightGroup) Coalesced() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.coalesced
}

// do runs fn once per key among concurrent callers. The leader executes
// fn; followers block until the leader finishes and share its result with
// zero usage (no upstream call was made on their behalf). A follower whose
// own context is cancelled returns early with the context error.
//
// Upstream errors are shared with every follower of the flight — they
// were promised that call's outcome. The exception is the leader's own
// cancellation: a layer can be shared across sessions, and one session
// timing out must not poison identical requests from live sessions, so a
// follower whose leader was cancelled retries (and typically becomes the
// new leader under its own context).
func (g *FlightGroup) do(ctx context.Context, key cacheKey, fn func() (llm.Response, error)) (llm.Response, error) {
	for {
		g.mu.Lock()
		f, ok := g.inflight[key]
		if !ok {
			f = &flight{done: make(chan struct{})}
			g.inflight[key] = f
			g.mu.Unlock()

			f.resp, f.err = fn()
			g.mu.Lock()
			delete(g.inflight, key)
			g.mu.Unlock()
			close(f.done)
			if f.err != nil {
				return llm.Response{}, f.err
			}
			return f.resp, nil
		}
		g.coalesced++
		g.mu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				if ctx.Err() != nil {
					return llm.Response{}, ctx.Err()
				}
				if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
					continue // the leader died, not the call; retry fresh
				}
				return llm.Response{}, f.err
			}
			resp := f.resp
			resp.Usage = token.Usage{}
			return resp, nil
		case <-ctx.Done():
			return llm.Response{}, ctx.Err()
		}
	}
}
