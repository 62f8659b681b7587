package workflow

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/llm"
	"repro/internal/resil"
	"repro/internal/token"
)

// flight is one in-progress upstream call that followers wait on.
type flight struct {
	done chan struct{}
	resp llm.Response
	err  error // what the followers get; nil means resp
}

// FlightGroup tracks in-flight completions so concurrent identical
// requests issue one upstream call (the singleflight pattern). A group
// keys by (model, prompt, temperature, max tokens, seed), so it can be
// shared by wrappers over different models. Safe for concurrent use.
type FlightGroup struct {
	mu        sync.Mutex
	inflight  map[cacheKey]*flight
	coalesced atomic.Int64
}

// NewFlightGroup returns an empty group.
func NewFlightGroup() *FlightGroup {
	return &FlightGroup{inflight: make(map[cacheKey]*flight)}
}

// Coalesced returns how many requests were answered by joining another
// caller's in-flight upstream call.
func (g *FlightGroup) Coalesced() int { return int(g.coalesced.Load()) }

// claim returns key's flight, and whether the caller opened it and so
// must finish it.
func (g *FlightGroup) claim(key cacheKey) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.inflight[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	g.inflight[key] = f
	return f, true
}

// finish retires a flight its leader opened: the followers get resp if the
// upstream answered, and err otherwise.
func (g *FlightGroup) finish(key cacheKey, f *flight, resp llm.Response, err error) {
	if answered(resp, err) {
		f.resp = resp
	} else {
		f.err = err
	}
	g.mu.Lock()
	delete(g.inflight, key)
	g.mu.Unlock()
	close(f.done)
}

// answered reports whether an upstream call gave an answer: it succeeded,
// or its billed reply crossed the caller's budget cap, which only that
// caller is told.
func answered(resp llm.Response, err error) bool {
	return err == nil || (errors.Is(err, ErrBudgetExhausted) && !resp.Usage.IsZero())
}

// leaderScoped reports whether a flight's error is its leader's, not the
// call's: its cancellation, its budget's refusal, or a retry its retry
// budget denied.
func leaderScoped(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrBudgetExhausted) || errors.Is(err, resil.ErrRetryDenied)
}

// do runs fn once per key among concurrent callers. The leader executes
// fn; followers block until the leader finishes and share its result with
// zero usage (no upstream call was made on their behalf). A follower whose
// own context is cancelled returns early with the context error.
//
// A flight's outcome is the same for every tenant that shares it: an
// answer, also one that crossed the leader's cap, and an upstream error
// are shared with every follower, but an error that is the leader's own
// (leaderScoped) is not — the follower retries, and typically leads the
// next flight under its own context and budget.
func (g *FlightGroup) do(ctx context.Context, key cacheKey, fn func() (llm.Response, error)) (llm.Response, error) {
	for {
		f, leader := g.claim(key)
		if leader {
			resp, err := fn()
			g.finish(key, f, resp, err)
			return resp, err
		}
		g.coalesced.Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			return llm.Response{}, ctx.Err()
		}
		switch {
		case f.err == nil:
			resp := f.resp
			resp.Usage = token.Usage{}
			return resp, nil
		case ctx.Err() != nil:
			return llm.Response{}, ctx.Err()
		case leaderScoped(f.err):
			continue // the leader could not ask, not the call; retry fresh
		}
		return llm.Response{}, f.err
	}
}
