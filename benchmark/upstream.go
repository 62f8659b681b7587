package main

import (
	"context"
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/llm"
	"repro/internal/workflow"
)

// Upstream latency profile: 95 % of prompts answer in about fastDelay, 5 %
// in about slowDelay, each spread uniformly by +-delayJitter of itself.
// Without the spread a job's latency is quantised in 100 ms steps (how
// many of its chunks met a slow prompt) and a percentile sitting between
// two steps flips from run to run. Both draws are a hash of (seed,
// prompt), so the tail is deterministic per seed and a retried or replayed
// prompt costs the same every time.
const (
	fastDelay   = 20 * time.Millisecond
	slowDelay   = 120 * time.Millisecond
	slowShare   = 0.05
	delayJitter = 0.5
)

// upstream is the benchmark's model boundary: the simulator behind a
// deterministic prompt-hashed delay, counting calls and busy time per
// tenant and, while a trace is attached, recording one span per call.
// It stands in for cmd/llmserver behind llm.WithLatency.
type upstream struct {
	inner llm.Model
	seed  int64

	// latency is off during set-up and verification, which fill caches
	// and compute references without paying the simulated network.
	latency atomic.Bool
	trace   atomic.Pointer[tracer]

	mu      sync.Mutex
	tenants map[string]*flightLog
}

// flightLog accumulates one tenant's upstream activity: the summed call
// durations (busy) and the time at least one call was in flight (cover).
type flightLog struct {
	inflight int
	since    time.Time
	busy     time.Duration
	cover    time.Duration
}

func newUpstream(inner llm.Model, seed int64) *upstream {
	return &upstream{inner: inner, seed: seed, tenants: make(map[string]*flightLog)}
}

// Name implements llm.Model.
func (u *upstream) Name() string { return u.inner.Name() }

// delay is the prompt's simulated round trip.
func (u *upstream) delay(prompt string) time.Duration {
	h := fnv.New64a()
	h.Write([]byte(strconv.FormatInt(u.seed, 10)))
	h.Write([]byte{0})
	h.Write([]byte(prompt))
	// FNV-1a leaves a short suffix change in a narrow band of bits; the
	// murmur finalizer spreads it over the word before two draws are cut
	// from it.
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	base := fastDelay
	if float64(x>>40)/float64(1<<24) < slowShare {
		base = slowDelay
	}
	spread := (float64(x&0xffffff)/float64(1<<24)*2 - 1) * delayJitter
	return time.Duration(float64(base) * (1 + spread))
}

// Complete implements llm.Model: a context-aware sleep, then the
// simulator's answer.
func (u *upstream) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if !u.latency.Load() {
		return u.inner.Complete(ctx, req)
	}
	tenant := workflow.TenantTag(ctx)
	start := time.Now()
	u.begin(tenant, start)
	timer := time.NewTimer(u.delay(req.Prompt))
	var err error
	select {
	case <-timer.C:
	case <-ctx.Done():
		timer.Stop()
		err = ctx.Err()
	}
	var resp llm.Response
	if err == nil {
		resp, err = u.inner.Complete(ctx, req)
	}
	end := time.Now()
	u.end(tenant, start, end)
	if tr := u.trace.Load(); tr != nil {
		tr.upstreamSpan(tenant, workflow.StageTag(ctx), start, end)
	}
	return resp, err
}

func (u *upstream) begin(tenant string, now time.Time) {
	u.mu.Lock()
	defer u.mu.Unlock()
	f := u.tenants[tenant]
	if f == nil {
		f = &flightLog{}
		u.tenants[tenant] = f
	}
	if f.inflight == 0 {
		f.since = now
	}
	f.inflight++
}

func (u *upstream) end(tenant string, start, now time.Time) {
	u.mu.Lock()
	defer u.mu.Unlock()
	f := u.tenants[tenant]
	f.busy += now.Sub(start)
	f.inflight--
	if f.inflight == 0 {
		f.cover += now.Sub(f.since)
	}
}

// upstreamTotals sums the per-tenant logs.
type upstreamTotals struct {
	busy, cover time.Duration
}

// totals snapshots the summed activity. Calls still in flight contribute
// their cover up to now, so a snapshot taken mid-run is not short.
func (u *upstream) totals() upstreamTotals {
	now := time.Now()
	u.mu.Lock()
	defer u.mu.Unlock()
	var t upstreamTotals
	for _, f := range u.tenants {
		t.busy += f.busy
		t.cover += f.cover
		if f.inflight > 0 {
			t.cover += now.Sub(f.since)
		}
	}
	return t
}
