package workflow

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/llm"
	"repro/internal/token"
)

// ExecStats is a point-in-time snapshot of an ExecLayer's effect.
type ExecStats struct {
	// CacheSize and CacheHits describe the shared response cache.
	CacheSize, CacheHits int
	// Coalesced counts requests answered by joining another caller's
	// in-flight upstream call.
	Coalesced int
	// Batches counts the multi-task envelope calls CompleteGroup issued
	// upstream through this layer (failed envelopes included — they were
	// real upstream calls).
	Batches int
	// SoloRetries counts unit tasks re-issued individually after a failed
	// envelope call or a missing/garbled answer section.
	SoloRetries int
}

// ServeObserver receives every unit ask that passes through an ExecLayer's
// Wrap or CompleteGroup, with the ask's own context — which a
// multi-tenant service has tagged per tenant (TagTenant) — and whether the
// layer served it free: a cache hit or a coalesced follower. An answer a
// group split out of the envelope it paid for is a paid serve. The layer's
// global Stats can only report aggregate hit counts; this per-ask callback
// is what lets a service split them by tenant exactly, even under
// concurrent jobs.
type ServeObserver interface {
	ObserveServe(ctx context.Context, free bool)
}

// ExecLayer is the shared high-throughput execution substrate: one
// sharded response cache plus one in-flight coalescer that span every
// operator (and every engine) wrapped against it. Without it, each
// operator invocation builds a private layer (core's per-session default),
// so nothing is reused across operators. With it, an identical unit task
// is answered upstream exactly once per process — first by coalescing
// while in flight, then by the cache forever after.
//
// Its group form, CompleteGroup, packs a group's cache misses into one
// envelope and counts envelopes and solo retries here, so Stats unifies
// cache, coalescing, and batching effects in one snapshot.
//
// Construct one layer per logical session or service and pass it to every
// engine via core.WithExecutionLayer. Safe for concurrent use.
type ExecLayer struct {
	cache   *Cache
	flights *FlightGroup

	batches     atomic.Int64
	soloRetries atomic.Int64

	// serveObs holds the optional ServeObserver (serveObsBox), consulted
	// per ask by the wrapper Wrap returns.
	serveObs atomic.Value

	// stateMu guards the optional persistence attachment (OpenState).
	stateMu sync.Mutex
	log     *CacheLog
}

// serveObsBox gives atomic.Value one concrete type whatever the observer's
// dynamic type is.
type serveObsBox struct{ obs ServeObserver }

// NewExecLayer returns a layer with a DefaultCacheShards-way cache.
func NewExecLayer() *ExecLayer {
	return &ExecLayer{cache: NewCache(0), flights: NewFlightGroup()}
}

// Cache returns the shared cache handle, for pre-seeding (Cache.Put) and
// size/hit stats.
func (l *ExecLayer) Cache() *Cache { return l.cache }

// Wrap layers the shared cache and coalescer over m: lookups hit the cache
// first; misses coalesce with identical in-flight requests; only flight
// leaders reach m, and a leader publishes its response to the cache before
// its flight retires. When a ServeObserver is attached, every successful
// ask is additionally reported to it with the ask's context. Under a
// HitsOnly context an ask is answered from the cache or not at all.
func (l *ExecLayer) Wrap(m llm.Model) llm.Model {
	return &sharedModel{inner: m, layer: l}
}

// sharedModel is the cache-then-coalesce path of one wrapped model. It is
// what makes "answered upstream exactly once" hold under concurrency:
// a cache wrapper stacked over a separate coalescing wrapper leaves a gap
// between the flight retiring and the response reaching the cache, in
// which a caller that had already missed the cache finds no flight and
// leads a second one. Here the leader closes the gap from both sides — it
// re-checks the cache on entry (a predecessor may have published since
// this caller's miss) and publishes before FlightGroup.do retires its
// flight.
type sharedModel struct {
	inner llm.Model
	layer *ExecLayer
}

// Name implements llm.Model.
func (m *sharedModel) Name() string { return m.inner.Name() }

// Complete implements llm.Model. The hit path is one cache lookup; every
// successful ask is reported to the layer's ServeObserver, classified free
// when the response carries zero usage (served without a fresh billed
// upstream call). Under a HitsOnly context the lookup is all there is.
func (m *sharedModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	key := keyFor(m.inner.Name(), req)
	resp, shard, hit := m.layer.cache.lookup(key)
	if p := hitProbeOf(ctx); p != nil {
		return p.serve(m.layer, resp, hit)
	}
	return m.serve(ctx, key, req, resp, shard, hit)
}

// CompleteBytes implements llm.ByteCompleter. A hit is looked up from the
// caller's bytes and no prompt string is made. A miss copies the prompt
// once, before the flight, the cache or the meter can keep it,
// and then takes Complete's path.
func (m *sharedModel) CompleteBytes(ctx context.Context, prompt []byte, req llm.Request) (llm.Response, error) {
	key := keyFor(m.inner.Name(), req)
	resp, shard, hit := m.layer.cache.lookupBytes(key, prompt)
	if p := hitProbeOf(ctx); p != nil {
		return p.serve(m.layer, resp, hit)
	}
	if !hit {
		req.Prompt = string(prompt)
		key.prompt = req.Prompt
	}
	return m.serve(ctx, key, req, resp, shard, hit)
}

// serve finishes an ask after its cache lookup: a hit is counted and free,
// a miss joins or leads a flight; then the ask is reported to the
// observer.
func (m *sharedModel) serve(ctx context.Context, key cacheKey, req llm.Request, resp llm.Response, shard *cacheShard, hit bool) (llm.Response, error) {
	if hit {
		shard.hits.Add(1)
		resp.Usage = token.Usage{}
	} else {
		var err error
		if resp, err = m.afterMiss(ctx, key, req); err != nil {
			return resp, err
		}
	}
	m.layer.observe(ctx, resp.Usage.IsZero())
	return resp, nil
}

// afterMiss is the path of a caller whose cache lookup missed: join the
// key's flight, or lead one.
func (m *sharedModel) afterMiss(ctx context.Context, key cacheKey, req llm.Request) (llm.Response, error) {
	return m.layer.flights.do(ctx, key, func() (llm.Response, error) {
		if resp, ok := m.layer.cache.get(key); ok {
			resp.Usage = token.Usage{}
			return resp, nil
		}
		resp, err := m.inner.Complete(ctx, req)
		if answered(resp, err) {
			m.layer.cache.put(key, resp)
		}
		return resp, err
	})
}

// ErrNotCached is how an ask under a HitsOnly context ends when its answer
// is not in the layer's cache. Nothing below the cache lookup saw the ask:
// no flight, Meter, budget or ServeObserver.
var ErrNotCached = errors.New("workflow: answer not cached")

// HitProbe is the hits-only mode of the asks that go through an
// ExecLayer: under the context HitsOnly returns, an ask is answered from
// the cache or not at all. A caller probes a unit of work — one record's
// asks, however many — on the caller's goroutine, and gives the work a
// goroutine of its own only when the probe misses.
//
// Accounting is exact whichever path serves the work. Hits under the probe
// are tallied, not counted; Settle counts them, or forgets them when the
// work missed, so work that hit k times and then missed leaves no trace
// and is counted once, by the real ask that follows. The asks under one
// probe must run one at a time.
type HitProbe struct {
	layer *ExecLayer // whose cache served the hits so far
	hits  int
}

type hitProbeKey struct{}

// HitsOnly returns a context that puts every ask through an ExecLayer
// into hits-only mode, and the probe that tallies its hits. Make it once
// for a run of probes, not once per unit of work.
func HitsOnly(ctx context.Context) (context.Context, *HitProbe) {
	p := new(HitProbe)
	return context.WithValue(ctx, hitProbeKey{}, p), p
}

func hitProbeOf(ctx context.Context) *HitProbe {
	p, _ := ctx.Value(hitProbeKey{}).(*HitProbe)
	return p
}

// serve answers an ask under the probe from its cache lookup: a hit is
// tallied and free. A miss, or a hit from a second layer's cache (the
// probe settles with one), is ErrNotCached.
func (p *HitProbe) serve(l *ExecLayer, resp llm.Response, hit bool) (llm.Response, error) {
	if !hit || (p.layer != nil && p.layer != l) {
		return llm.Response{}, ErrNotCached
	}
	p.layer = l
	p.hits++
	resp.Usage = token.Usage{}
	return resp, nil
}

// Settle ends one unit of probed work, given how it ended, and reports
// whether it was served. err wrapping ErrNotCached means it was not: its
// hits are forgotten, and the caller must do the work for real. Any other
// outcome, an error included, is what the real asks would have returned,
// so the hits are counted as served: in the layer's cache hits, and one
// free serve each to its ServeObserver with ctx, the work's own context.
func (p *HitProbe) Settle(ctx context.Context, err error) bool {
	l, hits := p.layer, p.hits
	p.layer, p.hits = nil, 0
	if errors.Is(err, ErrNotCached) {
		return false
	}
	if hits > 0 {
		l.cache.countHits(hits)
		for range hits {
			l.observe(ctx, true)
		}
	}
	return true
}

// SetServeObserver attaches (or, with nil, detaches) the per-ask observer.
// Safe to call concurrently with in-flight requests; asks already past the
// observation point keep the observer they loaded.
func (l *ExecLayer) SetServeObserver(o ServeObserver) {
	l.serveObs.Store(serveObsBox{obs: o})
}

// observe reports one served ask to the ServeObserver, if one is attached.
func (l *ExecLayer) observe(ctx context.Context, free bool) {
	if box, ok := l.serveObs.Load().(serveObsBox); ok && box.obs != nil {
		box.obs.ObserveServe(ctx, free)
	}
}

// Stats snapshots the layer's counters. It is safe to call concurrently
// with in-flight requests (and with other Stats calls): every counter is
// independently synchronized, so a snapshot taken mid-run is a consistent
// point-in-time lower bound, never a torn read.
func (l *ExecLayer) Stats() ExecStats {
	size, hits := l.cache.Stats()
	return ExecStats{
		CacheSize:   size,
		CacheHits:   hits,
		Coalesced:   l.flights.Coalesced(),
		Batches:     int(l.batches.Load()),
		SoloRetries: int(l.soloRetries.Load()),
	}
}

// CacheLogName is the file name of an ExecLayer's cache log inside a
// state directory (see OpenState and core.WithStateDir).
const CacheLogName = "cache.log"

// OpenState attaches an append-only cache log under dir (dir/cache.log,
// created if needed) and replays its contents into the layer's shared
// cache, so a new process starts warm: every previously answered unit
// task is re-served free. Returns the replay stats — Recovered set means
// a torn tail from a crashed predecessor was recovered (the valid prefix
// loaded). Call FlushState to persist new entries (O(delta)) and
// CompactState to reclaim superseded records. Calling OpenState on a
// layer that already has state is a no-op reporting zero stats.
func (l *ExecLayer) OpenState(dir string) (ReplayStats, error) {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	if l.log != nil {
		return ReplayStats{}, nil
	}
	lg, err := OpenCacheLog(filepath.Join(dir, CacheLogName))
	if err != nil {
		return ReplayStats{}, err
	}
	stats, err := lg.Replay(l.cache)
	if err != nil {
		lg.Close()
		return stats, err
	}
	l.log = lg
	return stats, nil
}

// HasState reports whether a cache log is attached.
func (l *ExecLayer) HasState() bool {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	return l.log != nil
}

// compactMinRecords is the log size below which FlushState never
// auto-compacts: rewriting a small log saves nothing and churns the
// file under rapid flush cycles.
const compactMinRecords = 1024

// FlushState appends every cache entry inserted since the last flush to
// the attached log — O(delta), no rewrite of existing bytes — and syncs.
// Returns the number of records appended; without attached state it is a
// no-op. Safe to call concurrently with in-flight requests: entries
// inserted during the flush land in the next delta.
//
// FlushState also owns size-triggered compaction: when superseded
// records outnumber live entries (log records more than twice the cache
// size, past a small floor) the log is rewritten to live entries only,
// so a long-running service's log stays proportional to its cache
// without anyone scheduling maintenance.
func (l *ExecLayer) FlushState() (int, error) {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	if l.log == nil {
		return 0, nil
	}
	n, err := l.log.Flush(l.cache)
	if err != nil {
		return n, err
	}
	live, _ := l.cache.Stats()
	if st := l.log.Stats(); st.Records >= compactMinRecords && st.Records > 2*live {
		if err := l.log.Compact(l.cache); err != nil {
			return n, fmt.Errorf("auto-compact after flush: %w", err)
		}
	}
	return n, nil
}

// CompactState rewrites the attached log to the cache's live entries
// only, atomically, dropping superseded records. No-op without state.
func (l *ExecLayer) CompactState() error {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	if l.log == nil {
		return nil
	}
	return l.log.Compact(l.cache)
}

// StateStats returns the attached log's stats; ok is false when no state
// is attached.
func (l *ExecLayer) StateStats() (stats CacheLogStats, ok bool) {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	if l.log == nil {
		return CacheLogStats{}, false
	}
	return l.log.Stats(), true
}

// CloseState flushes pending entries and closes the log, detaching it.
// No-op without state.
func (l *ExecLayer) CloseState() error {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	if l.log == nil {
		return nil
	}
	_, ferr := l.log.Flush(l.cache)
	cerr := l.log.Close()
	l.log = nil
	if ferr != nil {
		return ferr
	}
	return cerr
}
