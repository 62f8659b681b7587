package workflow

import (
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/llm"
)

// DefaultCacheShards is the shard count used by NewCache(0).
// Sixteen shards keep lock contention negligible at the engine's default
// parallelism while costing nothing at low concurrency.
const DefaultCacheShards = 16

// cacheKey identifies a completion for caching and coalescing.
// Temperature-positive requests include the seed (distinct samples must
// stay distinct).
type cacheKey struct {
	model       string
	prompt      string
	temperature float64
	maxTokens   int
	seed        int64
}

// keyFor derives the cache/coalesce identity of a request against a model.
func keyFor(model string, req llm.Request) cacheKey {
	key := cacheKey{
		model:       model,
		prompt:      req.Prompt,
		temperature: req.Temperature,
		maxTokens:   req.MaxTokens,
	}
	if req.Temperature > 0 {
		key.seed = req.Seed
	}
	return key
}

// cacheShard is one lock domain of a Cache. hits is atomic so the hot
// path (a hit) completes entirely under the read lock. dirty records the
// keys inserted since the last log flush, so CacheLog.Flush appends only
// the delta (see cachelog.go); it costs one slice append per put and
// nothing at all on the read path.
type cacheShard struct {
	mu      sync.RWMutex
	entries map[cacheKey]llm.Response
	dirty   []cacheKey
	hits    atomic.Int64
}

// Cache is a sharded, concurrency-safe response store. Keys are spread
// across shards by a hash of the prompt, so concurrent lookups under
// workflow.Map's parallelism contend per shard rather than on one global
// mutex. One Cache serves every model wrapped against its ExecLayer at
// once — the key includes the model name — which is how one cache spans
// every operator of a session.
type Cache struct {
	shards []cacheShard
}

// NewCache returns an empty cache with the given shard count; shards <= 0
// selects DefaultCacheShards.
func NewCache(shards int) *Cache {
	if shards <= 0 {
		shards = DefaultCacheShards
	}
	c := &Cache{shards: make([]cacheShard, shards)}
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]llm.Response)
	}
	return c
}

// shardSeed seeds the shard hash. Shard placement never leaves the
// process (the log flush and compaction sort what they write), so one
// random seed per process serves every cache.
var shardSeed = maphash.MakeSeed()

// shard picks the lock domain of a key. Only the prompt and model feed the
// hash: temperature/seed variants of one prompt are rare enough that
// spreading them further buys nothing.
func (c *Cache) shard(key cacheKey) *cacheShard {
	return c.shardOf(key.model, maphash.String(shardSeed, key.prompt))
}

// shardOf combines a model with its prompt's hash. maphash.String and
// maphash.Bytes agree on equal content, so a prompt held as a string and
// the same prompt held as bytes land in one shard.
func (c *Cache) shardOf(model string, promptHash uint64) *cacheShard {
	h := maphash.String(shardSeed, model)*31 + promptHash
	return &c.shards[h%uint64(len(c.shards))]
}

// get returns the cached response for key, counting a hit.
func (c *Cache) get(key cacheKey) (llm.Response, bool) {
	resp, s, ok := c.lookup(key)
	if ok {
		s.hits.Add(1)
	}
	return resp, ok
}

// lookup is get without counting the hit: it also returns the key's shard,
// so the caller counts the hit there once the ask is served.
func (c *Cache) lookup(key cacheKey) (llm.Response, *cacheShard, bool) {
	s := c.shard(key)
	s.mu.RLock()
	resp, ok := s.entries[key]
	s.mu.RUnlock()
	return resp, s, ok
}

// lookupBytes is lookup for a key whose prompt is given as bytes;
// key.prompt is ignored. The key is built inside the index expression,
// where the compiler converts the bytes to a string without copying them,
// so a lookup allocates nothing.
func (c *Cache) lookupBytes(key cacheKey, prompt []byte) (llm.Response, *cacheShard, bool) {
	s := c.shardOf(key.model, maphash.Bytes(shardSeed, prompt))
	s.mu.RLock()
	resp, ok := s.entries[cacheKey{
		model:       key.model,
		prompt:      string(prompt),
		temperature: key.temperature,
		maxTokens:   key.maxTokens,
		seed:        key.seed,
	}]
	s.mu.RUnlock()
	return resp, s, ok
}

// countHits adds n hits at once. Hits are only ever read as a sum over the
// shards, so which shard carries them does not matter.
func (c *Cache) countHits(n int) {
	c.shards[0].hits.Add(int64(n))
}

// put stores a response under key, marking it dirty for the next log
// flush. Overwrites are marked too: last-write-wins replay makes a
// duplicate log record harmless, and flushing dedupes within one delta.
func (c *Cache) put(key cacheKey, resp llm.Response) {
	s := c.shard(key)
	s.mu.Lock()
	s.entries[key] = resp
	s.dirty = append(s.dirty, key)
	s.mu.Unlock()
}

// Put stores (or overwrites) the response served for prompt against the
// named model at default sampling parameters — the programmatic way to
// pre-seed a cache with known answers (migration from another store,
// canned responses in tests and benchmarks). The entry is marked dirty
// like any insert, so the next CacheLog flush persists it.
func (c *Cache) Put(model, prompt string, resp llm.Response) {
	c.put(cacheKey{model: model, prompt: prompt}, resp)
}

// loadEntry is put without dirty marking: entries arriving from log
// replay are already durable and must not be re-appended by the next
// flush.
func (c *Cache) loadEntry(key cacheKey, resp llm.Response) {
	s := c.shard(key)
	s.mu.Lock()
	s.entries[key] = resp
	s.mu.Unlock()
}

// drainDirty collects and clears every shard's dirty delta, deduplicated
// by key (the current value wins), returning the entries to append.
func (c *Cache) drainDirty() map[cacheKey]llm.Response {
	delta := make(map[cacheKey]llm.Response)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, k := range s.dirty {
			delta[k] = s.entries[k]
		}
		s.dirty = nil
		s.mu.Unlock()
	}
	return delta
}

// markDirty re-flags keys as pending for the next flush — the undo path
// when a compaction drained the dirty set but then failed to replace the
// log file.
func (c *Cache) markDirty(keys map[cacheKey]llm.Response) {
	for k := range keys {
		s := c.shard(k)
		s.mu.Lock()
		s.dirty = append(s.dirty, k)
		s.mu.Unlock()
	}
}

// snapshot copies the full live contents, for compaction.
func (c *Cache) snapshot() map[cacheKey]llm.Response {
	all := make(map[cacheKey]llm.Response)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for k, v := range s.entries {
			all[k] = v
		}
		s.mu.RUnlock()
	}
	return all
}

// Stats returns the total entry and hit counts across shards.
func (c *Cache) Stats() (size, hits int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		size += len(s.entries)
		s.mu.RUnlock()
		hits += int(s.hits.Load())
	}
	return size, hits
}

// cacheEntry is the persistence form of one cached response: the fields
// of a cache-log record.
type cacheEntry struct {
	Model       string
	Prompt      string
	Temperature float64
	MaxTokens   int
	Seed        int64
	Text        string
}

// sortEntries orders persistence entries deterministically: the full
// cache key participates, so a cache shared by several models (or mixed
// sampling parameters) still serializes identically run after run. The
// log flush and compaction both use this one order.
func sortEntries(entries []cacheEntry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Prompt != b.Prompt {
			return a.Prompt < b.Prompt
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Temperature != b.Temperature {
			return a.Temperature < b.Temperature
		}
		return a.MaxTokens < b.MaxTokens
	})
}

// entryList converts a contents map into the sorted persistence form.
func entryList(m map[cacheKey]llm.Response) []cacheEntry {
	entries := make([]cacheEntry, 0, len(m))
	for k, v := range m {
		entries = append(entries, cacheEntry{
			Model:       k.model,
			Prompt:      k.prompt,
			Temperature: k.temperature,
			MaxTokens:   k.maxTokens,
			Seed:        k.seed,
			Text:        v.Text,
		})
	}
	sortEntries(entries)
	return entries
}

// key returns the cache key of a persistence entry.
func (e cacheEntry) key() cacheKey {
	return cacheKey{
		model:       e.Model,
		prompt:      e.Prompt,
		temperature: e.Temperature,
		maxTokens:   e.MaxTokens,
		seed:        e.Seed,
	}
}
