package workflow

import (
	"context"
	"sync"

	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/token"
)

// soloRetryParallelism bounds the concurrent solo retries issued after a
// failed envelope call or a bad split.
const soloRetryParallelism = 8

// CompleteGroup asks reqs as one group and returns each request's response
// and error, index-aligned. Through a model an ExecLayer wrapped, it is the
// group form of Complete: each request is served from the cache, joins
// another caller's flight, or is led by the group, and the keys the group
// leads go upstream through the model below the layer as one multi-task
// envelope (prompt.TaskBatch; a lone key verbatim), billed once. The reply
// is split into the cache and to each flight's followers; a split answer
// carries no usage. A key whose section is missing or garbled, and every
// key of a failed envelope, is asked again alone with its own prompt, so a
// bad reply costs calls, never an answer. Only requests at temperature 0
// with no MaxTokens cap whose prompt embeds losslessly (prompt.CanEmbed)
// ride an envelope; any other, and every request through a model no layer
// wrapped, is asked through Complete, concurrently. Under a Turn's context
// the group takes its flights only once the turn before it has.
func CompleteGroup(ctx context.Context, m llm.Model, reqs []llm.Request) ([]llm.Response, []error) {
	resps, errs := make([]llm.Response, len(reqs)), make([]error, len(reqs))
	var leads []lead
	var alone []int
	sm, _ := m.(*sharedModel)
	turnOf(ctx).wait(ctx)
	for i, req := range reqs {
		switch resp, served, l := sm.claim(ctx, req); {
		case served:
			resps[i] = resp
		case l.f != nil:
			l.i = i
			leads = append(leads, l)
		default:
			alone = append(alone, i)
		}
	}
	turnOf(ctx).End()
	sm.lead(ctx, reqs, leads, resps, errs)
	each(len(alone), len(alone), func(k int) {
		resps[alone[k]], errs[alone[k]] = m.Complete(ctx, reqs[alone[k]])
	})
	return resps, errs
}

// lead is one key a group leads: request i's, and its flight.
type lead struct {
	i   int
	key cacheKey
	f   *flight
}

// claim takes one request of a group: the cache serves it, or it opens the
// request's flight (l.f) for the group to lead, or it is left to Complete.
func (m *sharedModel) claim(ctx context.Context, req llm.Request) (resp llm.Response, served bool, l lead) {
	if m == nil || req.Temperature != 0 || req.MaxTokens > 0 || !prompt.CanEmbed(req.Prompt) {
		return resp, false, l
	}
	l.key = keyFor(m.inner.Name(), req)
	if hit, shard, ok := m.layer.cache.lookup(l.key); ok {
		resp, _ = m.serve(ctx, l.key, req, hit, shard, true)
		return resp, true, l
	}
	f, leader := m.layer.flights.claim(l.key)
	if !leader {
		return resp, false, l
	}
	if hit, ok := m.layer.cache.get(l.key); ok { // published since the lookup
		m.layer.flights.finish(l.key, f, hit, nil)
		hit.Usage = token.Usage{}
		m.layer.observe(ctx, true)
		return hit, true, l
	}
	l.f = f
	return resp, false, l
}

// lead asks the led keys upstream and finishes their flights. Each answer
// is a paid serve to the ServeObserver: the group's envelope paid for it.
func (m *sharedModel) lead(ctx context.Context, reqs []llm.Request, leads []lead, resps []llm.Response, errs []error) {
	settle := func(l lead, resp llm.Response, err error) {
		if answered(resp, err) {
			m.layer.cache.put(l.key, resp)
		}
		m.layer.flights.finish(l.key, l.f, resp, err)
		if resps[l.i], errs[l.i] = resp, err; err == nil {
			m.layer.observe(ctx, false)
		}
	}
	switch len(leads) {
	case 0:
		return
	case 1:
		resp, err := m.inner.Complete(ctx, reqs[leads[0].i])
		settle(leads[0], resp, err)
		return
	}
	prompts := make([]string, len(leads))
	for k, l := range leads {
		prompts[k] = reqs[l.i].Prompt
	}
	m.layer.batches.Add(1)
	env, err := m.inner.Complete(ctx, llm.Request{Prompt: prompt.TaskBatch(prompts)})
	var answers map[int]string
	if answered(env, err) {
		answers, _ = prompt.ParseTaskBatch(env.Text, len(leads)) // garbled: no sections
	}
	var retry []lead
	for k, l := range leads {
		if a, ok := answers[k]; ok {
			settle(l, llm.Response{Text: a, Model: env.Model}, nil)
			errs[l.i] = err // a cap the envelope crossed is the group's own
		} else {
			retry = append(retry, l)
		}
	}
	m.layer.soloRetries.Add(int64(len(retry)))
	each(len(retry), soloRetryParallelism, func(k int) {
		resp, err := m.inner.Complete(ctx, reqs[retry[k].i])
		settle(retry[k], resp, err)
	})
}

// each runs fn(k) for every k < n, at most limit at once, and returns once
// every call has.
func each(n, limit int, fn func(k int)) {
	sem := make(chan struct{}, max(limit, 1))
	var wg sync.WaitGroup
	for k := range n {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fn(k)
		}()
	}
	wg.Wait()
}

// A Turn orders the groups one caller launches: the group asked under a
// turn's Context takes its flights in CompleteGroup only once the group of
// the turn before has taken theirs, so of two groups asking one key the
// earlier leads it, whatever the scheduler does.
type Turn struct {
	prev <-chan struct{}
	done chan struct{}
	once sync.Once
}

// NextTurn returns the turn after prev; a nil prev starts a sequence.
func NextTurn(prev *Turn) *Turn {
	t := &Turn{done: make(chan struct{})}
	if prev != nil {
		t.prev = prev.done
	}
	return t
}

type turnKey struct{}

// Context returns ctx under the turn.
func (t *Turn) Context(ctx context.Context) context.Context {
	return context.WithValue(ctx, turnKey{}, t)
}

// End lets the next turn take its flights; the caller ends each turn once
// its group has returned. Ending twice, or a nil turn, does nothing.
func (t *Turn) End() {
	if t != nil {
		t.once.Do(func() { close(t.done) })
	}
}

func turnOf(ctx context.Context) *Turn {
	t, _ := ctx.Value(turnKey{}).(*Turn)
	return t
}

// wait blocks until the turn before t has ended, or ctx has.
func (t *Turn) wait(ctx context.Context) {
	if t != nil && t.prev != nil {
		select {
		case <-t.prev:
		case <-ctx.Done():
		}
	}
}
