package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job share
// Job; Parent names the span that caused this one. Times are microseconds
// since the trace began.
type span struct {
	ID     string  `json:"id"`
	Parent string  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"`
	Tenant string  `json:"tenant,omitempty"`
	Stage  string  `json:"stage,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	// Replayed marks a span measured by re-running the job's bytes
	// in-process after the window; it is placed inside its parent, not
	// where it ran.
	Replayed bool `json:"replayed,omitempty"`
}

// Span names. Everything is recorded from benchmark code, around calls
// into a layer; the program itself carries no spans yet.
const (
	spanJob      = "loadgen.job"
	spanTenant   = "loadgen.tenant"
	spanHTTP     = "server.http"
	spanDecode   = "server.decode"
	spanEncode   = "server.encode"
	spanCompile  = "pipeline.compile"
	spanRun      = "pipeline.run"
	spanEmbed    = "embed.calls"
	spanUpstream = "llm.upstream"
)

// jobRecord is what the load generator keeps per traced job.
type jobRecord struct {
	id, tenant      string
	due, sent, done time.Time
}

type upstreamRecord struct {
	tenant, stage string
	start, end    time.Time
}

// tracer collects raw records during the traced pass; spans are linked
// afterwards so the hot path only appends under a mutex.
type tracer struct {
	origin time.Time

	mu       sync.Mutex
	jobs     []jobRecord
	upstream []upstreamRecord
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) job(r jobRecord) {
	t.mu.Lock()
	t.jobs = append(t.jobs, r)
	t.mu.Unlock()
}

func (t *tracer) upstreamSpan(tenant, stage string, start, end time.Time) {
	t.mu.Lock()
	t.upstream = append(t.upstream, upstreamRecord{tenant, stage, start, end})
	t.mu.Unlock()
}

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.origin)) / float64(time.Microsecond)
}

// replayTimes are one job's in-process replay measurements.
type replayTimes struct {
	decode, compile, run, embed, encode time.Duration
}

// spans links the raw records into a tree. On a closed loop a tenant has
// one job in flight, so an upstream call belongs to the job of its tenant
// whose HTTP interval contains it. On the open loop a tenant runs several
// jobs at once and the call's context names only (tenant, stage), so
// upstream spans hang off one root span per tenant instead. replays adds
// the replayed children to the jobs it covers, keyed by job id.
func (t *tracer) spans(open bool, end time.Time, replays map[string]replayTimes) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	byTenant := make(map[string][]int) // tenant -> indexes into t.jobs, by sent time
	for i, j := range t.jobs {
		jobSpan := "job:" + j.id
		httpSpan := "http:" + j.id
		out = append(out,
			span{ID: jobSpan, Name: spanJob, Job: j.id, Tenant: j.tenant, Start: t.us(j.due), End: t.us(j.done)},
			span{ID: httpSpan, Parent: jobSpan, Name: spanHTTP, Job: j.id, Tenant: j.tenant, Start: t.us(j.sent), End: t.us(j.done)})
		byTenant[j.tenant] = append(byTenant[j.tenant], i)
		if r, ok := replays[j.id]; ok {
			at := t.us(j.sent)
			child := func(id, parent, name string, d time.Duration) float64 {
				s := span{ID: id + ":" + j.id, Parent: parent, Name: name, Job: j.id, Tenant: j.tenant,
					Start: at, End: at + float64(d)/float64(time.Microsecond), Replayed: true}
				out = append(out, s)
				return s.End
			}
			at = child("decode", httpSpan, spanDecode, r.decode)
			at = child("compile", httpSpan, spanCompile, r.compile)
			child("embed", "run:"+j.id, spanEmbed, r.embed)
			at = child("run", httpSpan, spanRun, r.run)
			child("encode", httpSpan, spanEncode, r.encode)
		}
	}
	for _, idx := range byTenant {
		sort.Slice(idx, func(a, b int) bool { return t.jobs[idx[a]].sent.Before(t.jobs[idx[b]].sent) })
	}
	roots := make(map[string]bool)
	for n, u := range t.upstream {
		s := span{ID: fmt.Sprintf("up:%d", n), Name: spanUpstream, Tenant: u.tenant, Stage: u.stage,
			Start: t.us(u.start), End: t.us(u.end)}
		if !open {
			idx := byTenant[u.tenant]
			// First job sent after the call began, minus one: the job in flight.
			k := sort.Search(len(idx), func(k int) bool { return t.jobs[idx[k]].sent.After(u.start) }) - 1
			if k >= 0 && !u.start.After(t.jobs[idx[k]].done) {
				j := t.jobs[idx[k]]
				s.Parent, s.Job = "http:"+j.id, j.id
			}
		}
		if s.Parent == "" {
			// Open loop, or a call outside every traced job (warm-up tail).
			s.Parent = "tenant:" + u.tenant
			roots[u.tenant] = true
		}
		out = append(out, s)
	}
	for tenant := range roots {
		out = append(out, span{ID: "tenant:" + tenant, Name: spanTenant, Tenant: tenant, Start: 0, End: t.us(end)})
	}
	return out
}

// cover is the length of the union of the intervals, clipped to [lo, hi].
func cover(spans []span, lo, hi float64) float64 {
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	total, edge := 0.0, lo
	for _, s := range spans {
		from, to := max(s.Start, edge), min(s.End, hi)
		if to > from {
			total += to - from
			edge = to
		}
	}
	return total
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of it its children cover. Siblings of one name
// that overlap — the upstream calls a job keeps in flight at once — count
// the time any of them covers once, so a name's self time is comparable to
// wall clock.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[string][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[string]float64)
	for parent, kids := range children {
		groups := make(map[string][]span)
		for _, k := range kids {
			key := k.Name
			if parent == "" {
				key = k.ID // roots are separate requests, not siblings
			}
			groups[key] = append(groups[key], k)
		}
		for _, group := range groups {
			t := cover(group, math.Inf(-1), math.Inf(1))
			for _, k := range group {
				t -= cover(children[k.ID], k.Start, k.End)
			}
			self[group[0].Name] += max(t, 0)
		}
	}
	return self
}

func writeTrace(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
