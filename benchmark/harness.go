package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/pipeline"
	"repro/internal/resil"
	"repro/internal/server"
	"repro/internal/workflow"
)

const (
	modelName = "sim-gpt-3.5-turbo"
	// maxConns is the load generator's connection budget: nproc on the
	// two-core machine the baseline was taken on, and a constant so a
	// bigger machine measures the same traffic.
	maxConns    = 2
	pollPeriod  = 2 * time.Millisecond
	statsPeriod = 50 * time.Millisecond
	// restartJobs is how many already-answered jobs are replayed against
	// the restarted server.
	restartJobs  = 20
	jobRetention = 2 * time.Second
	drainTimeout = 30 * time.Second
	// jobTimeout bounds one HTTP exchange, and how long the open loop waits
	// for its last jobs: far beyond any latency a healthy run shows.
	jobTimeout = 30 * time.Second
)

// retryPolicy is cmd/declserver's default resilience policy but for one more
// attempt (4, not 3). At the 2 % fault rate of zipf-open a prompt fails three
// times in a row once in 125 000 prompts, which is a failed job in about one
// run in a hundred, and a benchmark run must not fail an operation; four in a
// row is fifty times rarer. Nothing else about a run changes.
var retryPolicy = resil.Policy{
	MaxAttempts:      4,
	BaseBackoff:      50 * time.Millisecond,
	BreakerThreshold: 5,
	BreakerCooldown:  10 * time.Second,
}

func tenantName(i int) string { return fmt.Sprintf("t%d", i) }

// stack is one running declserver: cmd/declserver's wiring with its
// default flags, built from server.Config because this benchmark may not
// add a flag or a file outside its own directory.
type stack struct {
	w   workload
	in  *inputs
	dir string

	up     *upstream
	model  llm.Model
	exec   *workflow.ExecLayer
	reg    *embed.Registry
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client

	// logReplay and newWarm time the last start: replaying the cache log,
	// and the whole construction of a warm server (replay included).
	logReplay, newWarm time.Duration
}

// start builds a server over dir and serves it on a loopback listener.
func (st *stack) start() error {
	st.exec, st.reg = workflow.NewExecLayer(), embed.NewRegistry()
	t0 := time.Now()
	if _, err := st.exec.OpenState(st.dir); err != nil {
		return fmt.Errorf("opening state in %s: %w", st.dir, err)
	}
	st.logReplay = time.Since(t0)
	st.srv = server.New(server.Config{
		Model:         st.model,
		StateDir:      st.dir,
		MaxConcurrent: 4,
		MaxQueue:      16,
		// declserver defaults to 100/s, burst 32; sizing showed that token
		// bucket refusing a single closed-loop client on 6 ms warm jobs, and
		// a benchmark run must not fail an operation.
		TenantRate:  1000,
		TenantBurst: 1000,
		// declserver keeps every finished job, result included, until told
		// otherwise; sizing showed warm-replay growing the heap by 60 MB/s
		// that way, so a window's latency depended on how long the process
		// had been up. Finished jobs are dropped after jobRetention instead.
		JobRetention: jobRetention,
		Resilience:   &retryPolicy,
		Exec:         st.exec,
		Registry:     st.reg,
	})
	st.newWarm = time.Since(t0)
	if err := st.srv.StateError(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.hs = &http.Server{Handler: st.srv.Handler()}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		st.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	st.url = "http://" + ln.Addr().String()
	st.client = &http.Client{Timeout: jobTimeout, Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
	return nil
}

// stop shuts the listener, drains the server (which flushes the cache log
// and tenant spend) and returns how long the drain took.
func (st *stack) stop() (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	<-st.served
	st.client.CloseIdleConnections()
	t0 := time.Now()
	if derr := st.srv.Drain(ctx); derr != nil && err == nil {
		err = derr
	}
	return time.Since(t0), err
}

// setUp is everything between process start and ready to measure: input
// generation, server construction, and the pre-warm that fills the
// response cache and builds and saves the indexes. Upstream latency is off
// while it runs and on when it returns.
func setUp(w workload, seed int64, sz sizes, dir string) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &stack{w: w, in: w.gen(seed, sz), dir: dir}
	st.up = newUpstream(sim.NewNamed(modelName), seed)
	st.model = st.up
	if w.faults > 0 {
		st.model = llm.WithFaults(st.up, llm.FaultPlan{Seed: seed, Transient: w.faults})
	}
	if err := st.start(); err != nil {
		return nil, err
	}
	// The pre-warm stands for an earlier life of the service: it runs the
	// jobs straight through the server's execution layer and registry, below
	// the fault injector, so set-up spends no time in retry back-off.
	for _, k := range st.in.prewarm {
		req, err := decodeSubmit(st.in.body(k, tenantName(k%w.clients)))
		if err != nil {
			return nil, err
		}
		p, err := pipeline.Compile(req.Spec)
		if err != nil {
			return nil, err
		}
		cfg := pipeline.ExecConfig{Model: st.up, Exec: st.exec, Registry: st.reg}
		if _, err := p.Run(context.Background(), cfg, req.Tables); err != nil {
			return nil, fmt.Errorf("pre-warm job %d: %w", k, err)
		}
	}
	st.up.latency.Store(true)
	return st, nil
}

func decodeSubmit(body []byte) (server.SubmitRequest, error) {
	var req server.SubmitRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// sample is one job as the load generator saw it.
type sample struct {
	index  int
	tenant string
	id     string
	// due is when the job was scheduled; on a closed loop that is when it
	// was sent.
	due, sent, done time.Time
	// ok means the job ended done; otherwise err says what the server
	// answered (a refusal carries its HTTP status).
	ok     bool
	err    string
	wallMS float64
	// digest hashes the result's tables and scalars as they came off the
	// wire, for the byte-identity check against the reference.
	digest [16]byte
}

func (s sample) latencyMS() float64 {
	return float64(s.done.Sub(s.due)) / float64(time.Millisecond)
}

// wireStatus reads a JobStatus without building its tables.
type wireStatus struct {
	ID     string          `json:"id"`
	State  server.JobState `json:"state"`
	Error  string          `json:"error"`
	WallMS float64         `json:"wall_ms"`
	Result *struct {
		Tables  json.RawMessage `json:"tables"`
		Scalars json.RawMessage `json:"scalars"`
	} `json:"result"`
}

func (ws *wireStatus) digest() (d [16]byte) {
	if ws.Result == nil {
		return d
	}
	h := fnv.New128a()
	h.Write(ws.Result.Tables)
	h.Write([]byte{0})
	h.Write(ws.Result.Scalars)
	h.Sum(d[:0])
	return d
}

// roundTrip sends one request and reads the whole reply.
func (st *stack) roundTrip(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, st.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// settle folds a reply into the sample; it reports whether the job has
// reached a terminal state.
func (s *sample) settle(code int, data []byte, err error) bool {
	s.done = time.Now()
	if err != nil {
		s.err = err.Error()
		return true
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		s.err = fmt.Sprintf("HTTP %d: %s", code, bytes.TrimSpace(data))
		return true
	}
	var ws wireStatus
	if err := json.Unmarshal(data, &ws); err != nil {
		s.err = "unreadable reply: " + err.Error()
		return true
	}
	s.id = ws.ID
	switch ws.State {
	case server.JobDone:
		s.ok, s.wallMS, s.digest = true, ws.WallMS, ws.digest()
		return true
	case server.JobFailed, server.JobCancelled:
		s.err = fmt.Sprintf("job %s: %s", ws.State, ws.Error)
		return true
	}
	return false
}

// submit posts job k. A sync job comes back terminal; an async one comes
// back queued or running and is finished by poll. The body is built by the
// caller so the open loop can have it ready before the job is due.
func (st *stack) submit(k int, tenant string, body []byte, due time.Time) (sample, bool) {
	s := sample{index: k, tenant: tenant, due: due, sent: time.Now()}
	if due.IsZero() {
		s.due = s.sent
	}
	code, data, err := st.roundTrip(http.MethodPost, "/v1/pipelines", body)
	return s, s.settle(code, data, err)
}

func (st *stack) poll(s *sample) bool {
	code, data, err := st.roundTrip(http.MethodGet, "/v1/jobs/"+s.id, nil)
	return s.settle(code, data, err)
}

// loadgen drives one stack from a single process: the closed loop's
// clients, or the open loop's scheduler and poller. Either way at most
// maxConns connections are open.
type loadgen struct {
	st *stack
	// first is the first job index to send: unique workloads start past
	// the jobs the pre-warm consumed.
	first int
	seed  int64

	trace atomic.Pointer[tracer]
	stop  chan struct{}
	wg    sync.WaitGroup

	mu        sync.Mutex
	samples   []sample
	lags      []float64 // open loop: send start minus due, ms
	backlog   int       // open loop: jobs submitted and not yet terminal
	exhausted bool      // a unique workload ran out of generated jobs
}

func newLoadgen(st *stack, seed int64) *loadgen {
	g := &loadgen{st: st, seed: seed, stop: make(chan struct{})}
	if st.in.unique {
		g.first = len(st.in.prewarm)
	}
	return g
}

func (g *loadgen) record(s sample) {
	g.mu.Lock()
	g.samples = append(g.samples, s)
	g.mu.Unlock()
	if tr := g.trace.Load(); tr != nil {
		tr.job(jobRecord{id: s.id, tenant: s.tenant, due: s.due, sent: s.sent, done: s.done})
	}
}

// has reports whether job k exists; running out is recorded, not fatal.
func (g *loadgen) has(k int) bool {
	if !g.st.in.unique || k < len(g.st.in.sources) {
		return true
	}
	g.mu.Lock()
	g.exhausted = true
	g.mu.Unlock()
	return false
}

func (g *loadgen) start() {
	if g.st.w.open {
		jobs := make(chan sample, 64) // submitted jobs on their way to the poller; never near full at the rates used
		g.wg.Add(2)
		go g.schedule(jobs)
		go g.pollAll(jobs)
		return
	}
	for c := 0; c < g.st.w.clients; c++ {
		g.wg.Add(1)
		go g.client(c)
	}
}

// finish stops sending, waits for what is in flight and returns the samples.
func (g *loadgen) finish() []sample {
	close(g.stop)
	g.wg.Wait()
	return g.samples
}

// client is one closed-loop caller: tenant c sends jobs first+c,
// first+c+clients, ... each after the previous reply.
func (g *loadgen) client(c int) {
	defer g.wg.Done()
	tenant := tenantName(c)
	for k := g.first + c; g.has(k); k += g.st.w.clients {
		select {
		case <-g.stop:
			return
		default:
		}
		s, _ := g.st.submit(k, tenant, g.st.in.body(k, tenant), time.Time{})
		g.record(s)
	}
}

// arrivals yields the open loop's due times: in every second, exactly rate
// arrivals placed uniformly at random, drawn from the seed. That is a
// Poisson process conditioned on its count, so bursts and gaps within a
// second are Poisson's while the offered load of a window is the same on
// every seed; an unconditioned process would put 1/sqrt(jobs) of noise
// into every throughput and queueing number.
func arrivals(seed int64, rate float64, start time.Time) func() time.Time {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var block []float64
	second := 0
	return func() time.Time {
		if len(block) == 0 {
			block = make([]float64, int(rate))
			for i := range block {
				block[i] = rng.Float64()
			}
			sort.Float64s(block)
			second++
		}
		at := start.Add(time.Duration((float64(second-1) + block[0]) * float64(time.Second)))
		block = block[1:]
		return at
	}
}

// spinBefore is how long before a due time the scheduler stops sleeping
// and spins: a timer on a mostly idle machine wakes up to a millisecond
// late, which would be charged to the job.
const spinBefore = 2 * time.Millisecond

// schedule is the open loop's arrival process: jobs are sent when due
// whether or not earlier ones have finished. A job's latency runs from its
// due time, so a stall here is charged to the jobs it delayed.
func (g *loadgen) schedule(jobs chan<- sample) {
	defer g.wg.Done()
	defer close(jobs)
	next := arrivals(g.seed, g.st.w.rate, time.Now())
	for k := g.first; g.has(k); k++ {
		due := next()
		tenant := tenantName(k % g.st.w.clients)
		body := g.st.in.body(k, tenant)
		timer := time.NewTimer(time.Until(due) - spinBefore)
		select {
		case <-g.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		for time.Now().Before(due) {
		}
		s, terminal := g.st.submit(k, tenant, body, due)
		g.mu.Lock()
		g.lags = append(g.lags, float64(s.sent.Sub(due))/float64(time.Millisecond))
		if !terminal {
			g.backlog++
		}
		g.mu.Unlock()
		if terminal {
			g.record(s) // refused or failed at the door
			continue
		}
		jobs <- s
	}
}

// pollAll asks after every outstanding job once per poll period, on the
// second connection, until the scheduler has stopped and all are terminal.
// A job still not terminal jobTimeout after the scheduler stopped is
// recorded as timed out.
func (g *loadgen) pollAll(jobs <-chan sample) {
	defer g.wg.Done()
	var outstanding []sample
	ticker := time.NewTicker(pollPeriod)
	defer ticker.Stop()
	var deadline time.Time
	for jobs != nil || len(outstanding) > 0 {
		select {
		case s, ok := <-jobs:
			if !ok {
				jobs, deadline = nil, time.Now().Add(jobTimeout)
				continue
			}
			outstanding = append(outstanding, s)
			continue
		case <-ticker.C:
		}
		if jobs == nil && time.Now().After(deadline) {
			for _, s := range outstanding {
				s.done, s.err = time.Now(), "timed out"
				g.record(s)
			}
			return
		}
		kept := outstanding[:0]
		for i := range outstanding {
			s := outstanding[i]
			if g.st.poll(&s) {
				g.mu.Lock()
				g.backlog--
				g.mu.Unlock()
				g.record(s)
			} else {
				kept = append(kept, s)
			}
		}
		outstanding = kept
	}
}

// snapshot is every counter the metrics are deltas of, read at one instant.
type snapshot struct {
	at      time.Time
	srv     *server.Stats
	exec    workflow.ExecStats
	builds  int
	hits    int
	up      upstreamTotals
	mem     runtime.MemStats
	cpu     time.Duration
	backlog int
	reports []*server.TenantReport
}

func (g *loadgen) snapshot() snapshot {
	st := g.st
	s := snapshot{at: time.Now(), srv: st.srv.Stats(), exec: st.exec.Stats(), up: st.up.totals(), cpu: cpuTime()}
	s.builds, s.hits = st.reg.Stats()
	runtime.ReadMemStats(&s.mem)
	g.mu.Lock()
	s.backlog = g.backlog
	g.mu.Unlock()
	for c := 0; c < st.w.clients; c++ {
		if r, err := st.srv.Report(tenantName(c)); err == nil {
			s.reports = append(s.reports, r)
		}
	}
	return s
}

// gateLoad is the server's admission gate sampled every statsPeriod.
type gateLoad struct {
	n                int
	running, waiting int
}

// sampleGate polls srv.Stats until stop closes.
func (st *stack) sampleGate(stop <-chan struct{}, out *gateLoad) {
	ticker := time.NewTicker(statsPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			s := st.srv.Stats()
			out.n++
			out.running += s.Running
			out.waiting += s.Waiting
		}
	}
}

// window is one measured interval: the samples that fall in it and the
// counter snapshots at its edges.
type window struct {
	from, to snapshot
	samples  []sample
}

func (w window) seconds() float64 { return w.to.at.Sub(w.from.at).Seconds() }

// cut selects the samples of [from, to): by completion on a closed loop,
// by due time on the open loop, where a job that is late still belongs to
// the interval it was due in.
func cut(all []sample, open bool, from, to snapshot) window {
	w := window{from: from, to: to}
	for _, s := range all {
		at := s.done
		if open {
			at = s.due
		}
		if !at.Before(from.at) && at.Before(to.at) {
			w.samples = append(w.samples, s)
		}
	}
	return w
}

// run is one measurement of a stack: warm-up, then the window. In the
// per-layer pass tracing is switched on and off in alternate slices of the
// window, and the difference in latency between the two kinds of slice is the
// tracing overhead; a trend across the window — the cache still filling on
// zipf-open, the machine drifting — falls on both kinds alike.
type run struct {
	window window
	// tracer is nil unless the pass is traced; slice is then the length of
	// one slice.
	tracer *tracer
	slice  time.Duration
	gate   gateLoad
	all    []sample
	lags   []float64
	// exhausted is set when a unique workload ran out of generated jobs.
	exhausted bool
	// balanced is srv.Stats().Balanced once every job had finished.
	balanced bool
}

// tracedSlice reports whether at falls in a slice of the window that had
// tracing on.
func (r *run) tracedSlice(at time.Time) bool { return r.sliceOf(at)%2 == 1 }

func (r *run) sliceOf(at time.Time) int { return int(at.Sub(r.window.from.at) / r.slice) }

func measure(st *stack, seed int64, sz sizes, seconds float64, traced bool) run {
	g := newLoadgen(st, seed)
	g.start()
	time.Sleep(sz.warmup)
	span := time.Duration(seconds * float64(time.Second))
	var r run
	a := g.snapshot()
	if !traced {
		time.Sleep(span)
	} else {
		r.tracer, r.slice = newTracer(), span/time.Duration(sz.traceSlices)
		stop, sampled := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(sampled)
			st.sampleGate(stop, &r.gate)
		}()
		for i := 0; i < sz.traceSlices; i++ {
			var tr *tracer
			if i%2 == 1 {
				tr = r.tracer
			}
			st.up.trace.Store(tr)
			g.trace.Store(tr)
			time.Sleep(time.Until(a.at.Add(time.Duration(i+1) * r.slice)))
		}
		st.up.trace.Store(nil)
		g.trace.Store(nil)
		close(stop)
		<-sampled
	}
	b := g.snapshot()
	r.all = g.finish()
	r.window = cut(r.all, st.w.open, a, b)
	r.lags, r.exhausted, r.balanced = g.lags, g.exhausted, st.srv.Stats().Balanced
	return r
}

// restart is the crash-free restart check: flush, drain, build a new
// server on the same state directory, and replay jobs the old one already
// answered. Nothing the old server learned may be paid for again.
type restart struct {
	flush        time.Duration
	flushRecords int
	logBytes     int64
	logRecords   int
	drain        time.Duration
	ready        time.Duration // drain start to the first replayed result
	asks, calls  int           // unit asks and upstream calls in the replay
	samples      []sample
}

func (st *stack) restart(jobs []sample) (restart, error) {
	var r restart
	t0 := time.Now()
	n, err := st.exec.FlushState()
	if err != nil {
		return r, fmt.Errorf("flushing the cache log: %w", err)
	}
	r.flush, r.flushRecords = time.Since(t0), n
	if ls, ok := st.exec.StateStats(); ok {
		r.logBytes, r.logRecords = ls.Bytes, ls.Records
	}
	begun := time.Now()
	if r.drain, err = st.stop(); err != nil {
		return r, fmt.Errorf("draining: %w", err)
	}
	if err := st.start(); err != nil {
		return r, fmt.Errorf("restarting: %w", err)
	}
	before := st.srv.Stats()
	for i, old := range jobs {
		s, terminal := st.submit(old.index, old.tenant, st.in.body(old.index, old.tenant), time.Time{})
		for !terminal {
			time.Sleep(pollPeriod)
			terminal = st.poll(&s)
		}
		if i == 0 {
			r.ready = s.done.Sub(begun)
		}
		r.samples = append(r.samples, s)
	}
	after := st.srv.Stats()
	r.calls = after.UpstreamCalls - before.UpstreamCalls
	r.asks = r.calls + after.CacheHits - before.CacheHits + after.Coalesced - before.Coalesced
	return r, nil
}
