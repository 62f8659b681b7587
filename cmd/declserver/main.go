// Command declserver runs the multi-tenant pipeline service: a long-running
// HTTP server that accepts declarative pipeline Specs from many tenants and
// executes them concurrently on one shared execution substrate — one
// response cache, one coalescer, one embedding-index registry, one optional
// persistent state directory — so every tenant benefits from every other
// tenant's warm state while budgets and rate limits stay strictly per
// tenant.
//
// Usage:
//
//	declserver [-addr :8080] [-model sim-gpt-3.5-turbo] [-state-dir DIR]
//	           [-max-concurrent 4] [-max-queue 16]
//	           [-tenant-rate 100] [-tenant-burst 32]
//	           [-batch 0] [-parallelism 0]
//	           [-drain-timeout 30s]
//	           [-retries 3] [-breaker-threshold 5] [-breaker-cooldown 10s]
//	           [-tenant-retry-budget 0] [-on-record-error quarantine]
//	           [-job-retention 1h] [-max-jobs 4096]
//	           [-faults transient=0.05,burst-every=100,burst-len=5]
//	           [-pprof]
//
// The resilience flags wrap the upstream model in a retry/backoff policy
// with a circuit breaker (resil.Policy): while the breaker is open,
// submissions are refused with 503 and a Retry-After header. -faults
// injects deterministic upstream faults below the policy — the chaos
// configuration the CI smoke test drives. -job-retention/-max-jobs bound
// how long finished jobs stay pollable. See docs/RESILIENCE.md.
//
// Endpoints: POST /v1/pipelines, GET|DELETE /v1/jobs/{id},
// GET /v1/tenants/{id}/report, GET /v1/stats, GET /healthz, and with
// -pprof the Go runtime profiles under /debug/pprof/. Submit jobs
// from the command line with declctl submit/status/report. On SIGINT or
// SIGTERM the server stops accepting work, waits (bounded by
// -drain-timeout) for running jobs, and flushes the cache log and index
// state before exiting. See docs/SERVER.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/resil"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	model := flag.String("model", "sim-gpt-3.5-turbo", "model name answering unit tasks (simulated)")
	stateDir := flag.String("state-dir", "", "persistent-state directory: cache log + index files (empty = in-memory only)")
	maxConcurrent := flag.Int("max-concurrent", 4, "jobs running at once")
	maxQueue := flag.Int("max-queue", 16, "jobs waiting for a slot before 503 (negative = no queue)")
	tenantRate := flag.Float64("tenant-rate", 100, "default per-tenant submissions/second")
	tenantBurst := flag.Int("tenant-burst", 32, "default per-tenant submission burst")
	batch := flag.Int("batch", 0, "unit tasks per envelope, cut by sequence block (0 = no batching)")
	parallelism := flag.Int("parallelism", 0, "per-job operator parallelism and in-flight window width of each streaming stage; a stage with a backlog also runs on the width idle downstream stages leave (0 = default)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on shutdown")
	faults := flag.String("faults", "",
		"inject deterministic upstream faults: key=val,... over seed, transient, timeout, ratelimit, permanent, malformed, wrong-section, burst-every, burst-len (empty = none)")
	retries := flag.Int("retries", 3, "max attempts per upstream call (1 = no retries)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive upstream failures before the circuit opens (0 = no breaker)")
	breakerCooldown := flag.Duration("breaker-cooldown", 10*time.Second, "how long an open breaker refuses work before probing")
	retryBudget := flag.Int("tenant-retry-budget", 0, "default per-tenant retry budget (0 = unlimited, negative = none)")
	onRecordError := flag.String("on-record-error", "", "degraded-mode record policy: fail (default), skip, or quarantine")
	jobRetention := flag.Duration("job-retention", 0, "how long finished jobs stay pollable (0 = keep forever unless -max-jobs is set)")
	maxJobs := flag.Int("max-jobs", 0, "finished jobs retained before the oldest are dropped (0 = uncapped unless -job-retention is set)")
	pprofOn := flag.Bool("pprof", false, "serve the Go runtime profiles (net/http/pprof) under /debug/pprof/")
	flag.Parse()

	var policy *resil.Policy
	if *retries > 1 || *breakerThreshold > 0 || *faults != "" {
		policy = &resil.Policy{
			MaxAttempts:      *retries,
			BaseBackoff:      50 * time.Millisecond,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
		}
	}
	base := llm.Model(sim.NewNamed(*model))
	if *faults != "" {
		plan, err := llm.ParseFaultPlan(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "declserver: %v\n", err)
			os.Exit(2)
		}
		base = llm.WithFaults(base, plan)
	}

	srv := server.New(server.Config{
		Model:             base,
		StateDir:          *stateDir,
		Batch:             *batch,
		Parallelism:       *parallelism,
		MaxConcurrent:     *maxConcurrent,
		MaxQueue:          *maxQueue,
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
		TenantRetryBudget: *retryBudget,
		Resilience:        policy,
		OnRecordError:     *onRecordError,
		JobRetention:      *jobRetention,
		MaxJobs:           *maxJobs,
	})
	if err := srv.StateError(); err != nil {
		fmt.Fprintf(os.Stderr, "declserver: %v (continuing stateless)\n", err)
	}

	hs := &http.Server{Addr: *addr, Handler: handler(srv.Handler(), *pprofOn)}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("declserver: listening on %s (model %s", *addr, *model)
		if *stateDir != "" {
			fmt.Printf(", state %s", *stateDir)
		}
		fmt.Println(")")
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("declserver: %v, draining (up to %s)\n", sig, *drainTimeout)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "declserver: serve: %v\n", err)
		os.Exit(1)
	}

	// Stop the listener first so no submission lands after the drain
	// decision, then drain the job population and flush state.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "declserver: shutdown: %v\n", err)
	}
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "declserver: drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("declserver: drained, state flushed")
}

// handler is the service's HTTP surface: api alone, or with withPprof the
// runtime profiles mounted under /debug/pprof/ in front of it.
func handler(api http.Handler, withPprof bool) http.Handler {
	if !withPprof {
		return api
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", api)
	return mux
}
