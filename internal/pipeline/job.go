package pipeline

import (
	"context"

	"repro/internal/dataset"
)

// Job is a cancellable, awaitable handle on one asynchronous pipeline run.
// Start launches Run in its own goroutine; the handle then supports three
// interactions: Cancel aborts the run (the executor unwinds every stage
// goroutine and Run returns a context error), Done exposes completion as a
// channel for select loops, and Wait blocks for the outcome. A long-running
// service holds one Job per submitted pipeline so user-facing cancellation
// maps onto executor cancellation without the service owning any goroutine
// plumbing of its own.
type Job struct {
	cancel context.CancelFunc
	done   chan struct{}
	res    *Result
	err    error
}

// Start launches p.Run(ctx, cfg, tables) in a new goroutine and returns its
// handle. The run's context is derived from ctx, so cancelling ctx cancels
// the job just as Job.Cancel does.
func (p *Pipeline) Start(ctx context.Context, cfg ExecConfig, tables map[string][]dataset.Record) *Job {
	ctx, cancel := context.WithCancel(ctx)
	j := &Job{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer cancel()
		j.res, j.err = p.Run(ctx, cfg, tables)
		close(j.done)
	}()
	return j
}

// Cancel aborts the run. The executor's streaming stages observe the
// cancellation at once, wait out the records in flight and unwind; Wait then returns
// the run's context error. Cancelling a finished job is a no-op.
func (j *Job) Cancel() { j.cancel() }

// Done returns a channel closed when the run has fully completed — every
// stage goroutine exited and the result (or error) recorded.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the run completes or ctx is cancelled. A ctx
// cancellation abandons only the wait, not the run: the job keeps
// executing and can be awaited again.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
		return j.res, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result returns the outcome without blocking; ok is false while the run
// is still executing.
func (j *Job) Result() (res *Result, err error, ok bool) {
	select {
	case <-j.done:
		return j.res, j.err, true
	default:
		return nil, nil, false
	}
}
