package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/workflow"
)

// verifier computes reference results: pipeline.Compile(spec).Run on an
// engine that shares nothing with the server under test — its own
// execution layer and index registry — over the same simulator with no
// latency and no faults. At temperature 0 the server must return the same
// bytes.
type verifier struct {
	in    *inputs
	model llm.Model
	exec  *workflow.ExecLayer
	reg   *embed.Registry

	mu   sync.Mutex
	refs map[int][16]byte
}

func newVerifier(in *inputs, model llm.Model) *verifier {
	return &verifier{in: in, model: model, exec: workflow.NewExecLayer(), reg: embed.NewRegistry(),
		refs: make(map[int][16]byte)}
}

// reference runs job k and digests its result the way a reply is digested:
// rendered through the server's own wire view and encoder settings.
func (v *verifier) reference(k int) ([16]byte, error) {
	var zero [16]byte
	req, err := decodeSubmit(v.in.body(k, "ref"))
	if err != nil {
		return zero, err
	}
	p, err := pipeline.Compile(req.Spec)
	if err != nil {
		return zero, err
	}
	res, err := p.Run(context.Background(), pipeline.ExecConfig{Model: v.model, Exec: v.exec, Registry: v.reg}, req.Tables)
	if err != nil {
		return zero, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(server.JobStatus{State: server.JobDone, Result: server.JobResultOf(res)}); err != nil {
		return zero, err
	}
	var ws wireStatus
	if err := json.Unmarshal(buf.Bytes(), &ws); err != nil {
		return zero, err
	}
	return ws.digest(), nil
}

// mismatches counts the done jobs among samples whose result differs from
// the reference. Each distinct job is computed once, GOMAXPROCS at a time.
func (v *verifier) mismatches(samples []sample) (int, error) {
	var todo []int
	for _, s := range samples {
		k := s.index % len(v.in.sources)
		if _, seen := v.refs[k]; s.ok && !seen {
			v.refs[k] = [16]byte{}
			todo = append(todo, k)
		}
	}
	var (
		wg    sync.WaitGroup
		first error
		next  = make(chan int)
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				d, err := v.reference(k)
				v.mu.Lock()
				v.refs[k] = d
				if err != nil && first == nil {
					first = fmt.Errorf("reference for job %d: %w", k, err)
				}
				v.mu.Unlock()
			}
		}()
	}
	for _, k := range todo {
		next <- k
	}
	close(next)
	wg.Wait()
	if first != nil {
		return 0, first
	}
	bad := 0
	for _, s := range samples {
		if s.ok && s.digest != v.refs[s.index%len(v.in.sources)] {
			bad++
		}
	}
	return bad, nil
}
