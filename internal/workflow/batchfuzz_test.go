package workflow

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/prompt"
)

// FuzzFaultyBatchReplies throws arbitrary envelope completions at a
// group's envelope — truncated mid-answer, renumbered or duplicated
// section headers, NUL-ridden garbage, empty strings — and asserts the
// degradation contract: no panic, no wedged group, and every unit task
// gets either its parsed section or a solo-retry answer computed from its
// original prompt. The group's keys ride the envelope in request order,
// so the expected split is exactly ParseTaskBatch on the fuzzed reply.
// This is the parse-and-retry path a llm.FaultPlan's
// malformed/wrong-section faults exercise, fuzzed directly at the reply
// boundary.
func FuzzFaultyBatchReplies(f *testing.F) {
	f.Add("### Task 1\nYes\n### Task 2\nNo\n### Task 3\nYes\n### Task 4\nNo\n")
	f.Add("### Task 1\nYes\n### Task 2\nNo, defi\x00<<truncated>>")
	f.Add("### Task 9001\nYes\n### Task 9002\nNo\n### Task 9003\nYes\n### Task 9004\nNo\n")
	f.Add("### Task 1\nfirst\n### Task 1\ndup\n### Task oops\norphan\n")
	f.Add("")
	f.Add("no sections at all, just prose")
	f.Add("### Task 2\nonly the middle\n")
	f.Add("### Task 1\n\n### Task 2\n\n### Task 3\n\n### Task 4\n\n")
	f.Fuzz(func(t *testing.T, reply string) {
		const n = 4
		inner := llm.Func{ModelName: "fuzz-upstream", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			if strings.HasPrefix(req.Prompt, "Below are ") {
				return llm.Response{Text: reply, Model: "fuzz-upstream"}, nil
			}
			return llm.Response{Text: "solo:" + req.Prompt, Model: "fuzz-upstream"}, nil
		}}
		reqs := make([]llm.Request, n)
		for i := range reqs {
			reqs[i].Prompt = fmt.Sprintf("classify fuzz probe record %d\n", i)
		}
		var (
			resps []llm.Response
			errs  []error
		)
		done := make(chan struct{})
		go func() {
			defer close(done)
			resps, errs = CompleteGroup(context.Background(), NewExecLayer().Wrap(inner), reqs)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("group wedged: still blocked after 30s")
		}

		answers, _ := prompt.ParseTaskBatch(reply, n)
		for i := range reqs {
			if errs[i] != nil {
				t.Fatalf("task %d failed: %v (a garbled reply must degrade to a solo retry, not an error)", i, errs[i])
			}
			want, ok := answers[i]
			if !ok {
				want = "solo:" + reqs[i].Prompt
			}
			if resps[i].Text != want {
				t.Fatalf("task %d answer = %q, want %q (reply %q)", i, resps[i].Text, want, reply)
			}
		}
	})
}
