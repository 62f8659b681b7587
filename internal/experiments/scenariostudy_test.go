package experiments

import (
	"strings"
	"testing"
)

// TestScenarioStudyPinned pins the study's deterministic counters on the
// stock sim engine: every pre-built scenario must pass all checkpoints
// at exactly these upstream calls, tokens, shared (cache + coalesced)
// hits, and final rows. A diff here means engine behaviour changed —
// rebase the numbers only with an explanation.
func TestScenarioStudyPinned(t *testing.T) {
	res, err := ScenarioStudy(ctx())
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllPassed {
		for _, r := range res.Rows {
			if !r.Passed {
				t.Errorf("scenario %s failed its checkpoints", r.ID)
			}
		}
		t.Fatal("scenario study: not every checkpoint passed")
	}
	want := []ScenarioStudyRow{
		{ID: "cold-start", Calls: 3, Tokens: 85, SharedHits: 9, Rows: 4},
		{ID: "warm-cache-replay", Calls: 3, Tokens: 85, SharedHits: 21, Rows: 4},
		{ID: "mid-run-ingestion", Calls: 3, Tokens: 85, SharedHits: 17, Rows: 7},
		{ID: "burst-load", Calls: 3, Tokens: 85, SharedHits: 45, Rows: 4},
		{ID: "overlap-ingestion", Calls: 12, Tokens: 578, SharedHits: 12, Rows: 3},
		{ID: "declserver-multi-tenant", Calls: 3, Tokens: 85, SharedHits: 93, Rows: 4},
		{ID: "fault-burst-recovery", Calls: 6, Tokens: 173, SharedHits: 49, Rows: 4},
		{ID: "breaker-open-recover", Calls: 4, Tokens: 114, SharedHits: 37, Rows: 4},
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("study ran %d scenarios, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		g := res.Rows[i]
		if g.ID != w.ID {
			t.Fatalf("row %d is %q, want %q", i, g.ID, w.ID)
		}
		if g.Calls != w.Calls || g.Tokens != w.Tokens || g.SharedHits != w.SharedHits || g.Rows != w.Rows {
			t.Errorf("%s: {calls %d, tokens %d, shared %d, rows %d} differs from pinned {%d, %d, %d, %d}",
				g.ID, g.Calls, g.Tokens, g.SharedHits, g.Rows,
				w.Calls, w.Tokens, w.SharedHits, w.Rows)
		}
	}
}

// TestScenarioStudyFormat smoke-tests the text rendering.
func TestScenarioStudyFormat(t *testing.T) {
	res, err := ScenarioStudy(ctx())
	if err != nil {
		t.Fatal(err)
	}
	out := FormatScenarioStudy(res)
	for _, frag := range []string{"cold-start", "breaker-open-recover", "all scenarios passed: true"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("formatted study lacks %q:\n%s", frag, out)
		}
	}
}
