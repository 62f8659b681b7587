package experiments

import (
	"strings"
	"testing"
)

// TestResilienceBenchPinned pins the chaos ladder's deterministic
// counters: the flicker burst must heal every fault by retry (full
// availability at zero quarantine), the sticky poison must quarantine
// exactly its afflicted prompts without wasting retries, and the total
// outage must quarantine everything while the run still completes. A
// diff here means retry, fault-injection, or quarantine accounting
// changed — rebase only with an explanation.
func TestResilienceBenchPinned(t *testing.T) {
	rows, err := ResilienceBench(ctx())
	if err != nil {
		t.Fatal(err)
	}
	// Every record's ask is issued exactly once, so the arithmetic is per
	// record: poison = 6 healthy attempts + 2 permanent faults (never
	// retried); outage = 8 records x MaxAttempts 2, each attempt a fault.
	want := []ResilienceBenchRow{
		{Name: "faultless", InjectedFaults: 0, Attempts: 8, Retries: 0,
			Quarantined: 0, Availability: 1, UpstreamCalls: 8, UpstreamTokens: 232},
		{Name: "flicker-heal", InjectedFaults: 8, Attempts: 16, Retries: 8,
			Quarantined: 0, Availability: 1, UpstreamCalls: 8, UpstreamTokens: 232},
		{Name: "poison-quarantine", InjectedFaults: 2, Attempts: 8, Retries: 0,
			Quarantined: 2, Availability: 0.75, UpstreamCalls: 6, UpstreamTokens: 175},
		{Name: "outage-degrade", InjectedFaults: 16, Attempts: 16, Retries: 8,
			Quarantined: 8, Availability: 0, UpstreamCalls: 0, UpstreamTokens: 0},
	}
	if len(rows) != len(want) {
		t.Fatalf("bench ran %d configs, want %d", len(rows), len(want))
	}
	for i, w := range want {
		g := rows[i]
		if g.Name != w.Name {
			t.Fatalf("row %d is %q, want %q", i, g.Name, w.Name)
		}
		if g.RecordsIn != 8 || g.Skipped != 0 {
			t.Errorf("%s: records_in %d skipped %d, want 8 and 0", g.Name, g.RecordsIn, g.Skipped)
		}
		if g.InjectedFaults != w.InjectedFaults || g.Attempts != w.Attempts ||
			g.Retries != w.Retries || g.Quarantined != w.Quarantined ||
			g.Availability != w.Availability ||
			g.UpstreamCalls != w.UpstreamCalls || g.UpstreamTokens != w.UpstreamTokens {
			t.Errorf("%s: %+v differs from pinned %+v", g.Name, g, w)
		}
	}
}

// TestResilienceBenchFormat smoke-tests the text rendering.
func TestResilienceBenchFormat(t *testing.T) {
	rows, err := ResilienceBench(ctx())
	if err != nil {
		t.Fatal(err)
	}
	out := FormatResilienceBench(rows)
	for _, frag := range []string{"flicker-heal", "outage-degrade", "burst-every=2"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("formatted bench lacks %q:\n%s", frag, out)
		}
	}
}
