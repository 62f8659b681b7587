package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/token"
	"repro/internal/workflow"
)

// TenantsFileName is the per-tenant spend ledger persisted under
// Config.StateDir: Drain writes it, New replays it, so a tenant's budget
// caps apply to its lifetime spend rather than resetting on every
// restart. It rides next to the cache log — the two together are what
// make a drain→restart cycle accounting-transparent.
const TenantsFileName = "tenants.json"

// persistedTenants is the file's schema.
type persistedTenants struct {
	Tenants map[string]persistedSpend `json:"tenants"`
}

// persistedSpend is one tenant's lifetime upstream spend.
type persistedSpend struct {
	PromptTokens     int     `json:"prompt_tokens"`
	CompletionTokens int     `json:"completion_tokens"`
	Calls            int     `json:"calls"`
	Dollars          float64 `json:"dollars"`
}

// saveTenants writes every known tenant's lifetime spend — the restored
// baseline plus this process's ledger — to StateDir/tenants.json through
// workflow.ReplaceFile, so a crash mid-write never leaves a torn file.
func (s *Server) saveTenants() error {
	s.mu.RLock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	out := persistedTenants{Tenants: make(map[string]persistedSpend, len(tenants))}
	for _, t := range tenants {
		u := s.ledger.Usage(t.id).Add(t.restored)
		out.Tenants[t.id] = persistedSpend{
			PromptTokens:     u.PromptTokens,
			CompletionTokens: u.CompletionTokens,
			Calls:            u.Calls,
			Dollars:          s.ledger.Cost(t.id) + t.restoredCost,
		}
	}
	return workflow.ReplaceFile(filepath.Join(s.cfg.StateDir, TenantsFileName), func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	})
}

// loadTenants restores tenant spend from StateDir/tenants.json: each
// entry gets its tenant record created up front (with its configured
// limits) and its budget seeded with the persisted spend, so caps bind
// across restarts. A missing file is a fresh deployment, not an error.
func (s *Server) loadTenants() error {
	data, err := os.ReadFile(filepath.Join(s.cfg.StateDir, TenantsFileName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var in persistedTenants
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("parsing %s: %w", TenantsFileName, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, sp := range in.Tenants {
		if !tenantIDPattern.MatchString(id) {
			return fmt.Errorf("%s names invalid tenant %q", TenantsFileName, id)
		}
		u := token.Usage{
			PromptTokens:     sp.PromptTokens,
			CompletionTokens: sp.CompletionTokens,
			Calls:            sp.Calls,
		}
		t := s.tenantFor(id)
		t.restored, t.restoredCost = u, sp.Dollars
		t.budget.Restore(u, sp.Dollars)
	}
	return nil
}
