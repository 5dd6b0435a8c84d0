package scenario

import (
	"context"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestBuiltinsRegistered(t *testing.T) {
	// The minimum catalogue the subsystem promises.
	for _, name := range []string{
		"paper-fig5", "double-failure", "flap-storm",
		"backup-then-primary", "partial-withdraw",
		"rule-loss", "controller-restart", "holdtimer-failover",
		// Second generation: fabrics, correlated failures, resets, noise.
		"route-server-fabric", "srlg-dual-failure", "maintenance-rolling",
		"session-reset-hard", "session-reset-graceful", "noisy-failover",
	} {
		s, ok := Lookup(name)
		if !ok {
			t.Errorf("builtin %q not registered", name)
			continue
		}
		// docs/scenarios.md is generated from these fields; a builtin
		// without them would render an empty catalogue entry.
		if s.Paper == "" {
			t.Errorf("builtin %q has no paper mapping", name)
		}
		if s.Expect == "" {
			t.Errorf("builtin %q has no expected outcome", name)
		}
	}
}

func TestBuiltinsAreValid(t *testing.T) {
	for _, s := range List() {
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", s.Name, err)
		}
		if s.Description == "" {
			t.Errorf("builtin %q has no description", s.Name)
		}
	}
}

func TestRegisterRejectsDuplicateName(t *testing.T) {
	s := validSpec()
	s.Name = "test-dup"
	if err := Register(s); err != nil {
		t.Fatalf("first registration: %v", err)
	}
	// Leave the registry as the builtins made it, so a repeated run
	// (-count=N) registers afresh and TestBuiltinsAreValid sees no stub.
	t.Cleanup(func() {
		regMu.Lock()
		delete(registry, s.Name)
		regMu.Unlock()
	})
	err := Register(s)
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate registration error = %v", err)
	}
}

func TestRegisterRejectsInvalidSpec(t *testing.T) {
	s := validSpec()
	s.Name = "test-invalid-reg"
	s.Events = []Event{{At: time.Second, Kind: "no-such-kind"}}
	if err := Register(s); err == nil {
		t.Fatal("invalid spec registered without error")
	}
	if _, ok := Lookup(s.Name); ok {
		t.Fatal("invalid spec landed in the registry")
	}
}

func TestListSortedAndNamesMatch(t *testing.T) {
	specs := List()
	if !sort.SliceIsSorted(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name }) {
		t.Fatal("List() not sorted by name")
	}
	names := Names()
	if len(names) != len(specs) {
		t.Fatalf("Names() len %d != List() len %d", len(names), len(specs))
	}
	for i := range names {
		if names[i] != specs[i].Name {
			t.Fatalf("Names()[%d] = %q, List()[%d].Name = %q", i, names[i], i, specs[i].Name)
		}
	}
}

func TestRunNamedUnknownScenario(t *testing.T) {
	if _, err := (Runner{}).RunNamed(context.Background(), "no-such-scenario"); err == nil {
		t.Fatal("RunNamed of unknown scenario succeeded")
	}
}
