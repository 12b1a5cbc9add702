package probe_test

import (
	"testing"
	"time"

	"sdntamper/internal/core"
	"sdntamper/internal/probe"
	"sdntamper/internal/topoguard"
)

// TestIdleScanSpoofingTripsHostTracking documents an SDN-specific caveat
// of the idle scan that Table I (scoped to IDS stealth) does not cover:
// spoofing the zombie's MAC from the attacker's port looks to the Host
// Tracking Service like the zombie migrating, so TopoGuard's migration
// pre-condition fires. The scan is "Very High" stealth against a
// dataplane IDS, yet noisy against controller-side defenses.
func TestIdleScanSpoofingTripsHostTracking(t *testing.T) {
	s, attacker, victim, zombie := rig(t, 71)
	before := len(s.Controller().AlertsByReason(topoguard.ReasonMigrationPre))
	p := probe.New(s.Net.ControlKernel(), attacker, probe.TCPIdleScan,
		probe.WithZombie(probe.Zombie{MAC: zombie.MAC(), IP: zombie.IP(), Port: 9999}))
	done := false
	if err := p.Probe(target(victim, 80), 300*time.Millisecond, func(probe.Result) { done = true }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("scan did not resolve")
	}
	after := len(s.Controller().AlertsByReason(topoguard.ReasonMigrationPre))
	if after <= before {
		t.Fatal("zombie-MAC spoofing did not trip the migration pre-condition")
	}
	// TopoGuard's block is also what keeps the zombie's binding intact,
	// so the side channel keeps working under TopoGuard.
	entry, ok := s.Controller().HostByMAC(zombie.MAC())
	if !ok || entry.Loc != s.Net.HostLocation(core.HostClient) {
		t.Fatalf("zombie binding corrupted: %+v", entry)
	}
}
