package attack_test

import (
	"testing"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/core"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/packet"
	"sdntamper/internal/topoguard"
)

// TestLegitimateMigrationRaisesNoAlerts is the benign twin of the hijack:
// the victim leaves properly (Port-Down), stays gone, and rejoins at a
// new port. TopoGuard's pre-condition is satisfied, the post-condition
// probe finds the old port silent, SPHINX sees the old binding aged out —
// nothing alerts.
func TestLegitimateMigrationRaisesNoAlerts(t *testing.T) {
	s := core.NewFig2Scenario(61, core.BothBaselines())
	defer s.Close()
	runFig2Baseline(t, s)
	victim := s.Net.Host(core.HostVictim)
	victimMAC, victimIP := victim.MAC(), victim.IP()

	victim.InterfaceDown()
	// Migration downtime on the order of seconds (Xen/VMware live
	// migration, §IV-B2).
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	reborn := s.Net.AddHost("victim-new", victimMAC.String(), victimIP.String(), 0x2, 4, nil)
	reborn.Send(packet.NewARPRequest(victimMAC, victimIP, victimIP))
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}

	entry, ok := s.Controller().HostByMAC(victimMAC)
	if !ok || entry.Loc != core.VictimNewLocFig2() {
		t.Fatalf("migration not committed: %+v", entry)
	}
	if got := s.Controller().Alerts(); len(got) != 0 {
		t.Fatalf("legitimate migration alerted: %v", got)
	}

	// And it still talks: the client can reach the migrated victim.
	var alive bool
	s.Net.Host(core.HostClient).ARPPing(victimIP, time.Second, func(r dataplane.ProbeResult) { alive = r.Alive })
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !alive {
		t.Fatal("migrated victim unreachable")
	}
}

// TestFabricatedLinkDiesWhenRelayingStops: the fabricated link is only as
// alive as the relay; once the attackers stand down, the Floodlight link
// timeout (35s) evicts it.
func TestFabricatedLinkDiesWhenRelayingStops(t *testing.T) {
	s := core.NewFig9Testbed(62, core.BothBaselines())
	defer s.Close()
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	a := s.Net.Host(core.HostAttackerA)
	b := s.Net.Host(core.HostAttackerB)
	fab := attack.NewOOBFabrication(s.Net.ControlKernel(), a, b, s.OOB,
		attack.FabricationConfig{UseAmnesia: true})
	fab.Start()
	if err := s.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !s.Controller().HasLink(core.FabricatedLinkFig9()) {
		t.Fatal("precondition: link fabricated")
	}

	// Stand down: stop bridging (clear the capture hooks).
	a.OnFrame = nil
	b.OnFrame = nil
	if err := s.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	if s.Controller().HasLink(core.FabricatedLinkFig9()) ||
		s.Controller().HasLink(core.FabricatedLinkFig9().Reverse()) {
		t.Fatal("fabricated link survived after the relay stopped")
	}
	// Real trunks are unaffected.
	if len(s.Controller().Links()) != 6 {
		t.Fatalf("links = %v, want the 6 real trunk directions", s.Controller().Links())
	}
}

// TestAmnesiaTooShortFailsAgainstTopoGuard: holding the interface down
// for less than the 802.3 link-pulse interval produces no Port-Down, so
// the profile is never reset and TopoGuard catches the relay.
func TestAmnesiaTooShortFailsAgainstTopoGuard(t *testing.T) {
	s := core.NewFig1Scenario(63, core.TopoGuardOnly())
	defer s.Close()
	warmFig1(t, s)
	fab := attack.NewOOBFabrication(s.Net.ControlKernel(),
		s.Net.Host(core.HostAttackerA), s.Net.Host(core.HostAttackerB), s.OOB,
		attack.FabricationConfig{
			UseAmnesia: true,
			HoldDown:   8 * time.Millisecond, // under the 16ms pulse interval
		})
	fab.Start()
	if err := s.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	if s.Controller().HasLink(core.FabricatedLinkAB()) {
		t.Fatal("link fabricated despite failed amnesia")
	}
	if len(s.Controller().AlertsByReason(topoguard.ReasonLLDPFromHost)) == 0 {
		t.Fatal("TopoGuard should have caught the relay from a still-HOST port")
	}
}

// TestHijackAgainstUndefendedController sanity-checks the attack itself:
// with no defenses at all the hijack also lands (the defenses are what
// the paper bypasses, not what enables the attack).
func TestHijackAgainstUndefendedController(t *testing.T) {
	s := core.NewFig2Scenario(64, core.NoDefenses())
	defer s.Close()
	runFig2Baseline(t, s)
	victim := s.Net.Host(core.HostVictim)
	attacker := s.Net.Host(core.HostAttackerA)
	cfg := attack.DefaultHijackConfig(core.AttackerLocFig2())
	cfg.ToolOverhead = nil
	hj := attack.NewHijack(s.Net.ControlKernel(), attacker, victim.IP(), cfg)
	s.Controller().Register(hj)
	completed := false
	hj.Start(func(attack.Timeline) { completed = true })
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim.InterfaceDown()
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatal("hijack failed without any defense deployed")
	}
}
