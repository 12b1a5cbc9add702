package attack_test

import (
	"testing"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/controller"
	"sdntamper/internal/core"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/packet"
	"sdntamper/internal/sphinx"
	"sdntamper/internal/tgplus"
	"sdntamper/internal/topoguard"
)

// warmFig1 lets the network boot and gives the attacker ports HOST
// profiles (the Figure 1 starting state) by having the attackers emit
// ordinary traffic.
func warmFig1(t *testing.T, s *core.Scenario) {
	t.Helper()
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	a := s.Net.Host(core.HostAttackerA)
	b := s.Net.Host(core.HostAttackerB)
	a.ARPPing(s.Net.Host(core.HostClient).IP(), 100*time.Millisecond, func(dataplane.ProbeResult) {})
	b.ARPPing(s.Net.Host(core.HostServer).IP(), 100*time.Millisecond, func(dataplane.ProbeResult) {})
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
}

func assertNoAlerts(t *testing.T, s *core.Scenario, reasons ...string) {
	t.Helper()
	for _, r := range reasons {
		if got := s.Controller().AlertsByReason(r); len(got) != 0 {
			t.Fatalf("unexpected %q alerts: %v", r, got)
		}
	}
}

func TestNaiveLinkFabricationDetectedByTopoGuard(t *testing.T) {
	s := core.NewFig1Scenario(1, core.TopoGuardOnly())
	defer s.Close()
	warmFig1(t, s)

	fab := attack.NewOOBFabrication(s.Net.ControlKernel(),
		s.Net.Host(core.HostAttackerA), s.Net.Host(core.HostAttackerB), s.OOB,
		attack.FabricationConfig{UseAmnesia: false})
	fab.Start()
	if err := s.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(s.Controller().AlertsByReason(topoguard.ReasonLLDPFromHost)) == 0 {
		t.Fatal("TopoGuard did not flag LLDP from HOST-profiled port")
	}
	if s.Controller().HasLink(core.FabricatedLinkAB()) {
		t.Fatal("fabricated link entered topology despite TopoGuard")
	}
}

func TestPortAmnesiaFabricationBypassesTopoGuardAndSphinx(t *testing.T) {
	s := core.NewFig1Scenario(2, core.BothBaselines())
	defer s.Close()
	warmFig1(t, s)

	a := s.Net.Host(core.HostAttackerA)
	b := s.Net.Host(core.HostAttackerB)
	if s.TopoGuard().Profile(controller.PortRef{DPID: 0x1, Port: 1}) != topoguard.HostPort {
		t.Fatal("precondition: attacker A port should be HOST-profiled")
	}

	fab := attack.NewOOBFabrication(s.Net.ControlKernel(), a, b, s.OOB,
		attack.FabricationConfig{UseAmnesia: true, BridgeDataplane: true})
	fab.Start()
	if err := s.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}

	if !s.Controller().HasLink(core.FabricatedLinkAB()) {
		t.Fatal("fabricated link missing from topology")
	}
	if !s.Controller().HasLink(core.FabricatedLinkAB().Reverse()) {
		t.Fatal("reverse fabricated link missing from topology")
	}
	assertNoAlerts(t, s,
		topoguard.ReasonLLDPFromHost,
		topoguard.ReasonFirstHopFromSwitch,
		sphinx.ReasonLinkChanged,
		sphinx.ReasonMultiBinding,
	)
	aToB, bToA := fab.RelayedLLDP()
	if aToB == 0 || bToA == 0 {
		t.Fatalf("LLDP relays: aToB=%d bToA=%d", aToB, bToA)
	}
}

func TestFabricatedLinkCarriesManInTheMiddleTraffic(t *testing.T) {
	s := core.NewFig1Scenario(3, core.BothBaselines())
	defer s.Close()
	warmFig1(t, s)
	fab := attack.NewOOBFabrication(s.Net.ControlKernel(),
		s.Net.Host(core.HostAttackerA), s.Net.Host(core.HostAttackerB), s.OOB,
		attack.FabricationConfig{UseAmnesia: true, BridgeDataplane: true})
	fab.Start()
	if err := s.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !s.Controller().HasLink(core.FabricatedLinkAB()) {
		t.Fatal("precondition: fabricated link missing")
	}

	// The only switch-switch path runs through the attackers: a client
	// ping to the server must transit the bridge.
	client := s.Net.Host(core.HostClient)
	server := s.Net.Host(core.HostServer)
	var arpOK, pingOK bool
	client.ARPPing(server.IP(), 2*time.Second, func(r dataplane.ProbeResult) { arpOK = r.Alive })
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !arpOK {
		t.Fatal("client could not resolve server across fabricated link")
	}
	client.Ping(server.MAC(), server.IP(), 2*time.Second, func(r dataplane.ProbeResult) { pingOK = r.Alive })
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !pingOK {
		t.Fatal("client ping did not cross the fabricated link")
	}
	if fab.BridgedFrames() == 0 {
		t.Fatal("no frames transited the attacker bridge: no MITM position")
	}

	// Faithful forwarding keeps switch counters consistent: SPHINX's flow
	// check stays quiet (Section V-A).
	done := false
	s.Sphinx().CheckFlowConsistency(func() { done = true })
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("flow consistency check did not complete")
	}
	assertNoAlerts(t, s, sphinx.ReasonFlowInconsistent)
}

func TestBlackholeBridgeCaughtBySphinxCounters(t *testing.T) {
	s := core.NewFig1Scenario(4, core.BothBaselines())
	defer s.Close()
	warmFig1(t, s)
	fab := attack.NewOOBFabrication(s.Net.ControlKernel(),
		s.Net.Host(core.HostAttackerA), s.Net.Host(core.HostAttackerB), s.OOB,
		attack.FabricationConfig{UseAmnesia: true, BridgeDataplane: true, DropDataplane: true})
	fab.Start()
	if err := s.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !s.Controller().HasLink(core.FabricatedLinkAB()) {
		t.Fatal("precondition: fabricated link missing")
	}

	// The client pushes bulk traffic toward the server; the bridge drops
	// it, so the path's downstream flow counters lag the upstream ones.
	client := s.Net.Host(core.HostClient)
	server := s.Net.Host(core.HostServer)
	payload := make([]byte, 1200)
	for i := 0; i < 10; i++ {
		client.SendUDP(server.MAC(), server.IP(), 5000, 5001, payload)
		if err := s.Run(200 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	done := false
	s.Sphinx().CheckFlowConsistency(func() { done = true })
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("flow consistency check did not complete")
	}
	if fab.DroppedFrames() == 0 {
		t.Fatal("blackhole dropped nothing")
	}
	if len(s.Controller().AlertsByReason(sphinx.ReasonFlowInconsistent)) == 0 {
		t.Fatal("SPHINX missed the diverging flow counters")
	}
}

func TestOOBAmnesiaDetectedByLLINotCMM(t *testing.T) {
	s := core.NewFig9Testbed(5, core.TopoGuardPlus())
	defer s.Close()
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Warm the attackers' HOST profiles.
	s.Net.Host(core.HostAttackerA).ARPPing(s.Net.Host(core.HostClient).IP(), 100*time.Millisecond, func(dataplane.ProbeResult) {})
	s.Net.Host(core.HostAttackerB).ARPPing(s.Net.Host(core.HostServer).IP(), 100*time.Millisecond, func(dataplane.ProbeResult) {})
	// Let the LLI calibrate on the real links (Figure 11's bootstrap).
	if err := s.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	fab := attack.NewOOBFabrication(s.Net.ControlKernel(),
		s.Net.Host(core.HostAttackerA), s.Net.Host(core.HostAttackerB), s.OOB,
		attack.FabricationConfig{UseAmnesia: true})
	fab.Start()
	if err := s.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}

	if len(s.Controller().AlertsByReason(tgplus.ReasonAbnormalDelay)) == 0 {
		t.Fatal("LLI did not flag the out-of-band fabricated link")
	}
	if s.Controller().HasLink(core.FabricatedLinkFig9()) || s.Controller().HasLink(core.FabricatedLinkFig9().Reverse()) {
		t.Fatal("fabricated link survived LLI blocking")
	}
	if len(s.Controller().AlertsByReason(tgplus.ReasonControlMessage)) != 0 {
		t.Fatal("CMM flagged the OOB variant; its one-time resets should fall outside every propagation window")
	}
	// The real trunks must survive: micro-burst false positives may flag
	// isolated probes, but the links stay alive across refreshes (§VIII-A).
	real := controller.Link{Src: controller.PortRef{DPID: 1, Port: 3}, Dst: controller.PortRef{DPID: 2, Port: 3}}
	if !s.Controller().HasLink(real) {
		t.Fatal("benign trunk fell out of the topology")
	}
}

func TestOOBAmnesiaUndetectedWithoutLLI(t *testing.T) {
	// Same attack, baseline defenses only: the link sticks, silently.
	s := core.NewFig9Testbed(6, core.BothBaselines())
	defer s.Close()
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	s.Net.Host(core.HostAttackerA).ARPPing(s.Net.Host(core.HostClient).IP(), 100*time.Millisecond, func(dataplane.ProbeResult) {})
	s.Net.Host(core.HostAttackerB).ARPPing(s.Net.Host(core.HostServer).IP(), 100*time.Millisecond, func(dataplane.ProbeResult) {})
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	fab := attack.NewOOBFabrication(s.Net.ControlKernel(),
		s.Net.Host(core.HostAttackerA), s.Net.Host(core.HostAttackerB), s.OOB,
		attack.FabricationConfig{UseAmnesia: true})
	fab.Start()
	if err := s.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !s.Controller().HasLink(core.FabricatedLinkFig9()) {
		t.Fatal("fabricated link missing")
	}
	assertNoAlerts(t, s, topoguard.ReasonLLDPFromHost, topoguard.ReasonFirstHopFromSwitch)
}

// linkRecorder notes every accepted link update, for flap-prone in-band
// assertions.
type linkRecorder struct {
	seen map[controller.Link]int
}

func (r *linkRecorder) ModuleName() string { return "test/link-recorder" }

func (r *linkRecorder) ObserveLink(ev *controller.LinkEvent) {
	if r.seen == nil {
		r.seen = make(map[controller.Link]int)
	}
	r.seen[ev.Link]++
}

func TestInBandAmnesiaBypassesTopoGuard(t *testing.T) {
	s := core.NewFig9Testbed(7, core.BothBaselines())
	defer s.Close()
	rec := &linkRecorder{}
	s.Controller().Register(rec)
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	fab := attack.NewInBandFabrication(s.Net.ControlKernel(),
		s.Net.Host(core.HostAttackerA), s.Net.Host(core.HostAttackerB), 0)
	fab.Start()
	if err := s.Run(50 * time.Second); err != nil {
		t.Fatal(err)
	}

	if rec.seen[core.FabricatedLinkFig9()] == 0 && rec.seen[core.FabricatedLinkFig9().Reverse()] == 0 {
		t.Fatal("in-band relaying never registered the fabricated link")
	}
	assertNoAlerts(t, s, topoguard.ReasonLLDPFromHost, topoguard.ReasonFirstHopFromSwitch)
	a, b := fab.Cycles()
	if a+b == 0 {
		t.Fatal("in-band attack performed no amnesia cycles; context switching is mandatory")
	}
}

func TestInBandAmnesiaDetectedByCMM(t *testing.T) {
	s := core.NewFig9Testbed(8, core.TopoGuardPlus())
	defer s.Close()
	rec := &linkRecorder{}
	s.Controller().Register(rec)
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	fab := attack.NewInBandFabrication(s.Net.ControlKernel(),
		s.Net.Host(core.HostAttackerA), s.Net.Host(core.HostAttackerB), 0)
	fab.Start()
	if err := s.Run(50 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(s.Controller().AlertsByReason(tgplus.ReasonControlMessage)) == 0 {
		t.Fatal("CMM did not flag the in-band context switching")
	}
	if s.Controller().HasLink(core.FabricatedLinkFig9()) || s.Controller().HasLink(core.FabricatedLinkFig9().Reverse()) {
		t.Fatal("fabricated link present despite CMM blocking")
	}
}

// runFig2Baseline boots the Figure 2 network and seeds host bindings.
func runFig2Baseline(t *testing.T, s *core.Scenario) {
	t.Helper()
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	client := s.Net.Host(core.HostClient)
	victim := s.Net.Host(core.HostVictim)
	attacker := s.Net.Host(core.HostAttackerA)
	ok := false
	client.ARPPing(victim.IP(), time.Second, func(r dataplane.ProbeResult) { ok = r.Alive })
	attacker.ARPPing(client.IP(), time.Second, func(dataplane.ProbeResult) {})
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("baseline connectivity failed")
	}
}

func TestPortProbingHijackBypassesDefenses(t *testing.T) {
	s := core.NewFig2Scenario(9, core.BothBaselines())
	defer s.Close()
	runFig2Baseline(t, s)
	victim := s.Net.Host(core.HostVictim)
	attacker := s.Net.Host(core.HostAttackerA)
	victimMAC := victim.MAC()
	victimIP := victim.IP()

	cfg := attack.DefaultHijackConfig(core.AttackerLocFig2())
	cfg.ToolOverhead = nil // mechanism-only timing for this test
	hj := attack.NewHijack(s.Net.ControlKernel(), attacker, victimIP, cfg)
	s.Controller().Register(hj)

	var tl attack.Timeline
	completed := false
	hj.Start(func(got attack.Timeline) { tl = got; completed = true })
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if completed {
		t.Fatal("hijack completed while victim still online")
	}

	// The victim begins a migration (e.g. live VM migration): interface
	// down, Port-Down follows, and the race window opens.
	victimDownAt := s.Net.ControlKernel().Now()
	victim.InterfaceDown()
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatalf("hijack did not complete; timeline=%+v alerts=%v", hj.Timeline(), s.Controller().Alerts())
	}
	if tl.VictimMAC != victimMAC {
		t.Fatalf("harvested MAC %s, want %s", tl.VictimMAC, victimMAC)
	}
	entry, ok := s.Controller().HostByMAC(victimMAC)
	if !ok || entry.Loc != core.AttackerLocFig2() {
		t.Fatalf("victim binding = %+v, want attacker location", entry)
	}
	assertNoAlerts(t, s,
		topoguard.ReasonMigrationPre,
		topoguard.ReasonMigrationPost,
		sphinx.ReasonMultiBinding,
		sphinx.ReasonIPMACConflict,
	)

	// Timeline sanity: phases in order, detection bounded by probe cadence.
	if !tl.KnownOffline.After(victimDownAt) {
		t.Fatal("attacker knew the victim was gone before it left")
	}
	if tl.KnownOffline.Sub(victimDownAt) > 150*time.Millisecond {
		t.Fatalf("detection took %v, want < scan interval + timeout + slack", tl.KnownOffline.Sub(victimDownAt))
	}
	if tl.IdentityChanged.Before(tl.KnownOffline) || tl.ControllerAck.Before(tl.IdentityChanged) {
		t.Fatalf("timeline out of order: %+v", tl)
	}

	// Traffic bound for the victim now reaches the attacker.
	client := s.Net.Host(core.HostClient)
	var pingOK bool
	before := attacker.RxFrames()
	client.Ping(victimMAC, victimIP, time.Second, func(r dataplane.ProbeResult) { pingOK = r.Alive })
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !pingOK {
		t.Fatal("client ping to hijacked identity failed")
	}
	if attacker.RxFrames() == before {
		t.Fatal("attacker received nothing addressed to the victim")
	}
}

func TestVictimReturnTriggersAlerts(t *testing.T) {
	s := core.NewFig2Scenario(10, core.BothBaselines())
	defer s.Close()
	runFig2Baseline(t, s)
	victim := s.Net.Host(core.HostVictim)
	attacker := s.Net.Host(core.HostAttackerA)
	victimMAC := victim.MAC()
	victimIP := victim.IP()

	cfg := attack.DefaultHijackConfig(core.AttackerLocFig2())
	cfg.ToolOverhead = nil
	hj := attack.NewHijack(s.Net.ControlKernel(), attacker, victimIP, cfg)
	s.Controller().Register(hj)
	completed := false
	hj.Start(func(attack.Timeline) { completed = true })
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	victim.InterfaceDown()
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatal("precondition: hijack did not complete")
	}

	// The victim completes its migration at switch 2 port 4 and starts
	// talking: the controller now sees the same identity at two places.
	reborn := s.Net.AddHost(core.HostVictim+"-new", victimMAC.String(), victimIP.String(), 0x2, 4, nil)
	reborn.SendUDP(s.Net.Host(core.HostClient).MAC(), s.Net.Host(core.HostClient).IP(), 100, 200, []byte("im-back"))
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	pre := len(s.Controller().AlertsByReason(topoguard.ReasonMigrationPre))
	multi := len(s.Controller().AlertsByReason(sphinx.ReasonMultiBinding))
	if pre == 0 && multi == 0 {
		t.Fatalf("victim's return raised no alerts; alerts=%v", s.Controller().Alerts())
	}
}

func TestNaiveHijackBlockedAndAlerted(t *testing.T) {
	s := core.NewFig2Scenario(11, core.BothBaselines())
	defer s.Close()
	runFig2Baseline(t, s)
	victim := s.Net.Host(core.HostVictim)
	attacker := s.Net.Host(core.HostAttackerA)
	victimMAC := victim.MAC()
	victimLoc := controller.PortRef{DPID: 0x1, Port: 2}

	attack.NaiveHijack(s.Net.ControlKernel(), attacker, victimMAC, victim.IP())
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(s.Controller().AlertsByReason(topoguard.ReasonMigrationPre)) == 0 {
		t.Fatal("TopoGuard missed the naive hijack (no Port-Down pre-condition)")
	}
	entry, ok := s.Controller().HostByMAC(victimMAC)
	if !ok || entry.Loc != victimLoc {
		t.Fatalf("victim binding moved to %+v despite blocked migration", entry)
	}
}

func TestPostConditionCatchesHijackAfterUnrelatedPortDown(t *testing.T) {
	// The attacker wins the pre-condition by cycling the *victim's* port?
	// It cannot — but a migration claim after a genuine Port-Down at the
	// old location while the victim is still up (it flapped briefly and
	// recovered) is caught by the post-condition reachability probe.
	s := core.NewFig2Scenario(12, core.TopoGuardOnly())
	defer s.Close()
	runFig2Baseline(t, s)
	victim := s.Net.Host(core.HostVictim)
	attacker := s.Net.Host(core.HostAttackerA)
	victimMAC := victim.MAC()
	victimIP := victim.IP()
	victimLoc := controller.PortRef{DPID: 0x1, Port: 2}

	// Victim flaps (long enough for a Port-Down) and comes back.
	victim.CycleInterface(30*time.Millisecond, nil)
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	// Attacker claims the identity: pre-condition passes (a Port-Down
	// exists), but the victim still answers at its old port.
	attack.NaiveHijack(s.Net.ControlKernel(), attacker, victimMAC, victimIP)
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(s.Controller().AlertsByReason(topoguard.ReasonMigrationPost)) == 0 {
		t.Fatal("post-condition probe missed the live victim")
	}
	entry, ok := s.Controller().HostByMAC(victimMAC)
	if !ok || entry.Loc != victimLoc {
		t.Fatalf("binding not rolled back: %+v", entry)
	}
}

func TestAlertFloodDrownsOperator(t *testing.T) {
	s := core.NewFig2Scenario(13, core.BothBaselines())
	defer s.Close()
	runFig2Baseline(t, s)
	attacker := s.Net.Host(core.HostAttackerA)

	victims := []attack.SpoofTarget{
		{MAC: s.Net.Host(core.HostVictim).MAC(), IP: s.Net.Host(core.HostVictim).IP()},
		{MAC: s.Net.Host(core.HostClient).MAC(), IP: s.Net.Host(core.HostClient).IP()},
		{MAC: packet.MustMAC("de:ad:be:ef:00:01"), IP: packet.MustIPv4("10.0.9.1")},
	}
	flood := attack.NewAlertFlood(s.Net.ControlKernel(), []*dataplane.Host{attacker}, victims, 20*time.Millisecond)
	flood.Start()
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	flood.Stop()

	alerts := len(s.Controller().Alerts())
	if alerts < 50 {
		t.Fatalf("alert flood produced only %d alerts", alerts)
	}
	if flood.Sent() == 0 {
		t.Fatal("flood sent nothing")
	}
	// The alerts changed nothing: the spoofed bindings were not committed.
	entry, ok := s.Controller().HostByMAC(s.Net.Host(core.HostVictim).MAC())
	if !ok || entry.Loc != (controller.PortRef{DPID: 0x1, Port: 2}) {
		t.Fatalf("flood moved a binding: %+v", entry)
	}
}

func TestHijackWithToolOverheadSlowerButSucceeds(t *testing.T) {
	s := core.NewFig2Scenario(14, core.BothBaselines())
	defer s.Close()
	runFig2Baseline(t, s)
	victim := s.Net.Host(core.HostVictim)
	attacker := s.Net.Host(core.HostAttackerA)

	hj := attack.NewHijack(s.Net.ControlKernel(), attacker, victim.IP(), attack.DefaultHijackConfig(core.AttackerLocFig2()))
	s.Controller().Register(hj)
	var tl attack.Timeline
	completed := false
	hj.Start(func(got attack.Timeline) { tl = got; completed = true })
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	downAt := s.Net.ControlKernel().Now()
	victim.InterfaceDown()
	if err := s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatal("hijack with tool overhead did not complete")
	}
	took := tl.ControllerAck.Sub(downAt)
	if took < 35*time.Millisecond {
		t.Fatalf("completion implausibly fast: %v", took)
	}
	if took > 2*time.Second {
		t.Fatalf("completion too slow: %v", took)
	}
}
