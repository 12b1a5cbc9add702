package secbind_test

import (
	"testing"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/core"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/packet"
	"sdntamper/internal/secbind"
)

// rig builds the Figure 2 scenario with TopoGuard + SPHINX + SecBind and
// an enrolled victim.
func rig(t *testing.T, seed int64) (*core.Scenario, *secbind.Binder, *secbind.Supplicant) {
	t.Helper()
	s := core.NewFig2Scenario(seed, core.BothBaselines())
	t.Cleanup(s.Close)
	authority := secbind.NewAuthority(s.Net.ControlKernel().Rand())
	binder := secbind.NewBinder(authority)
	s.Controller().Register(binder)

	cred, err := authority.Enroll("victim-device")
	if err != nil {
		t.Fatal(err)
	}
	victim := s.Net.Host(core.HostVictim)
	supplicant := secbind.NewSupplicant(victim, cred)

	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Baseline traffic + initial authentication at the home port.
	s.Net.Host(core.HostClient).ARPPing(victim.IP(), time.Second, func(dataplane.ProbeResult) {})
	s.Net.Host(core.HostAttackerA).ARPPing(s.Net.Host(core.HostClient).IP(), time.Second, func(dataplane.ProbeResult) {})
	supplicant.Authenticate()
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	return s, binder, supplicant
}

func TestAuthFrameEstablishesSession(t *testing.T) {
	s, binder, _ := rig(t, 1)
	if id, ok := binder.SessionAt(s.Net.HostLocation(core.HostVictim)); !ok || id != "victim-device" {
		t.Fatalf("session = %q, %v", id, ok)
	}
	if len(s.Controller().AlertsByReason(secbind.ReasonBadAuthFrame)) != 0 {
		t.Fatal("valid proof rejected")
	}
}

func TestPortProbingHijackBlockedByIdentifierBinding(t *testing.T) {
	s, _, _ := rig(t, 2)
	victim := s.Net.Host(core.HostVictim)
	attacker := s.Net.Host(core.HostAttackerA)
	victimMAC := victim.MAC()
	victimLoc := s.Net.HostLocation(core.HostVictim)

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
	if err := s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if completed {
		t.Fatal("hijack completed despite identifier binding")
	}
	if len(s.Controller().AlertsByReason(secbind.ReasonUnauthenticatedMove)) == 0 {
		t.Fatal("blocked move raised no alert")
	}
	entry, ok := s.Controller().HostByMAC(victimMAC)
	if !ok || entry.Loc != victimLoc {
		t.Fatalf("victim binding moved: %+v", entry)
	}
}

func TestLegitimateMigrationWithReauthentication(t *testing.T) {
	s, binder, supplicant := rig(t, 3)
	victim := s.Net.Host(core.HostVictim)
	victimMAC, victimIP := victim.MAC(), victim.IP()

	victim.InterfaceDown()
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	reborn := s.Net.AddHost("victim-migrated", victimMAC.String(), victimIP.String(), 0x2, 4, nil)
	// The migrated VM carries its supplicant state (credential and nonce
	// counter) and re-authenticates from the new attachment.
	supplicant.Rebind(reborn)
	supplicant.Authenticate()
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	reborn.Send(packet.NewARPRequest(victimMAC, victimIP, victimIP))
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	entry, ok := s.Controller().HostByMAC(victimMAC)
	if !ok || entry.Loc != core.VictimNewLocFig2() {
		t.Fatalf("authenticated migration rejected: %+v", entry)
	}
	if len(s.Controller().AlertsByReason(secbind.ReasonUnauthenticatedMove)) != 0 {
		t.Fatal("authenticated migration alerted")
	}
	if id, ok := binder.SessionAt(core.VictimNewLocFig2()); !ok || id != "victim-device" {
		t.Fatalf("new-port session = %q, %v", id, ok)
	}
}

func TestForgedProofRejected(t *testing.T) {
	s, _, _ := rig(t, 4)
	attacker := s.Net.Host(core.HostAttackerA)
	// The attacker crafts an auth frame with a made-up signature.
	body := append([]byte{byte(len("victim-device"))}, "victim-device"...)
	body = append(body, make([]byte, 8+64)...)
	attacker.Send(&packet.Ethernet{
		Dst:     packet.BroadcastMAC,
		Src:     attacker.MAC(),
		Type:    secbind.EtherTypeAuth,
		Payload: body,
	})
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(s.Controller().AlertsByReason(secbind.ReasonBadAuthFrame)) == 0 {
		t.Fatal("forged proof accepted")
	}
}

func TestReplayedProofRejected(t *testing.T) {
	s, _, supplicant := rig(t, 5)
	attacker := s.Net.Host(core.HostAttackerA)

	// An on-path attacker that captured the victim's proof replays the
	// exact bytes from its own port: the nonce guard rejects it.
	captured := supplicant.LastProof()
	if len(captured) == 0 {
		t.Fatal("no proof emitted during rig setup")
	}
	before := len(s.Controller().AlertsByReason(secbind.ReasonBadAuthFrame))
	attacker.SendRaw(captured)
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Controller().AlertsByReason(secbind.ReasonBadAuthFrame)); got <= before {
		t.Fatal("replayed proof accepted")
	}
}
