package core

import (
	"fmt"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/secbind"
)

// RunPortProbingWithIdentifierBinding evaluates the Section VI-A
// countermeasure: the same port-probing hijack that bypasses TopoGuard,
// SPHINX and TOPOGUARD+ is run against a controller that additionally
// enforces cryptographic identifier binding. The expected verdict is
// Blocked — and the legitimate victim must still be able to migrate.
func RunPortProbingWithIdentifierBinding(seed int64) (Verdict, error) {
	s := NewFig2Scenario(seed, BothBaselines())
	defer s.Close()
	authority := secbind.NewAuthority(s.Net.ControlKernel().Rand())
	binder := secbind.NewBinder(authority)
	s.Controller().Register(binder)
	cred, err := authority.Enroll("victim-device")
	if err != nil {
		return Failed, err
	}
	if err := seedFig2Bindings(s); err != nil {
		return Failed, err
	}
	victim := s.Net.Host(HostVictim)
	attacker := s.Net.Host(HostAttackerA)
	supplicant := secbind.NewSupplicant(victim, cred)
	supplicant.Authenticate()
	if err := s.Run(time.Second); err != nil {
		return Failed, err
	}

	cfg := attack.DefaultHijackConfig(AttackerLocFig2())
	cfg.ToolOverhead = nil
	hj := attack.NewHijack(s.Net.ControlKernel(), attacker, victim.IP(), cfg)
	s.Controller().Register(hj)
	completed := false
	hj.Start(func(attack.Timeline) { completed = true })
	if err := s.Run(2 * time.Second); err != nil {
		return Failed, err
	}
	victim.InterfaceDown()
	if err := s.Run(10 * time.Second); err != nil {
		return Failed, err
	}

	alerted := len(s.Controller().AlertsByReason(secbind.ReasonUnauthenticatedMove)) > 0
	switch {
	case completed && !alerted:
		return Undetected, nil
	case completed:
		return Detected, nil
	case alerted:
		// Confirm the legitimate path still works before calling it a
		// clean block: the victim migrates with re-authentication.
		reborn := s.Net.AddHost(HostVictim+"-migrated",
			victim.MAC().String(), victim.IP().String(), 0x2, 4, nil)
		supplicant.Rebind(reborn)
		supplicant.Authenticate()
		if err := s.Run(time.Second); err != nil {
			return Failed, err
		}
		reborn.SendUDP(s.Net.Host(HostClient).MAC(), s.Net.Host(HostClient).IP(), 1, 2, []byte("back"))
		if err := s.Run(2 * time.Second); err != nil {
			return Failed, err
		}
		entry, ok := s.Controller().HostByMAC(victim.MAC())
		if !ok || entry.Loc != VictimNewLocFig2() {
			return Failed, fmt.Errorf("identifier binding also blocked the legitimate migration: %+v", entry)
		}
		return Blocked, nil
	default:
		return Failed, nil
	}
}
