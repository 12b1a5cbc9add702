package core

import (
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/controller"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/exp"
	"sdntamper/internal/packet"
	"sdntamper/internal/ratemon"
	"sdntamper/internal/sphinx"
	"sdntamper/internal/tgplus"
	"sdntamper/internal/topoguard"
)

// Verdict summarizes one attack-versus-defense cell.
type Verdict string

// Verdicts.
const (
	// Undetected: the attack achieved its goal and no relevant alert fired.
	Undetected Verdict = "undetected"
	// Detected: an alert fired (the attack may or may not have been blocked).
	Detected Verdict = "detected"
	// Blocked: an alert fired and the tampering was kept out of controller state.
	Blocked Verdict = "blocked"
	// Failed: the attack did not achieve its goal for another reason.
	Failed Verdict = "failed"
)

// MatrixRow is one attack evaluated against the four defense stacks.
type MatrixRow struct {
	Attack      string
	VsTopoGuard Verdict
	VsSphinx    Verdict
	VsTGPlus    Verdict
	VsFullStack Verdict
}

// RunAttackMatrix reproduces the paper's headline result as a matrix:
// each attack is executed against TopoGuard, SPHINX, TOPOGUARD+
// (TopoGuard + CMM + LLI) and the full stack (TOPOGUARD+ plus the rate
// monitor) in fresh scenarios, and each cell reports whether the attack
// succeeded undetected. The attack rows shard across worker goroutines
// (every cell owns a private scenario); row order and per-cell seeds
// match the serial sweep exactly.
func RunAttackMatrix(seed int64) ([]MatrixRow, error) {
	type spec struct {
		name string
		fn   matrixCell
		seed int64
	}
	run4 := func(sp spec) (MatrixRow, error) {
		row := MatrixRow{Attack: sp.name}
		var err error
		if row.VsTopoGuard, err = sp.fn(TopoGuardOnly(), sp.seed); err != nil {
			return row, err
		}
		if row.VsSphinx, err = sp.fn(SphinxOnly(), sp.seed+1); err != nil {
			return row, err
		}
		if row.VsTGPlus, err = sp.fn(TopoGuardPlus(), sp.seed+2); err != nil {
			return row, err
		}
		if row.VsFullStack, err = sp.fn(FullStack(), sp.seed+3); err != nil {
			return row, err
		}
		return row, nil
	}

	var specs []spec
	for i, sp := range matrixSpecs() {
		specs = append(specs, spec{name: sp.name, fn: sp.fn, seed: seed + int64(i)*101})
	}
	return exp.Grid(specs, 0, run4)
}

// matrixCell runs one attack under one defense stack and reports the
// verdict. The trailing controller options let protocol sweeps re-run
// the same cell under a different discovery configuration; the attack
// matrix itself passes none, so its scenarios are unchanged.
type matrixCell func(def Defenses, seed int64, ctlOpts ...controller.Option) (Verdict, error)

// matrixSpec names one attack row shared by every matrix-style sweep.
type matrixSpec struct {
	name string
	fn   matrixCell
}

// matrixSpecs lists the paper's seven attack rows in report order.
func matrixSpecs() []matrixSpec {
	return []matrixSpec{
		{name: "naive link fabrication (LLDP relay)", fn: runFabricationCell(false)},
		{name: "OOB port amnesia + link fabrication", fn: runFabricationCell(true)},
		{name: "in-band port amnesia + link fabrication", fn: runInBandCell},
		{name: "naive host hijack (victim online)", fn: runNaiveHijackCell},
		{name: "port probing + host hijack (victim in transit)", fn: runPortProbingCell},
		{name: "distributed SYN flood (spoofed sources)", fn: runDoSCell(attack.SYNFlood)},
		{name: "distributed link saturation (UDP)", fn: runDoSCell(attack.LinkSaturation)},
	}
}

// fabricationAlertReasons are the alert codes that count as detecting a
// link fabrication attempt.
var fabricationAlertReasons = []string{
	topoguard.ReasonLLDPFromHost,
	topoguard.ReasonFirstHopFromSwitch,
	sphinx.ReasonLinkChanged,
	tgplus.ReasonControlMessage,
	tgplus.ReasonAbnormalDelay,
}

func anyAlert(s *Scenario, reasons []string) bool {
	for _, r := range reasons {
		if len(s.Controller().AlertsByReason(r)) > 0 {
			return true
		}
	}
	return false
}

func fabricationVerdict(s *Scenario, fabricated bool) Verdict {
	alerted := anyAlert(s, fabricationAlertReasons)
	switch {
	case fabricated && !alerted:
		return Undetected
	case fabricated && alerted:
		return Detected
	case alerted:
		return Blocked
	default:
		return Failed
	}
}

func runFabricationCell(useAmnesia bool) matrixCell {
	return fabricationCell(attack.FabricationConfig{UseAmnesia: useAmnesia})
}

// fabricationCell runs the out-of-band fabrication with an arbitrary
// attack configuration (the discovery matrix adds the re-flap variant).
func fabricationCell(cfg attack.FabricationConfig) matrixCell {
	return func(def Defenses, seed int64, ctlOpts ...controller.Option) (Verdict, error) {
		s := NewFig9Testbed(seed, def, ctlOpts...)
		defer s.Close()
		if err := s.Run(2 * time.Second); err != nil {
			return Failed, err
		}
		// Attacker ports start HOST-profiled, as in Figure 1.
		s.Net.Host(HostAttackerA).ARPPing(s.Net.Host(HostClient).IP(), 300*time.Millisecond, func(dataplane.ProbeResult) {})
		s.Net.Host(HostAttackerB).ARPPing(s.Net.Host(HostServer).IP(), 300*time.Millisecond, func(dataplane.ProbeResult) {})
		if err := s.Run(2 * time.Second); err != nil {
			return Failed, err
		}
		if def.LLI {
			// Give the LLI its calibration period, as the paper does.
			if err := s.Run(60 * time.Second); err != nil {
				return Failed, err
			}
		}
		fab := attack.NewOOBFabrication(s.Net.ControlKernel(),
			s.Net.Host(HostAttackerA), s.Net.Host(HostAttackerB), s.OOB, cfg)
		fab.Start()
		if err := s.Run(40 * time.Second); err != nil {
			return Failed, err
		}
		fabricated := s.Controller().HasLink(FabricatedLinkFig9()) ||
			s.Controller().HasLink(FabricatedLinkFig9().Reverse())
		return fabricationVerdict(s, fabricated), nil
	}
}

func runInBandCell(def Defenses, seed int64, ctlOpts ...controller.Option) (Verdict, error) {
	s := NewFig9Testbed(seed, def, ctlOpts...)
	defer s.Close()
	rec := &linkSeen{want: FabricatedLinkFig9()}
	s.Controller().Register(rec)
	if err := s.Run(2 * time.Second); err != nil {
		return Failed, err
	}
	if def.LLI {
		if err := s.Run(60 * time.Second); err != nil {
			return Failed, err
		}
	}
	fab := attack.NewInBandFabrication(s.Net.ControlKernel(),
		s.Net.Host(HostAttackerA), s.Net.Host(HostAttackerB), 0)
	fab.Start()
	if err := s.Run(50 * time.Second); err != nil {
		return Failed, err
	}
	return fabricationVerdict(s, rec.count > 0), nil
}

// hijackAlertReasons are the alert codes that count as detecting a host
// location hijack.
var hijackAlertReasons = []string{
	topoguard.ReasonMigrationPre,
	topoguard.ReasonMigrationPost,
	sphinx.ReasonMultiBinding,
	sphinx.ReasonIPMACConflict,
}

func runNaiveHijackCell(def Defenses, seed int64, ctlOpts ...controller.Option) (Verdict, error) {
	s := NewFig2Scenario(seed, def, ctlOpts...)
	defer s.Close()
	if err := seedFig2Bindings(s); err != nil {
		return Failed, err
	}
	victim := s.Net.Host(HostVictim)
	attacker := s.Net.Host(HostAttackerA)
	victimMAC := victim.MAC()
	// With the victim still online, a committed hijack immediately starts
	// oscillating (the victim's own traffic moves the binding back), so
	// record whether the binding EVER landed on the attacker's port.
	rec := &moveSeen{mac: victimMAC, loc: AttackerLocFig2()}
	s.Controller().Register(rec)
	attack.NaiveHijack(s.Net.ControlKernel(), attacker, victimMAC, victim.IP())
	if err := s.Run(3 * time.Second); err != nil {
		return Failed, err
	}
	hijacked := rec.count > 0
	alerted := anyAlert(s, hijackAlertReasons)
	switch {
	case hijacked && !alerted:
		return Undetected, nil
	case hijacked && alerted:
		return Detected, nil
	case alerted:
		return Blocked, nil
	default:
		// With no defense deployed the hijack would land; reaching here
		// without an alert means something silently prevented it.
		return Failed, nil
	}
}

func runPortProbingCell(def Defenses, seed int64, ctlOpts ...controller.Option) (Verdict, error) {
	s := NewFig2Scenario(seed, def, ctlOpts...)
	defer s.Close()
	if err := seedFig2Bindings(s); err != nil {
		return Failed, err
	}
	victim := s.Net.Host(HostVictim)
	attacker := s.Net.Host(HostAttackerA)

	cfg := attack.DefaultHijackConfig(AttackerLocFig2())
	cfg.ToolOverhead = nil
	hj := attack.NewHijack(s.Net.ControlKernel(), attacker, victim.IP(), cfg)
	s.Controller().Register(hj)
	completed := false
	hj.Start(func(attack.Timeline) { completed = true })
	if err := s.Run(3 * time.Second); err != nil {
		return Failed, err
	}
	victim.InterfaceDown()
	if err := s.Run(10 * time.Second); err != nil {
		return Failed, err
	}
	alerted := anyAlert(s, hijackAlertReasons)
	switch {
	case completed && !alerted:
		return Undetected, nil
	case completed && alerted:
		return Detected, nil
	case alerted:
		return Blocked, nil
	default:
		return Failed, nil
	}
}

// dosAlertReasons are the alert codes that count as detecting a flood.
var dosAlertReasons = []string{ratemon.ReasonPortFlood}

// runDoSCell floods the Figure 9 server from both attacker hosts (each
// on its own switch) for 8 s. The attack "succeeds" when the flood is
// delivered to the victim largely unthrottled; a defense that both
// alerts and drops the bulk of the flood at the attackers' ingress
// ports scores Blocked. Only the rate monitor reacts to volume, so the
// topology-integrity stacks are expected to score Undetected here.
func runDoSCell(variant attack.DoSVariant) matrixCell {
	return func(def Defenses, seed int64, ctlOpts ...controller.Option) (Verdict, error) {
		if def.RateMon {
			cfg := DoSRateMonConfig(variant)
			def.RateMonConfig = &cfg
		}
		s := NewFig9Testbed(seed, def, ctlOpts...)
		defer s.Close()
		if err := s.Run(2 * time.Second); err != nil {
			return Failed, err
		}
		victim := s.Net.Host(HostServer)
		attackers := []*dataplane.Host{s.Net.Host(HostAttackerA), s.Net.Host(HostAttackerB)}
		for _, a := range attackers {
			a.ARPPing(victim.IP(), time.Second, func(dataplane.ProbeResult) {})
		}
		if err := s.Run(2 * time.Second); err != nil {
			return Failed, err
		}
		cfg := attack.DoSConfig{Variant: variant, Seed: seed}
		if variant == attack.SYNFlood {
			cfg.PacketsPerSec = 2500
		} else {
			cfg.PacketsPerSec = 1000
		}
		flood := attack.NewDoS(attackers, victim.MAC(), victim.IP(), cfg)
		flood.Announce()
		if err := s.Run(time.Second); err != nil {
			return Failed, err
		}
		rxBefore := victim.RxFrames()
		flood.Start()
		if err := s.Run(8 * time.Second); err != nil {
			return Failed, err
		}
		flood.Stop()
		if err := s.Run(time.Second); err != nil {
			return Failed, err
		}
		delivered := float64(victim.RxFrames()-rxBefore) / float64(flood.PacketsSent())
		alerted := anyAlert(s, dosAlertReasons)
		switch {
		case !alerted && delivered > 0.9:
			return Undetected, nil
		case alerted && delivered < 0.7:
			return Blocked, nil
		case alerted:
			return Detected, nil
		default:
			return Failed, nil
		}
	}
}

func seedFig2Bindings(s *Scenario) error {
	if err := s.Run(2 * time.Second); err != nil {
		return err
	}
	client := s.Net.Host(HostClient)
	victim := s.Net.Host(HostVictim)
	attacker := s.Net.Host(HostAttackerA)
	client.ARPPing(victim.IP(), time.Second, func(dataplane.ProbeResult) {})
	attacker.ARPPing(client.IP(), time.Second, func(dataplane.ProbeResult) {})
	return s.Run(3 * time.Second)
}

// moveSeen counts committed host-move events binding one MAC to one port.
type moveSeen struct {
	mac   packet.MAC
	loc   controller.PortRef
	count int
}

func (r *moveSeen) ModuleName() string { return "experiment/move-seen" }

func (r *moveSeen) ObserveHostMove(ev *controller.HostMoveEvent) {
	if ev.MAC == r.mac && ev.New == r.loc {
		r.count++
	}
}

// linkSeen counts accepted updates of one link (used for the flappy
// in-band fabrication, where the link may not be present at sampling time).
type linkSeen struct {
	want  controller.Link
	count int
}

func (r *linkSeen) ModuleName() string { return "experiment/link-seen" }

func (r *linkSeen) ObserveLink(ev *controller.LinkEvent) {
	if ev.Link == r.want || ev.Link == r.want.Reverse() {
		r.count++
	}
}
