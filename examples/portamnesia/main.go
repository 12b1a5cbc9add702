// Port amnesia walkthrough: the same out-of-band link fabrication attack
// is run three times — without the amnesia precursor against TopoGuard
// (caught), with it against TopoGuard + SPHINX (silent success and a
// man-in-the-middle position), and with it against TOPOGUARD+ (caught by
// the Link Latency Inspector).
package main

import (
	"fmt"
	"log"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/core"
	"sdntamper/internal/dataplane"
)

func main() {
	if err := runAll(); err != nil {
		log.Fatal(err)
	}
}

func runAll() error {
	fmt.Println("=== 1. naive LLDP relay vs TopoGuard ===")
	if err := naiveVsTopoGuard(); err != nil {
		return err
	}
	fmt.Println("\n=== 2. port amnesia + relay vs TopoGuard and SPHINX ===")
	if err := amnesiaVsBaselines(); err != nil {
		return err
	}
	fmt.Println("\n=== 3. port amnesia + relay vs TOPOGUARD+ ===")
	return amnesiaVsTGPlus()
}

// warm gives the attacker ports HOST profiles (the Figure 1 start state).
func warm(s *core.Scenario) error {
	if err := s.Run(2 * time.Second); err != nil {
		return err
	}
	s.Net.Host(core.HostAttackerA).ARPPing(s.Net.Host(core.HostClient).IP(), 300*time.Millisecond, func(dataplane.ProbeResult) {})
	s.Net.Host(core.HostAttackerB).ARPPing(s.Net.Host(core.HostServer).IP(), 300*time.Millisecond, func(dataplane.ProbeResult) {})
	return s.Run(2 * time.Second)
}

func report(s *core.Scenario, fab *attack.OOBFabrication) {
	link := core.FabricatedLinkAB()
	fmt.Printf("  fabricated link in topology: %v / reverse: %v\n",
		s.Controller().HasLink(link), s.Controller().HasLink(link.Reverse()))
	aToB, bToA := fab.RelayedLLDP()
	fmt.Printf("  LLDP relayed: A->B %d, B->A %d; bridged dataplane frames: %d\n",
		aToB, bToA, fab.BridgedFrames())
	alerts := s.Controller().Alerts()
	fmt.Printf("  alerts: %d\n", len(alerts))
	for _, a := range alerts {
		fmt.Printf("    %s\n", a)
	}
}

func naiveVsTopoGuard() error {
	s := core.NewFig1Scenario(1, core.TopoGuardOnly())
	defer s.Close()
	if err := warm(s); err != nil {
		return err
	}
	fab := attack.NewOOBFabrication(s.Net.ControlKernel(),
		s.Net.Host(core.HostAttackerA), s.Net.Host(core.HostAttackerB), s.OOB,
		attack.FabricationConfig{UseAmnesia: false})
	fab.Start()
	if err := s.Run(40 * time.Second); err != nil {
		return err
	}
	report(s, fab)
	return nil
}

func amnesiaVsBaselines() error {
	s := core.NewFig1Scenario(2, core.BothBaselines())
	defer s.Close()
	if err := warm(s); err != nil {
		return err
	}
	fab := attack.NewOOBFabrication(s.Net.ControlKernel(),
		s.Net.Host(core.HostAttackerA), s.Net.Host(core.HostAttackerB), s.OOB,
		attack.FabricationConfig{UseAmnesia: true, BridgeDataplane: true})
	fab.Start()
	if err := s.Run(40 * time.Second); err != nil {
		return err
	}
	report(s, fab)

	// Demonstrate the man-in-the-middle position: in Figure 1 the
	// fabricated link is the ONLY switch-switch path, so the client's
	// ping to the server must transit the attackers' bridge.
	client := s.Net.Host(core.HostClient)
	server := s.Net.Host(core.HostServer)
	client.ARPPing(server.IP(), 2*time.Second, func(r dataplane.ProbeResult) {
		fmt.Printf("  client ARP for server: alive=%v\n", r.Alive)
	})
	if err := s.Run(3 * time.Second); err != nil {
		return err
	}
	client.Ping(server.MAC(), server.IP(), 2*time.Second, func(r dataplane.ProbeResult) {
		fmt.Printf("  client ping server through the fabricated link: alive=%v rtt=%s\n", r.Alive, r.RTT)
	})
	if err := s.Run(3 * time.Second); err != nil {
		return err
	}
	fmt.Printf("  frames man-in-the-middled by the attackers: %d\n", fab.BridgedFrames())
	return nil
}

func amnesiaVsTGPlus() error {
	s := core.NewFig9Testbed(3, core.TopoGuardPlus())
	defer s.Close()
	// Calibration minute for the LLI, as in the paper's evaluation.
	if err := s.Run(60 * time.Second); err != nil {
		return err
	}
	fab := attack.NewOOBFabrication(s.Net.ControlKernel(),
		s.Net.Host(core.HostAttackerA), s.Net.Host(core.HostAttackerB), s.OOB,
		attack.FabricationConfig{UseAmnesia: true})
	fab.Start()
	if err := s.Run(60 * time.Second); err != nil {
		return err
	}
	link := core.FabricatedLinkFig9()
	fmt.Printf("  fabricated link in topology: %v / reverse: %v\n",
		s.Controller().HasLink(link), s.Controller().HasLink(link.Reverse()))
	for _, a := range s.Controller().Alerts() {
		fmt.Printf("    %s\n", a)
	}
	return nil
}
