// Port probing walkthrough: the attacker times a host-location hijack to
// the victim's migration window using ARP liveness probes, wins the race
// against TopoGuard's pre/post-condition checks and SPHINX's binding
// invariants, impersonates the victim, and is finally exposed when the
// real victim re-joins the network.
package main

import (
	"fmt"
	"log"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/core"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/packet"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	s := core.NewFig2Scenario(7, core.BothBaselines())
	defer s.Close()
	if err := s.Run(2 * time.Second); err != nil {
		return err
	}

	victim := s.Net.Host(core.HostVictim)
	attacker := s.Net.Host(core.HostAttackerA)
	client := s.Net.Host(core.HostClient)
	victimMAC, victimIP := victim.MAC(), victim.IP()

	// Baseline traffic so the Host Tracking Service knows everyone.
	client.ARPPing(victimIP, time.Second, func(dataplane.ProbeResult) {})
	attacker.ARPPing(client.IP(), time.Second, func(dataplane.ProbeResult) {})
	if err := s.Run(3 * time.Second); err != nil {
		return err
	}
	fmt.Println("host table before the attack:")
	fmt.Print(s.Controller().HostTableString())

	// Launch the port probing automaton: harvest the MAC with arping,
	// calibrate a probe timeout from measured RTTs (§V-B1), then scan
	// every 50ms until the victim disappears.
	cfg := attack.DefaultHijackConfig(core.AttackerLocFig2())
	cfg.ToolOverhead = nil // mechanism-mode timings for a readable timeline
	hj := attack.NewHijack(s.Net.ControlKernel(), attacker, victimIP, cfg)
	s.Controller().Register(hj)

	var done bool
	var tl attack.Timeline
	hj.Start(func(got attack.Timeline) { tl = got; done = true })
	if err := s.Run(3 * time.Second); err != nil {
		return err
	}
	fmt.Printf("\ncalibrated probe timeout: %s (scans so far: %d)\n", hj.ProbeTimeout(), hj.ScanCount())

	// The victim begins a live migration.
	downAt := s.Net.ControlKernel().Now()
	fmt.Printf("victim interface down at t=%s\n", s.Net.ControlKernel().Elapsed())
	victim.InterfaceDown()
	if err := s.Run(5 * time.Second); err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("hijack did not complete; alerts: %v", s.Controller().Alerts())
	}

	fmt.Println("\nhijack timeline (offsets from victim down):")
	off := func(t time.Time) string { return t.Sub(downAt).String() }
	fmt.Printf("  final probe start : %s (Fig 7)\n", off(tl.LastPingStart))
	fmt.Printf("  attacker knows    : %s (Fig 8)\n", off(tl.KnownOffline))
	fmt.Printf("  attacker up       : %s (Fig 5; ifconfig took %s)\n", off(tl.IdentityChanged), tl.IdentityChangeTook)
	fmt.Printf("  controller ack    : %s (Fig 6)\n", off(tl.ControllerAck))

	fmt.Println("\nhost table after the hijack (victim's identity on the attacker's port):")
	fmt.Print(s.Controller().HostTableString())
	fmt.Printf("alerts so far: %d (the race was won cleanly)\n", len(s.Controller().Alerts()))

	// Traffic for the victim now lands on the attacker.
	client.Ping(victimMAC, victimIP, time.Second, func(r dataplane.ProbeResult) {
		fmt.Printf("\nclient pings the 'victim': alive=%v — answered by the attacker\n", r.Alive)
	})
	if err := s.Run(2 * time.Second); err != nil {
		return err
	}

	// Eventually the real victim completes its migration and talks again:
	// the same identity is now active at two ports and the defenses notice.
	fmt.Println("\nvictim completes its migration and rejoins at 0x2:4 ...")
	reborn := s.Net.AddHost("victim-returned", victimMAC.String(), victimIP.String(), 0x2, 4, nil)
	// A freshly migrated host announces itself with a gratuitous ARP;
	// being broadcast, it always reaches the controller.
	reborn.Send(packet.NewARPRequest(victimMAC, victimIP, victimIP))
	if err := s.Run(2 * time.Second); err != nil {
		return err
	}
	fmt.Printf("alerts after the victim's return: %d\n", len(s.Controller().Alerts()))
	for _, a := range s.Controller().Alerts() {
		fmt.Printf("  %s\n", a)
	}
	return nil
}
