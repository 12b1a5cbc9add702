// Alert flood walkthrough: because TopoGuard and SPHINX only raise alerts
// (they cannot tell attacker from victim, and alerts change no network
// state), a single spoofing host can bury the operator's console — and a
// real hijack hides comfortably in the noise.
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
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	s := core.NewFig2Scenario(11, core.BothBaselines())
	defer s.Close()
	if err := s.Run(2 * time.Second); err != nil {
		return err
	}
	victim := s.Net.Host(core.HostVictim)
	client := s.Net.Host(core.HostClient)
	attacker := s.Net.Host(core.HostAttackerA)

	// Everyone says hello so the Host Tracking Service has bindings.
	client.ARPPing(victim.IP(), time.Second, func(dataplane.ProbeResult) {})
	attacker.ARPPing(client.IP(), time.Second, func(dataplane.ProbeResult) {})
	if err := s.Run(3 * time.Second); err != nil {
		return err
	}

	fmt.Println("spoofing the identities of two legitimate hosts, 100 frames/second...")
	flood := attack.NewAlertFlood(s.Net.ControlKernel(), []*dataplane.Host{attacker},
		[]attack.SpoofTarget{
			{MAC: victim.MAC(), IP: victim.IP()},
			{MAC: client.MAC(), IP: client.IP()},
		}, 10*time.Millisecond)
	flood.Start()
	if err := s.Run(10 * time.Second); err != nil {
		return err
	}
	flood.Stop()

	alerts := s.Controller().Alerts()
	fmt.Printf("\nspoofed frames sent : %d\n", flood.Sent())
	fmt.Printf("alerts raised       : %d (%.1f per second)\n", len(alerts), float64(len(alerts))/10)
	fmt.Println("\nfirst five alerts the operator must triage:")
	for i, a := range alerts {
		if i == 5 {
			break
		}
		fmt.Printf("  %s\n", a)
	}

	// Crucially, nothing was blocked and nothing moved: the alerts are
	// pure noise, which is the denial-of-service.
	ve, _ := s.Controller().HostByMAC(victim.MAC())
	ce, _ := s.Controller().HostByMAC(client.MAC())
	fmt.Printf("\nvictim binding still at %s, client still at %s —\n", ve.Loc, ce.Loc)
	fmt.Println("the defenses alerted thousands of times and changed nothing.")
	fmt.Println("Which of these alerts is the real attack? The operator cannot tell.")
	return nil
}
