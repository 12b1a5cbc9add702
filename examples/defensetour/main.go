// Defense tour: watch TOPOGUARD+ at work on the Figure 9 testbed — the
// Link Latency Inspector calibrating on the real links, the attack
// arriving at t=60s, the alert log, and what happens to the forged link.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/core"
	"sdntamper/internal/stats"
	"sdntamper/internal/tgplus"
	"sdntamper/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	s := core.NewFig9Testbed(21, core.TopoGuardPlus())
	defer s.Close()

	capture := trace.NewLog(s.Net.ControlKernel(), 8)

	fmt.Println("== phase 1: calibration ==")
	if err := s.Run(60 * time.Second); err != nil {
		return err
	}
	perLink := map[string]*stats.DurationSeries{}
	for _, sample := range s.LLI().Samples() {
		key := sample.Link.String()
		if perLink[key] == nil {
			perLink[key] = &stats.DurationSeries{}
		}
		perLink[key].Add(sample.Latency)
	}
	var keys []string
	for k := range perLink {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-22s %s\n", k, perLink[k].Summary())
	}
	for _, dpid := range s.Controller().Switches() {
		if oneWay, ok := s.LLI().ControlLatency(dpid); ok {
			fmt.Printf("  control link 0x%x: one-way estimate %s (avg of latest 3 probes)\n", dpid, oneWay)
		}
	}

	fmt.Println("\n== phase 2: the out-of-band attack begins at t=60s ==")
	fab := attack.NewOOBFabrication(s.Net.ControlKernel(),
		s.Net.Host(core.HostAttackerA), s.Net.Host(core.HostAttackerB), s.OOB,
		attack.FabricationConfig{UseAmnesia: true})
	fab.Start()
	// The attack installs its own capture hooks once its amnesia resets
	// settle; tap on top of them shortly after so the log shows the
	// relayed probes in flight.
	s.Net.ControlKernel().Schedule(2*time.Second, func() {
		capture.TapHost(s.Net.Host(core.HostAttackerB), "attackerB")
	})
	if err := s.Run(90 * time.Second); err != nil {
		return err
	}

	fmt.Println("LLI alert log (the Figure 13 shape):")
	for _, a := range s.Controller().AlertsByReason(tgplus.ReasonAbnormalDelay) {
		fmt.Printf("  %s\n", a)
	}

	link := core.FabricatedLinkFig9()
	fmt.Printf("\nfabricated link in topology: %v (reverse: %v) — blocked on every round\n",
		s.Controller().HasLink(link), s.Controller().HasLink(link.Reverse()))
	fmt.Printf("real links still present: %d of 6\n", len(s.Controller().Links()))

	fmt.Println("\nlast frames seen on attackerB's NIC (the relayed probes it re-injects):")
	fmt.Print(capture.String())

	fmt.Println("\n== phase 3: why the threshold cannot be gamed ==")
	flagged, verified := 0, 0
	for _, sample := range s.LLI().Samples() {
		if sample.Link == link || sample.Link == link.Reverse() {
			if sample.Flagged {
				flagged++
			}
		} else {
			verified++
		}
	}
	fmt.Printf("verified (benign) measurements in the store window: %d\n", verified)
	fmt.Printf("fabricated-link measurements flagged: %d — flagged samples never enter\n", flagged)
	fmt.Println("the store, so a persistent attacker cannot drag the threshold upward.")
	return nil
}
