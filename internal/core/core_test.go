package core

import (
	"testing"
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/dataplane"
)

func TestTableIShape(t *testing.T) {
	rows := RunTableI(1, 1000)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]TableIRow{}
	for _, r := range rows {
		byName[r.Probe] = r
	}
	// Paper's ordering: ICMP fastest, idle scan next, ARP two orders of
	// magnitude slower than ICMP, TCP SYN slowest by far.
	icmp, idle, arp, syn := byName["ICMP Ping"], byName["TCP Idle Scan"], byName["ARP ping"], byName["TCP SYN"]
	if !(icmp.Mean < idle.Mean && idle.Mean < arp.Mean && arp.Mean < syn.Mean) {
		t.Fatalf("timing order wrong: %+v", rows)
	}
	if ratio := float64(arp.Mean) / float64(icmp.Mean); ratio < 50 || ratio > 500 {
		t.Fatalf("ARP/ICMP ratio = %.0f, want ~two orders of magnitude", ratio)
	}
	if icmp.Mean < 800*time.Microsecond || icmp.Mean > 1100*time.Microsecond {
		t.Fatalf("ICMP mean = %v, want ~0.91ms", icmp.Mean)
	}
	if syn.Mean < 485*time.Millisecond || syn.Mean > 500*time.Millisecond {
		t.Fatalf("SYN mean = %v, want ~492.3ms", syn.Mean)
	}
	if arp.Mean < 128*time.Millisecond || arp.Mean > 140*time.Millisecond {
		t.Fatalf("ARP mean = %v, want ~133.5ms", arp.Mean)
	}
	if idle.Mean < 1500*time.Microsecond || idle.Mean > 2100*time.Microsecond {
		t.Fatalf("idle mean = %v, want ~1.8ms", idle.Mean)
	}
	if icmp.Stealth != "Low" || syn.Stealth != "Medium" || arp.Stealth != "High" || idle.Stealth != "Very High" {
		t.Fatalf("stealth column wrong: %+v", rows)
	}
}

func TestTableIIOverheadSmall(t *testing.T) {
	rows, err := RunTableII(2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.WithTGPlus <= r.Baseline {
			t.Fatalf("%s: TG+ cost %v not above baseline %v", r.Function, r.WithTGPlus, r.Baseline)
		}
		// The paper reports 0.134ms and 0.299ms on 2018 Java; the shape
		// that must hold is sub-millisecond per-LLDP overhead.
		if r.Overhead > time.Millisecond {
			t.Fatalf("%s: overhead %v exceeds 1ms", r.Function, r.Overhead)
		}
	}
}

func TestTableIIIValues(t *testing.T) {
	rows := RunTableIII()
	want := map[string][2]time.Duration{
		"Floodlight":   {15 * time.Second, 35 * time.Second},
		"POX":          {5 * time.Second, 10 * time.Second},
		"OpenDaylight": {5 * time.Second, 15 * time.Second},
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		w, ok := want[r.Controller]
		if !ok {
			t.Fatalf("unknown controller %q", r.Controller)
		}
		if r.DiscoveryInterval != w[0] || r.LinkTimeout != w[1] {
			t.Fatalf("%s: %v/%v, want %v/%v", r.Controller, r.DiscoveryInterval, r.LinkTimeout, w[0], w[1])
		}
		if r.TimeoutFactor < 2 || r.TimeoutFactor > 3.5 {
			t.Fatalf("%s: timeout factor %.2f outside the 2-3x margin", r.Controller, r.TimeoutFactor)
		}
	}
}

func TestFig3TimelineOrdered(t *testing.T) {
	events, err := RunFig3Timeline(31, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 {
		t.Fatalf("events = %d", len(events))
	}
	// The final (unanswered) probe may start slightly BEFORE the victim
	// drops — it is the in-flight probe whose reply never comes. That is
	// exactly the Figure 7 phenomenon ("within half a millisecond" of the
	// down event); everything after it must be ordered.
	if events[1].Offset < -60*time.Millisecond {
		t.Fatalf("final probe started implausibly early: %v", events[1].Offset)
	}
	for i := 2; i < len(events); i++ {
		if events[i].Offset < events[i-1].Offset {
			t.Fatalf("timeline out of order: %+v", events)
		}
	}
	if events[len(events)-1].Offset > time.Second {
		t.Fatalf("mechanism-mode hijack took %v end to end", events[len(events)-1].Offset)
	}
}

func TestFig4Distribution(t *testing.T) {
	series := RunFig4(32, 2000)
	mean := series.Mean()
	if mean < 8*time.Millisecond || mean > 12*time.Millisecond {
		t.Fatalf("mean = %v, want ~9.94ms", mean)
	}
	if series.Max() < 50*time.Millisecond {
		t.Fatalf("max = %v: the heavy tail is missing", series.Max())
	}
	if series.Quantile(0.5) >= mean {
		t.Fatal("distribution should be right-skewed")
	}
}

func TestHijackDistributionsMechanism(t *testing.T) {
	d, err := RunHijackDistributions(33, 15, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed > 2 {
		t.Fatalf("%d/15 runs failed", d.Failed)
	}
	if d.AttackerUp.N() < 10 {
		t.Fatalf("samples = %d", d.AttackerUp.N())
	}
	// Phase ordering must hold on means.
	if !(d.LastPingStart.Mean() < d.KnownOffline.Mean() &&
		d.KnownOffline.Mean() < d.AttackerUp.Mean() &&
		d.AttackerUp.Mean() < d.ControllerAck.Mean()) {
		t.Fatalf("phase means out of order:\n ping=%v known=%v up=%v ack=%v",
			d.LastPingStart.Mean(), d.KnownOffline.Mean(), d.AttackerUp.Mean(), d.ControllerAck.Mean())
	}
	// The gap between knowing and the final ping start is the calibrated
	// probe timeout.
	gap := d.KnownOffline.Mean() - d.LastPingStart.Mean()
	if gap < 20*time.Millisecond || gap > 80*time.Millisecond {
		t.Fatalf("timeout gap = %v, want around the calibrated timeout (%v mean)", gap, d.ProbeTimeouts.Mean())
	}
	// Identity change samples must look like Figure 4.
	idMean := d.IdentityChange.Mean()
	if idMean < 6*time.Millisecond || idMean > 16*time.Millisecond {
		t.Fatalf("in-attack ifconfig mean = %v", idMean)
	}
}

func TestHijackDistributionsWithToolOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	mech, err := RunHijackDistributions(34, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	tool, err := RunHijackDistributions(34, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	// The nmap-cost model dominates end-to-end time, as the paper found:
	// "the majority of this time is spent conducting the final
	// reachability probe".
	if tool.AttackerUp.Mean() < mech.AttackerUp.Mean()+25*time.Millisecond {
		t.Fatalf("tool overhead did not slow the attack: %v vs %v",
			tool.AttackerUp.Mean(), mech.AttackerUp.Mean())
	}
}

func TestFig10LatenciesAroundFiveMilliseconds(t *testing.T) {
	series, err := RunFig10(35, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("links measured = %d", len(series))
	}
	for l, s := range series {
		if s.N() < 40 {
			t.Fatalf("%s: %d samples", l, s.N())
		}
		mean := s.Mean()
		if mean < 3*time.Millisecond || mean > 8*time.Millisecond {
			t.Fatalf("%s: mean latency %v, want ~5ms", l, mean)
		}
	}
}

func TestFig11ThresholdAndDetection(t *testing.T) {
	res, err := RunFig11(36, 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alerts) == 0 {
		t.Fatal("no LLI alerts for the fabricated link")
	}
	if !res.FabricatedBlocked {
		t.Fatal("fabricated link not blocked")
	}
	// Threshold converges after bootstrap: late unflagged points carry
	// thresholds comfortably above real-link latency and below the
	// fabricated-link latency (~21ms).
	var lateThresholds []time.Duration
	for _, p := range res.Points {
		if p.At > time.Minute && p.Threshold > 0 && !p.Flagged {
			lateThresholds = append(lateThresholds, p.Threshold)
		}
	}
	if len(lateThresholds) == 0 {
		t.Fatal("no post-bootstrap threshold observations")
	}
	for _, th := range lateThresholds {
		if th < 5*time.Millisecond || th > 21*time.Millisecond {
			t.Fatalf("converged threshold %v outside (5ms, 21ms)", th)
		}
	}
	// Fabricated-link points measure the OOB path (~5ms + 10ms OOB +
	// ~5ms), and every one taken after the attack starts is flagged.
	// Real-link flags are the IQR fence firing on micro-burst tails
	// (~10-12ms), a known false-positive source: they are counted and
	// must stay below the OOB floor.
	fab, rev := FabricatedLinkFig9(), FabricatedLinkFig9().Reverse()
	fabPoints, realFlags := 0, 0
	for _, p := range res.Points {
		switch {
		case p.Link == fab || p.Link == rev:
			fabPoints++
			if p.Latency < 15*time.Millisecond {
				t.Fatalf("fabricated-link latency %v too small for the OOB path", p.Latency)
			}
			if p.At > time.Minute && !p.Flagged {
				t.Fatalf("fabricated-link point at %v not flagged", p.At)
			}
		case p.Flagged:
			realFlags++
			if p.Latency >= 15*time.Millisecond {
				t.Fatalf("real link %v flagged at OOB-scale latency %v", p.Link, p.Latency)
			}
		}
	}
	if fabPoints == 0 {
		t.Fatal("no fabricated-link points")
	}
	t.Logf("%d fabricated-link points flagged, %d real-link flags (burst tails)", fabPoints, realFlags)
}

func TestFig12CMMAlerts(t *testing.T) {
	alerts, err := RunFig12(37, 90*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) == 0 {
		t.Fatal("in-band attack raised no CMM alerts")
	}
}

func TestInBandLatencyPenalty(t *testing.T) {
	res, err := RunInBandLatency(38, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.CyclesA+res.CyclesB == 0 {
		t.Fatal("no amnesia cycles recorded")
	}
	// Section V-A: the in-band relay adds at least the 16ms link-pulse
	// interval per context switch on top of the tunnel path.
	if res.Fabricated.Mean() < res.RealTrunk.Mean()+16*time.Millisecond {
		t.Fatalf("fabricated %v vs real %v: missing the context-switch penalty",
			res.Fabricated.Mean(), res.RealTrunk.Mean())
	}
}

func TestScanDetectionSweep(t *testing.T) {
	rows, err := RunScanDetection(39, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		switch {
		case r.Probe == "TCP SYN" && r.RatePerSec > 2:
			if !r.Detected {
				t.Fatalf("SYN at %.1f/s undetected", r.RatePerSec)
			}
		case r.Probe == "TCP SYN" && r.RatePerSec < 2:
			if r.Detected {
				t.Fatalf("SYN at %.1f/s detected (threshold is >2/s)", r.RatePerSec)
			}
		case r.Probe == "TCP SYN":
			// Exactly at the 2/s boundary, arrival jitter decides; either
			// outcome is consistent with "detected above 2 scans/second".
		case r.Probe == "ARP ping":
			if r.Detected {
				t.Fatalf("ARP at %.1f/s detected; no ruleset covers ARP", r.RatePerSec)
			}
			if r.Scans < 300 {
				t.Fatalf("ARP scan count = %d, want ~400 over 20s at 20/s", r.Scans)
			}
		}
	}
}

func TestProbeTimeoutDerivationNumbers(t *testing.T) {
	d := RunProbeTimeoutDerivation(40)
	if d.DerivedTimeout < 30*time.Millisecond || d.DerivedTimeout > 34*time.Millisecond {
		t.Fatalf("derived timeout = %v", d.DerivedTimeout)
	}
	if d.FPRAtDerived > 0.015 {
		t.Fatalf("FPR at derived = %v", d.FPRAtDerived)
	}
	if d.FPRAtPaperChoice > d.FPRAtDerived {
		t.Fatal("35ms must be at least as safe as the derived quantile")
	}
}

func TestAlertFloodExperiment(t *testing.T) {
	res, err := RunAlertFlood(41, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.AlertsPerSec < 10 {
		t.Fatalf("alerts/sec = %.1f", res.AlertsPerSec)
	}
	if res.BindingsMoved != 0 {
		t.Fatalf("flood moved %d bindings; alerts must not change state", res.BindingsMoved)
	}
}

func TestAttackMatrixHeadlineResult(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rows, err := RunAttackMatrix(42)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]MatrixRow{}
	for _, r := range rows {
		byName[r.Attack] = r
	}
	check := func(attackName string, tg, spx, tgp, full Verdict) {
		t.Helper()
		r, ok := byName[attackName]
		if !ok {
			t.Fatalf("missing row %q", attackName)
		}
		if r.VsTopoGuard != tg || r.VsSphinx != spx || r.VsTGPlus != tgp || r.VsFullStack != full {
			t.Fatalf("%s: got (%s, %s, %s, %s), want (%s, %s, %s, %s)",
				attackName, r.VsTopoGuard, r.VsSphinx, r.VsTGPlus, r.VsFullStack, tg, spx, tgp, full)
		}
	}
	// The full stack adds only the volumetric monitor on top of
	// TOPOGUARD+, so the topology-tampering columns match — and it is
	// the only stack that stops the floods, which tamper with nothing
	// the topology-integrity defenses watch.
	check("naive link fabrication (LLDP relay)", Blocked, Undetected, Blocked, Blocked)
	check("OOB port amnesia + link fabrication", Undetected, Undetected, Blocked, Blocked)
	check("in-band port amnesia + link fabrication", Undetected, Undetected, Blocked, Blocked)
	check("naive host hijack (victim online)", Blocked, Detected, Blocked, Blocked)
	check("port probing + host hijack (victim in transit)", Undetected, Undetected, Undetected, Undetected)
	check("distributed SYN flood (spoofed sources)", Undetected, Undetected, Undetected, Blocked)
	check("distributed link saturation (UDP)", Undetected, Undetected, Undetected, Blocked)
}

func TestScenarioTopologies(t *testing.T) {
	cases := []struct {
		name     string
		build    func() *Scenario
		switches int
		hosts    []string
	}{
		{"fig1", func() *Scenario { return NewFig1Scenario(1, NoDefenses()) }, 2,
			[]string{HostAttackerA, HostAttackerB, HostClient, HostServer}},
		{"fig2", func() *Scenario { return NewFig2Scenario(1, NoDefenses()) }, 2,
			[]string{HostVictim, HostAttackerA, HostClient}},
		{"fig9", func() *Scenario { return NewFig9Testbed(1, NoDefenses()) }, 4,
			[]string{HostAttackerA, HostAttackerB, HostClient, HostServer}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.build()
			defer s.Close()
			if err := s.Run(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			if got := len(s.Controller().Switches()); got != c.switches {
				t.Fatalf("switches = %d, want %d", got, c.switches)
			}
			for _, h := range c.hosts {
				if s.Net.Host(h) == nil {
					t.Fatalf("missing host %q", h)
				}
			}
		})
	}
}

func TestFig9EndToEndConnectivity(t *testing.T) {
	s := NewFig9Testbed(2, TopoGuardPlus())
	defer s.Close()
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	client := s.Net.Host(HostClient)
	server := s.Net.Host(HostServer)
	var ok bool
	client.ARPPing(server.IP(), 2*time.Second, func(r dataplane.ProbeResult) { ok = r.Alive })
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("client cannot reach server across three trunks")
	}
	// Three trunks, both directions each.
	if got := len(s.Controller().Links()); got != 6 {
		t.Fatalf("links = %d, want 6", got)
	}
	path, found := s.Controller().PathBetweenHosts(client.MAC(), server.MAC())
	if !found || len(path) != 4 {
		t.Fatalf("path = %v", path)
	}
	_ = controller.PortRef{}
}
