package probe_test

import (
	"errors"
	"testing"
	"time"

	"sdntamper/internal/core"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/probe"
	"sdntamper/internal/sim"
	"sdntamper/internal/stats"
)

// rig builds the Figure 2 network (victim with port 80 open, attacker,
// client usable as idle-scan zombie) with TopoGuard deployed; probes run
// from the attacker host.
func rig(t *testing.T, seed int64) (*core.Scenario, *dataplane.Host, *dataplane.Host, *dataplane.Host) {
	t.Helper()
	s := core.NewFig2Scenario(seed, core.TopoGuardOnly())
	t.Cleanup(s.Close)
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	attacker := s.Net.Host(core.HostAttackerA)
	victim := s.Net.Host(core.HostVictim)
	zombie := s.Net.Host(core.HostClient)
	// Seed bindings.
	ok := false
	attacker.ARPPing(victim.IP(), time.Second, func(r dataplane.ProbeResult) { ok = r.Alive })
	zombie.ARPPing(victim.IP(), time.Second, func(dataplane.ProbeResult) {})
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("baseline ARP failed")
	}
	return s, attacker, victim, zombie
}

func target(v *dataplane.Host, port uint16) probe.Target {
	return probe.Target{MAC: v.MAC(), IP: v.IP(), Port: port}
}

func TestSpecsMatchTableI(t *testing.T) {
	specs := probe.Specs()
	if len(specs) != 4 {
		t.Fatalf("specs = %d rows", len(specs))
	}
	wantStealth := map[probe.Type]string{
		probe.ICMPPing:    "Low",
		probe.TCPSYN:      "Medium",
		probe.ARPPing:     "High",
		probe.TCPIdleScan: "Very High",
	}
	wantMean := map[probe.Type]time.Duration{
		probe.ICMPPing:    910 * time.Microsecond,
		probe.TCPSYN:      492300 * time.Microsecond,
		probe.ARPPing:     133500 * time.Microsecond,
		probe.TCPIdleScan: 1800 * time.Microsecond,
	}
	for _, spec := range specs {
		if spec.Stealth != wantStealth[spec.Type] {
			t.Fatalf("%s stealth = %q", spec.Type, spec.Stealth)
		}
		n, ok := spec.Overhead.(sim.Normal)
		if !ok {
			t.Fatalf("%s overhead not normal", spec.Type)
		}
		if n.Mean != wantMean[spec.Type] {
			t.Fatalf("%s overhead mean = %v, want %v", spec.Type, n.Mean, wantMean[spec.Type])
		}
	}
}

func TestICMPProbeAliveAndDead(t *testing.T) {
	s, attacker, victim, _ := rig(t, 21)
	p := probe.New(s.Net.ControlKernel(), attacker, probe.ICMPPing)
	var alive probe.Result
	if err := p.Probe(target(victim, 0), 200*time.Millisecond, func(r probe.Result) { alive = r }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !alive.Alive || alive.RTT <= 0 {
		t.Fatalf("icmp probe = %+v", alive)
	}
	if alive.Total < alive.ToolTime {
		t.Fatalf("total %v < tool %v", alive.Total, alive.ToolTime)
	}

	victim.InterfaceDown()
	var dead probe.Result
	if err := p.Probe(target(victim, 0), 100*time.Millisecond, func(r probe.Result) { dead = r }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if dead.Alive {
		t.Fatal("downed victim reported alive")
	}
}

func TestICMPProbeBlockedByFirewallFalseNegative(t *testing.T) {
	// Table I notes ICMP is commonly blocked: a firewalled host looks
	// offline to ICMP while ARP still finds it.
	s, attacker, victim, _ := rig(t, 22)
	victim.RespondToPing = false
	icmp := probe.New(s.Net.ControlKernel(), attacker, probe.ICMPPing)
	arp := probe.New(s.Net.ControlKernel(), attacker, probe.ARPPing)
	var viaICMP, viaARP probe.Result
	if err := icmp.Probe(target(victim, 0), 100*time.Millisecond, func(r probe.Result) { viaICMP = r }); err != nil {
		t.Fatal(err)
	}
	if err := arp.Probe(target(victim, 0), 300*time.Millisecond, func(r probe.Result) { viaARP = r }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if viaICMP.Alive {
		t.Fatal("ICMP pierced the firewall")
	}
	if !viaARP.Alive {
		t.Fatal("ARP should still see the host")
	}
}

func TestTCPSYNProbeClosedPortStillAlive(t *testing.T) {
	s, attacker, victim, _ := rig(t, 23)
	p := probe.New(s.Net.ControlKernel(), attacker, probe.TCPSYN)
	var open, closed probe.Result
	if err := p.Probe(target(victim, 80), 200*time.Millisecond, func(r probe.Result) { open = r }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.Probe(target(victim, 8080), 200*time.Millisecond, func(r probe.Result) { closed = r }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !open.Alive || !closed.Alive {
		t.Fatalf("open=%+v closed=%+v: both must prove liveness", open, closed)
	}
	// TCP SYN is the slow option: tool time dominates (Table I: ~492 ms).
	if open.ToolTime < 480*time.Millisecond {
		t.Fatalf("TCP SYN tool time = %v, want ~492ms", open.ToolTime)
	}
}

func TestARPProbe(t *testing.T) {
	s, attacker, victim, _ := rig(t, 24)
	p := probe.New(s.Net.ControlKernel(), attacker, probe.ARPPing)
	var r probe.Result
	if err := p.Probe(target(victim, 0), 200*time.Millisecond, func(got probe.Result) { r = got }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !r.Alive {
		t.Fatal("ARP probe failed")
	}
	if r.ToolTime < 120*time.Millisecond || r.ToolTime > 145*time.Millisecond {
		t.Fatalf("ARP tool time = %v, want ~133.5ms", r.ToolTime)
	}
}

func TestIdleScanRequiresZombie(t *testing.T) {
	s, attacker, victim, _ := rig(t, 25)
	p := probe.New(s.Net.ControlKernel(), attacker, probe.TCPIdleScan)
	err := p.Probe(target(victim, 80), 100*time.Millisecond, func(probe.Result) {})
	if !errors.Is(err, probe.ErrNeedZombie) {
		t.Fatalf("err = %v, want ErrNeedZombie", err)
	}
}

func TestIdleScanDetectsLiveTarget(t *testing.T) {
	s, attacker, victim, zombie := rig(t, 26)
	p := probe.New(s.Net.ControlKernel(), attacker, probe.TCPIdleScan,
		probe.WithZombie(probe.Zombie{MAC: zombie.MAC(), IP: zombie.IP(), Port: 9999}))
	var r probe.Result
	if err := p.Probe(target(victim, 80), 300*time.Millisecond, func(got probe.Result) { r = got }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !r.Alive {
		t.Fatal("idle scan missed live target with open port")
	}
}

func TestIdleScanDetectsDeadTarget(t *testing.T) {
	s, attacker, victim, zombie := rig(t, 27)
	victim.InterfaceDown()
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	p := probe.New(s.Net.ControlKernel(), attacker, probe.TCPIdleScan,
		probe.WithZombie(probe.Zombie{MAC: zombie.MAC(), IP: zombie.IP(), Port: 9999}))
	var r probe.Result
	done := false
	if err := p.Probe(target(victim, 80), 300*time.Millisecond, func(got probe.Result) { r = got; done = true }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("idle scan never resolved")
	}
	if r.Alive {
		t.Fatal("idle scan reported a dead target alive")
	}
}

func TestDeriveTimeoutMatchesPaper(t *testing.T) {
	// N(20ms, 5ms) at 1% FPR: the paper computes ~31.6ms and rounds to 35.
	got := probe.DeriveTimeout(probe.PaperRTTModel(), 0.01, 50000, 7)
	if got < 30*time.Millisecond || got > 34*time.Millisecond {
		t.Fatalf("derived timeout = %v, want ~31.6ms", got)
	}
	if probe.PaperTimeout < got {
		t.Fatal("paper's 35ms must be at or above the derived quantile")
	}
}

func TestFalsePositiveRateAtPaperTimeout(t *testing.T) {
	fpr := probe.FalsePositiveRate(probe.PaperRTTModel(), probe.PaperTimeout, 100000, 8)
	if fpr > 0.01 {
		t.Fatalf("FPR at 35ms = %v, want <= 1%%", fpr)
	}
	if fpr == 0 {
		t.Fatal("FPR should be small but non-zero for a normal tail")
	}
}

func TestDeriveTimeoutClampsFPR(t *testing.T) {
	a := probe.DeriveTimeout(probe.PaperRTTModel(), -1, 10000, 7)
	b := probe.DeriveTimeout(probe.PaperRTTModel(), 0.01, 10000, 7)
	if a != b {
		t.Fatalf("FPR clamp failed: %v vs %v", a, b)
	}
}

func TestProbeOverheadDistributions(t *testing.T) {
	// Regenerating the Timing column: 1000 draws per probe type must land
	// on Table I's mean +/- std.
	k := sim.New(sim.WithSeed(30))
	want := map[probe.Type]struct{ mean, std time.Duration }{
		probe.ICMPPing:    {910 * time.Microsecond, 40 * time.Microsecond},
		probe.TCPSYN:      {492300 * time.Microsecond, 1400 * time.Microsecond},
		probe.ARPPing:     {133500 * time.Microsecond, 1600 * time.Microsecond},
		probe.TCPIdleScan: {1800 * time.Microsecond, 100 * time.Microsecond},
	}
	for typ, w := range want {
		var series stats.DurationSeries
		spec := probe.SpecFor(typ)
		for i := 0; i < 1000; i++ {
			series.Add(spec.Overhead.Sample(k.Rand()))
		}
		mean := series.Mean()
		if mean < w.mean-w.mean/10 || mean > w.mean+w.mean/10 {
			t.Fatalf("%s mean = %v, want ~%v", typ, mean, w.mean)
		}
		std := series.Std()
		if std > 2*w.std+time.Millisecond {
			t.Fatalf("%s std = %v, want ~%v", typ, std, w.std)
		}
	}
}

func TestUnknownTypeSpec(t *testing.T) {
	spec := probe.SpecFor(probe.Type(99))
	if spec.Stealth != "unknown" {
		t.Fatalf("spec = %+v", spec)
	}
	if probe.Type(99).String() != "unknown" {
		t.Fatal("unknown type name")
	}
}

func TestUnknownProbeTypeResolvesDead(t *testing.T) {
	s, attacker, victim, _ := rig(t, 28)
	p := probe.New(s.Net.ControlKernel(), attacker, probe.Type(42), probe.WithOverhead(sim.Const(0)))
	var done, alive bool
	if err := p.Probe(target(victim, 0), 50*time.Millisecond, func(r probe.Result) { done, alive = true, r.Alive }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !done || alive {
		t.Fatalf("unknown probe type: done=%v alive=%v", done, alive)
	}
}

func TestIdleScanZombieUnreachableInconclusive(t *testing.T) {
	s, attacker, victim, zombie := rig(t, 29)
	zombie.InterfaceDown()
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	p := probe.New(s.Net.ControlKernel(), attacker, probe.TCPIdleScan,
		probe.WithZombie(probe.Zombie{MAC: zombie.MAC(), IP: zombie.IP(), Port: 9}))
	var done, alive bool
	if err := p.Probe(target(victim, 80), 100*time.Millisecond, func(r probe.Result) { done, alive = true, r.Alive }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("scan never resolved")
	}
	if alive {
		t.Fatal("dead zombie produced a liveness verdict")
	}
}

func TestProbeSpecAccessor(t *testing.T) {
	s, attacker, _, _ := rig(t, 30)
	p := probe.New(s.Net.ControlKernel(), attacker, probe.ARPPing)
	if p.Spec().Type != probe.ARPPing || p.Spec().Stealth != "High" {
		t.Fatalf("spec = %+v", p.Spec())
	}
}
