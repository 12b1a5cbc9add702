package core

import (
	"fmt"
	"testing"
	"time"

	"sdntamper/internal/dataplane"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// buildRing assembles a ring of n switches (a cyclic topology: the
// broadcast-storm worst case) with one host per switch.
func buildRing(t *testing.T, n int, def Defenses) *Scenario {
	t.Helper()
	s := newScenario(13, def)
	t.Cleanup(s.Close)
	for dpid := uint64(1); dpid <= uint64(n); dpid++ {
		s.Net.AddSwitch(dpid, nil)
	}
	for dpid := uint64(1); dpid <= uint64(n); dpid++ {
		next := dpid%uint64(n) + 1
		s.Net.AddTrunk(dpid, 3, next, 4, sim.Const(2*time.Millisecond))
	}
	for dpid := uint64(1); dpid <= uint64(n); dpid++ {
		s.Net.AddHost(fmt.Sprintf("h%d", dpid),
			fmt.Sprintf("aa:aa:aa:aa:aa:%02x", dpid),
			fmt.Sprintf("10.0.1.%d", dpid),
			dpid, 1, sim.Const(time.Millisecond))
	}
	s.deploy()
	return s
}

func TestRingTopologyDiscovery(t *testing.T) {
	const n = 10
	s := buildRing(t, n, TopoGuardPlus())
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// n trunk segments, both directions each.
	if got := len(s.Controller().Links()); got != 2*n {
		t.Fatalf("links = %d, want %d", got, 2*n)
	}
}

func TestRingBroadcastNoStorm(t *testing.T) {
	const n = 10
	s := buildRing(t, n, TopoGuardPlus())
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	before := s.Net.ControlKernel().Executed()
	rxBefore := make(map[string]uint64, n)
	for dpid := 1; dpid <= n; dpid++ {
		name := fmt.Sprintf("h%d", dpid)
		rxBefore[name] = s.Net.Host(name).RxFrames()
	}
	// One broadcast into a cyclic topology: naive dataplane flooding
	// would circulate forever; controller-managed access-port flooding
	// delivers exactly one copy per host and terminates. (Hosts also
	// receive periodic LLDP probes, hence the per-host deltas.)
	s.Net.Host("h1").SendUDP(packet.BroadcastMAC, packet.MustIPv4("10.0.1.255"), 1, 2, []byte("anyone"))
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	delta := s.Net.ControlKernel().Executed() - before
	if delta > 2000 {
		t.Fatalf("broadcast cost %d events: storming", delta)
	}
	for dpid := 2; dpid <= n; dpid++ {
		name := fmt.Sprintf("h%d", dpid)
		if got := s.Net.Host(name).RxFrames() - rxBefore[name]; got != 1 {
			t.Fatalf("%s received %d copies, want exactly 1", name, got)
		}
	}
	if got := s.Net.Host("h1").RxFrames() - rxBefore["h1"]; got != 0 {
		t.Fatalf("broadcast echoed to its origin (%d frames)", got)
	}
}

func TestRingCrossPing(t *testing.T) {
	const n = 10
	s := buildRing(t, n, TopoGuardPlus())
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	h1 := s.Net.Host("h1")
	h6 := s.Net.Host("h6") // diametrically opposite: 5 hops either way
	var arpOK, pingOK bool
	h1.ARPPing(h6.IP(), time.Second, func(r dataplane.ProbeResult) { arpOK = r.Alive })
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !arpOK {
		t.Fatal("ARP across the ring failed")
	}
	h1.Ping(h6.MAC(), h6.IP(), time.Second, func(r dataplane.ProbeResult) { pingOK = r.Alive })
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !pingOK {
		t.Fatal("ping across the ring failed")
	}
	path, ok := s.Controller().PathBetweenHosts(h1.MAC(), h6.MAC())
	if !ok || len(path) != 6 {
		t.Fatalf("path = %v, want 6 switches (5 hops)", path)
	}
	// No defense alerts on a healthy ring.
	if alerts := s.Controller().Alerts(); len(alerts) != 0 {
		t.Fatalf("healthy ring alerted: %v", alerts)
	}
}

func TestRingScalesTo40Switches(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	const n = 40
	s := buildRing(t, n, TopoGuardPlus())
	if err := s.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Controller().Links()); got != 2*n {
		t.Fatalf("links = %d, want %d", got, 2*n)
	}
	h1 := s.Net.Host("h1")
	far := s.Net.Host("h21")
	var ok bool
	h1.ARPPing(far.IP(), 2*time.Second, func(r dataplane.ProbeResult) { ok = r.Alive })
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("20-hop ARP failed")
	}
}
