package controller

import (
	"testing"
	"time"

	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// These white-box tests cover controller internals the integration suite
// exercises only incidentally: parallel-link tie-breaking, host table
// bookkeeping, and waiter cleanup.

func newBareController(t *testing.T) (*Controller, *sim.Kernel) {
	t.Helper()
	k := sim.New()
	c := New(k)
	t.Cleanup(c.Shutdown)
	return c, k
}

func TestEgressPortPrefersOldestParallelLink(t *testing.T) {
	c, k := newBareController(t)
	old := Link{Src: PortRef{DPID: 1, Port: 9}, Dst: PortRef{DPID: 2, Port: 9}}
	young := Link{Src: PortRef{DPID: 1, Port: 1}, Dst: PortRef{DPID: 2, Port: 1}}
	c.links[old] = k.Now()
	c.linkBorn[old] = k.Now()
	k.RunFor(10 * time.Second) // within the link timeout: the sweep keeps it
	c.links[old] = k.Now()     // refreshed by a new LLDP round
	c.links[young] = k.Now()
	c.linkBorn[young] = k.Now()
	// The younger link has the lower port number; age must still win.
	got, ok := c.egressPort(1, 2)
	if !ok || got != 9 {
		t.Fatalf("egress = %d ok=%v, want the older link's port 9", got, ok)
	}
}

func TestEgressPortTieBreaksByPortNumber(t *testing.T) {
	c, k := newBareController(t)
	a := Link{Src: PortRef{DPID: 1, Port: 5}, Dst: PortRef{DPID: 2, Port: 5}}
	b := Link{Src: PortRef{DPID: 1, Port: 3}, Dst: PortRef{DPID: 2, Port: 3}}
	now := k.Now()
	c.links[a], c.linkBorn[a] = now, now
	c.links[b], c.linkBorn[b] = now, now
	got, ok := c.egressPort(1, 2)
	if !ok || got != 3 {
		t.Fatalf("egress = %d ok=%v, want lowest port on equal age", got, ok)
	}
}

func TestShortestPathSameSwitch(t *testing.T) {
	c, _ := newBareController(t)
	path, ok := c.shortestPath(7, 7)
	if !ok || len(path) != 1 || path[0] != 7 {
		t.Fatalf("path = %v ok=%v", path, ok)
	}
}

func TestShortestPathDisconnected(t *testing.T) {
	c, _ := newBareController(t)
	if _, ok := c.shortestPath(1, 2); ok {
		t.Fatal("path found in empty topology")
	}
}

func TestShortestPathMultiHopPicksShortest(t *testing.T) {
	c, k := newBareController(t)
	now := k.Now()
	add := func(a, b uint64) {
		l := Link{Src: PortRef{DPID: a, Port: uint32(10*a + b)}, Dst: PortRef{DPID: b, Port: uint32(10*b + a)}}
		c.links[l], c.linkBorn[l] = now, now
	}
	// Line 1-2-3-4 plus a shortcut 1-4.
	add(1, 2)
	add(2, 3)
	add(3, 4)
	add(1, 4)
	path, ok := c.shortestPath(1, 4)
	if !ok || len(path) != 2 {
		t.Fatalf("path = %v, want the 1-4 shortcut", path)
	}
}

func TestForgetHost(t *testing.T) {
	c, k := newBareController(t)
	mac := packet.MustMAC("aa:aa:aa:aa:aa:aa")
	c.hosts[mac] = &HostEntry{MAC: mac, Loc: PortRef{DPID: 1, Port: 1}, LastSeen: k.Now()}
	c.ForgetHost(mac)
	if _, ok := c.HostByMAC(mac); ok {
		t.Fatal("host not forgotten")
	}
	c.ForgetHost(mac) // idempotent
}

func TestRestoreHostLocationUnknownMAC(t *testing.T) {
	c, _ := newBareController(t)
	// Must not create phantom entries.
	c.RestoreHostLocation(packet.MustMAC("aa:aa:aa:aa:aa:aa"), PortRef{DPID: 1, Port: 1})
	if len(c.Hosts()) != 0 {
		t.Fatal("restore created a phantom host")
	}
}

func TestResolveStatsUnknownXIDIgnored(t *testing.T) {
	c, _ := newBareController(t)
	c.resolveStats(999, &openflow.StatsReply{Kind: openflow.StatsFlow})
	// No panic, no state: pass.
}

func TestResolveEchoUnknownXIDIgnored(t *testing.T) {
	c, _ := newBareController(t)
	c.resolveEcho(12345)
}

func TestProbeHostUnknownSwitch(t *testing.T) {
	c, _ := newBareController(t)
	called := false
	c.ProbeHost(PortRef{DPID: 9, Port: 1}, packet.MustMAC("aa:aa:aa:aa:aa:aa"),
		packet.MustIPv4("10.0.0.1"), time.Second, func(alive bool) {
			called = true
			if alive {
				t.Error("unknown switch reported reachable host")
			}
		})
	if !called {
		t.Fatal("callback not invoked")
	}
}

// floodFrame is a broadcast Packet-In whose bytes encode id, so distinct
// ids are distinct flood-cache keys.
func floodFrame(k *sim.Kernel, loc PortRef, id uint64) *PacketInEvent {
	data := make([]byte, 8)
	for i := range data {
		data[i] = byte(id >> (8 * i))
	}
	return &PacketInEvent{
		DPID: loc.DPID, InPort: loc.Port,
		Eth:  &packet.Ethernet{Dst: packet.BroadcastMAC, Type: packet.EtherTypeARP},
		Data: data,
		When: k.Now(),
	}
}

// floodCacheEntries lists every entry either flood-cache generation holds.
func floodCacheEntries(c *Controller) []floodEntry {
	var out []floodEntry
	for _, gen := range []map[uint64]floodEntry{c.recentFloods.cur, c.recentFloods.prev} {
		for _, e := range gen {
			out = append(out, e)
		}
	}
	return out
}

func TestFloodCachePruning(t *testing.T) {
	c, k := newBareController(t)
	in := PortRef{DPID: 1, Port: 1}
	// Fill the cache through the flood path, then let every entry go
	// stale: two windows on, neither generation may still hold one.
	for i := uint64(0); i < 5000; i++ {
		c.flood(floodFrame(k, in, i))
	}
	k.RunFor(2*floodCacheWindow + floodCacheWindow/2)
	c.flood(floodFrame(k, in, 1<<40))
	entries := floodCacheEntries(c)
	if len(entries) != 1 {
		t.Fatalf("flood cache holds %d entries after two windows, want only the fresh one", len(entries))
	}
	for _, e := range entries {
		if k.Now().Sub(e.at) >= floodCacheWindow {
			t.Fatalf("stale entry from %v survived", e.at)
		}
	}
	// A frame flooded late in one generation stays visible after the
	// next flood turns the generations over: less than one window on,
	// it re-entering at another port is still echo.
	k.RunFor(floodCacheWindow * 3 / 4)
	c.flood(floodFrame(k, in, 1<<41))
	k.RunFor(floodCacheWindow / 2)
	c.flood(floodFrame(k, in, 1<<42))
	if _, inPrev := c.recentFloods.prev[floodKey(floodFrame(k, in, 1<<41).Data)]; !inPrev {
		t.Fatal("flood did not turn the generations over")
	}
	echo := floodFrame(k, PortRef{DPID: 2, Port: 3}, 1<<41)
	if !c.isRecentFlood(echo) {
		t.Fatal("frame flooded under a window ago not recognized re-entering at another port")
	}
	if c.isRecentFlood(floodFrame(k, in, 1<<41)) {
		t.Fatal("frame re-sent from its own ingress port suppressed")
	}
	k.RunFor(floodCacheWindow / 2)
	if c.isRecentFlood(echo) {
		t.Fatal("frame flooded over a window ago still suppressed")
	}
}

func TestAlertsByReasonAndSnapshotIsolation(t *testing.T) {
	c, _ := newBareController(t)
	c.RaiseAlert("m", "reason-a", "x")
	c.RaiseAlert("m", "reason-b", "y")
	c.RaiseAlert("m", "reason-a", "z")
	if got := len(c.AlertsByReason("reason-a")); got != 2 {
		t.Fatalf("reason-a alerts = %d", got)
	}
	snap := c.Alerts()
	snap[0].Reason = "mutated"
	if c.Alerts()[0].Reason != "reason-a" {
		t.Fatal("alert snapshot aliases internal state")
	}
}

func TestPathBetweenHostsUnknown(t *testing.T) {
	c, _ := newBareController(t)
	if _, ok := c.PathBetweenHosts(packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustMAC("bb:bb:bb:bb:bb:bb")); ok {
		t.Fatal("path for unknown hosts")
	}
}

func TestHandlePortStatusUpKeepsLinks(t *testing.T) {
	c, k := newBareController(t)
	l := Link{Src: PortRef{DPID: 1, Port: 3}, Dst: PortRef{DPID: 2, Port: 3}}
	c.links[l], c.linkBorn[l] = k.Now(), k.Now()
	c.handlePortStatus(1, &openflow.PortStatus{
		Reason: openflow.PortReasonModify,
		Desc:   openflow.PortDesc{No: 3, Up: true},
	})
	if !c.HasLink(l) {
		t.Fatal("Port-Up removed a link")
	}
	c.handlePortStatus(1, &openflow.PortStatus{
		Reason: openflow.PortReasonModify,
		Desc:   openflow.PortDesc{No: 3, Up: false},
	})
	if c.HasLink(l) {
		t.Fatal("Port-Down did not remove the touching link")
	}
}

func TestIsControllerMAC(t *testing.T) {
	if !isControllerMAC(ControllerMAC) {
		t.Fatal("controller MAC not recognized")
	}
	if isControllerMAC(packet.MustMAC("aa:aa:aa:aa:aa:aa")) {
		t.Fatal("host MAC misrecognized as controller")
	}
}
