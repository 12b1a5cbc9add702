package controller

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sdntamper/internal/lldp"
	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// Regression and invalidation tests for the forwarding hot-path caches
// (paths, egress ports, the link-port set and the flood plan) and the
// discovery bookkeeping fixes (missing egress port, pending-LLDP
// consumption and aging).

func TestEgressPortMissingLinkReportsNotFound(t *testing.T) {
	c, _ := newBareController(t)
	// Regression: this used to return the Link zero value's port 0, and
	// installPath would program flows toward the nonexistent port.
	if p, ok := c.egressPort(1, 2); ok {
		t.Fatalf("egress = (%d, true) for a nonexistent link", p)
	}
	// The miss is memoized too; ask again to exercise the cached answer.
	if _, ok := c.egressPort(1, 2); ok {
		t.Fatal("cached egress miss reported found")
	}
}

func TestInstallPathAbortsOnMissingEgress(t *testing.T) {
	c, k := newBareController(t)
	l := Link{Src: PortRef{DPID: 1, Port: 2}, Dst: PortRef{DPID: 2, Port: 1}}
	c.links[l], c.linkBorn[l] = k.Now(), k.Now()
	// Hop 2->3 has no link: nothing at all may be installed.
	if c.installPath([]uint64{1, 2, 3}, 7, packet.MustMAC("aa:aa:aa:aa:aa:aa")) {
		t.Fatal("installPath reported success across a missing hop")
	}
	if n := len(c.FlowModLog()); n != 0 {
		t.Fatalf("half-programmed path: %d FlowMods installed", n)
	}
}

// sentAtRecorder captures the SentAt of every accepted link update.
type sentAtRecorder struct {
	sentAt []time.Time
}

func (r *sentAtRecorder) ModuleName() string { return "test/sent-at-recorder" }

func (r *sentAtRecorder) ObserveLink(ev *LinkEvent) { r.sentAt = append(r.sentAt, ev.SentAt) }

func TestLLDPReplayDoesNotInheritDepartureTimestamp(t *testing.T) {
	c, k := newBareController(t)
	rec := &sentAtRecorder{}
	c.Register(rec)

	src := PortRef{DPID: 1, Port: 2}
	emittedAt := k.Now()
	c.pendingLLDP[src] = pendingProbe{at: emittedAt}
	if err := k.RunFor(40 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	frame := &lldp.Frame{ChassisID: 1, PortID: 2, TTLSecs: 120}
	first := &PacketInEvent{DPID: 2, InPort: 3, IsLLDP: true, LLDP: frame, When: k.Now()}
	c.handleLLDPIn(first)
	if len(rec.sentAt) != 1 || !rec.sentAt[0].Equal(emittedAt) {
		t.Fatalf("first receipt SentAt = %v, want emission time %v", rec.sentAt, emittedAt)
	}
	if _, ok := c.pendingLLDP[src]; ok {
		t.Fatal("pending departure timestamp not consumed on receipt")
	}

	// An attacker replays the captured frame 100ms later. Before the fix
	// the stale pending entry made the link look 100ms *younger* than it
	// is, understating latency exactly where the LLI relies on it.
	if err := k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	replay := &PacketInEvent{DPID: 2, InPort: 3, IsLLDP: true, LLDP: frame, When: k.Now()}
	c.handleLLDPIn(replay)
	if len(rec.sentAt) != 2 {
		t.Fatalf("link updates = %d, want 2", len(rec.sentAt))
	}
	if rec.sentAt[1].Equal(emittedAt) {
		t.Fatal("replay inherited the consumed departure timestamp")
	}
	if !rec.sentAt[1].Equal(replay.When) {
		t.Fatalf("replay SentAt = %v, want receive-time fallback %v", rec.sentAt[1], replay.When)
	}
}

func TestSweepAgesOutStalePendingLLDP(t *testing.T) {
	c, k := newBareController(t)
	c.pendingLLDP[PortRef{DPID: 1, Port: 2}] = pendingProbe{at: k.Now()}
	// The probe never returns; the periodic sweep must reclaim the entry
	// once it exceeds the profile's link timeout.
	if err := k.RunFor(c.profile.LinkTimeout + 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := len(c.pendingLLDP); n != 0 {
		t.Fatalf("stale pending LLDP entries = %d, want 0", n)
	}
}

func TestShortestPathCacheSeesLinkAddAndRemove(t *testing.T) {
	c, k := newBareController(t)
	now := k.Now()
	add := func(a, b uint64) Link {
		l := Link{Src: PortRef{DPID: a, Port: uint32(10*a + b)}, Dst: PortRef{DPID: b, Port: uint32(10*b + a)}}
		c.links[l], c.linkBorn[l] = now, now
		c.invalidateTopo()
		return l
	}
	add(1, 2)
	mid := add(2, 3)
	if path, ok := c.shortestPath(1, 3); !ok || len(path) != 3 {
		t.Fatalf("path = %v ok=%v", path, ok)
	}
	// Repeat queries hit the memo and must agree.
	if path, ok := c.shortestPath(1, 3); !ok || len(path) != 3 {
		t.Fatalf("cached path = %v ok=%v", path, ok)
	}
	// A new shortcut must displace the memoized 3-hop answer.
	add(1, 3)
	if path, ok := c.shortestPath(1, 3); !ok || len(path) != 2 {
		t.Fatalf("path after shortcut = %v ok=%v", path, ok)
	}
	// Removing links through the API must invalidate as well.
	c.RemoveLink(Link{Src: PortRef{DPID: 1, Port: 13}, Dst: PortRef{DPID: 3, Port: 31}})
	c.RemoveLink(mid)
	if path, ok := c.shortestPath(1, 3); ok {
		t.Fatalf("path = %v across removed links", path)
	}
}

func TestEgressCacheInvalidatedByPortDown(t *testing.T) {
	c, k := newBareController(t)
	l := Link{Src: PortRef{DPID: 1, Port: 4}, Dst: PortRef{DPID: 2, Port: 5}}
	c.links[l], c.linkBorn[l] = k.Now(), k.Now()
	if p, ok := c.egressPort(1, 2); !ok || p != 4 {
		t.Fatalf("egress = (%d, %v), want (4, true)", p, ok)
	}
	c.handlePortStatus(1, &openflow.PortStatus{
		Reason: openflow.PortReasonModify,
		Desc:   openflow.PortDesc{No: 4, Up: false},
	})
	if p, ok := c.egressPort(1, 2); ok {
		t.Fatalf("egress = (%d, true) after the port went down", p)
	}
}

// floodTap records the output ports of every Packet-Out sent to one
// switch.
type floodTap struct{ outs [][]uint32 }

// tapSwitch connects a switch with the given up ports whose transmit
// function feeds a floodTap. The tap starts empty: the probes discovery
// sends on connect are discarded.
func tapSwitch(c *Controller, dpid uint64, ports ...uint32) (*Conn, *floodTap) {
	tap := &floodTap{}
	conn := c.Connect(func(b []byte) {
		if _, m, err := openflow.Unmarshal(b); err == nil {
			if po, ok := m.(*openflow.PacketOut); ok {
				var outs []uint32
				for _, a := range po.Actions {
					outs = append(outs, a.Port)
				}
				tap.outs = append(tap.outs, outs)
			}
		}
	})
	descs := make([]openflow.PortDesc, len(ports))
	for i, no := range ports {
		descs[i] = openflow.PortDesc{No: no, Up: true}
	}
	conn.Handle(openflow.Marshal(1, &openflow.FeaturesReply{DatapathID: dpid, Ports: descs}))
	tap.outs = nil
	return conn, tap
}

// floodFrom floods a broadcast frame entering at in and reports what
// each tap received, clearing them for the next flood.
func floodFrom(c *Controller, k *sim.Kernel, in PortRef, taps ...*floodTap) string {
	for _, tap := range taps {
		tap.outs = nil
	}
	c.flood(&PacketInEvent{
		DPID: in.DPID, InPort: in.Port,
		Eth:  &packet.Ethernet{Dst: packet.BroadcastMAC, Type: packet.EtherTypeARP},
		Data: []byte{byte(in.DPID), byte(in.Port)},
		When: k.Now(),
	})
	got := make([]string, len(taps))
	for i, tap := range taps {
		got[i] = fmt.Sprint(tap.outs)
		tap.outs = nil
	}
	return strings.Join(got, " ")
}

func setPort(conn *Conn, no uint32, up bool) {
	conn.Handle(openflow.Marshal(1, &openflow.PortStatus{
		Reason: openflow.PortReasonModify,
		Desc:   openflow.PortDesc{No: no, Up: up},
	}))
}

func TestFloodPlanFollowsPortAndLinkChanges(t *testing.T) {
	c, k := newBareController(t)
	conn1, tap1 := tapSwitch(c, 1, 1, 2, 3)
	_, tap2 := tapSwitch(c, 2, 1, 2)
	outside := PortRef{DPID: 9, Port: 1}
	check := func(in PortRef, want string) {
		t.Helper()
		if got := floodFrom(c, k, in, tap1, tap2); got != want {
			t.Fatalf("flood from %v reached %s, want %s", in, got, want)
		}
	}
	check(outside, "[[1 2 3]] [[1 2]]")
	check(PortRef{DPID: 1, Port: 2}, "[[1 3]] [[1 2]]")

	// A port that goes down stops receiving floods; back up, it resumes.
	setPort(conn1, 2, false)
	check(outside, "[[1 3]] [[1 2]]")
	setPort(conn1, 2, true)
	check(outside, "[[1 2 3]] [[1 2]]")

	// A port that becomes a link endpoint stops receiving floods, on
	// both sides of the link, until the link leaves the topology.
	l := Link{Src: PortRef{DPID: 1, Port: 3}, Dst: PortRef{DPID: 2, Port: 1}}
	c.ImportLink(l, k.Now())
	check(outside, "[[1 2]] [[2]]")
	c.ImportLinkRemoval(l)
	check(outside, "[[1 2 3]] [[1 2]]")
}

func TestFloodPlanSkipsDisconnectedSwitch(t *testing.T) {
	c, k := newBareController(t)
	_, tap1 := tapSwitch(c, 1, 1)
	_, tap2 := tapSwitch(c, 2, 1, 2)
	outside := PortRef{DPID: 9, Port: 1}
	if got := floodFrom(c, k, outside, tap1, tap2); got != "[[1]] [[1 2]]" {
		t.Fatalf("flood reached %s", got)
	}
	c.Disconnect(2)
	if got := floodFrom(c, k, outside, tap1, tap2); got != "[[1]] []" {
		t.Fatalf("flood after disconnect reached %s, want switch 2 skipped", got)
	}
	_, again := tapSwitch(c, 2, 1, 2)
	if got := floodFrom(c, k, outside, tap1, tap2, again); got != "[[1]] [] [[1 2]]" {
		t.Fatalf("flood after reconnect reached %s, want the new connection flooded", got)
	}
}

func TestLinkPortsSnapshotSurvivesLinkChanges(t *testing.T) {
	c, k := newBareController(t)
	a := Link{Src: PortRef{DPID: 1, Port: 1}, Dst: PortRef{DPID: 2, Port: 1}}
	b := Link{Src: PortRef{DPID: 2, Port: 2}, Dst: PortRef{DPID: 3, Port: 1}}
	c.ImportLink(a, k.Now())
	before := c.LinkPorts()
	c.ImportLink(b, k.Now())
	if len(before) != 2 || before[b.Src] {
		t.Fatalf("link-port set captured before a link add changed: %v", before)
	}
	if now := c.LinkPorts(); len(now) != 4 || !now[b.Src] || !now[b.Dst] {
		t.Fatalf("link-port set after the add = %v", now)
	}
	mid := c.LinkPorts()
	c.RemoveLink(a)
	if len(mid) != 4 || !mid[a.Src] || !mid[a.Dst] {
		t.Fatalf("link-port set captured before a link removal changed: %v", mid)
	}
	if now := c.LinkPorts(); len(now) != 2 || now[a.Src] || now[a.Dst] {
		t.Fatalf("link-port set after the removal = %v", now)
	}
}
