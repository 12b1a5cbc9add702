package controller

import (
	"fmt"
	"sort"
	"time"

	"sdntamper/internal/lldp"
	"sdntamper/internal/obs/trace"
	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// pendingProbe is one outstanding LLDP emission: when the probe left,
// and the trace span that recorded it leaving. The span rides the same
// one-emission-one-receipt lifecycle as the departure timestamp, so a
// probe's forensic timeline is anchored to ITS emission, never a later
// one's.
type pendingProbe struct {
	at   time.Time
	span uint64
}

// sortedPortsInto returns a port map's keys in ascending order, backed
// by the controller's reusable scratch slice: the discovery sweep and
// flood-plan rebuilds iterate switch ports, and a fresh slice per
// switch per round was measurable churn at fat-tree scale. The returned
// slice is valid until the next call; callers must not retain it across
// another port iteration (the kernel is single-threaded, so there is no
// concurrent caller).
func (c *Controller) sortedPortsInto(ports map[uint32]openflow.PortDesc) []uint32 {
	out := c.portScratch[:0]
	for no := range ports {
		out = append(out, no)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	c.portScratch = out
	return out
}

// emitLLDP constructs, optionally stamps and signs, and emits one LLDP
// probe out of the given port.
func (c *Controller) emitLLDP(dpid uint64, port uint32) {
	frame := c.BuildLLDP(dpid, port)
	origin := PortRef{DPID: dpid, Port: port}
	c.m.lldpSent.Inc()
	tr := c.tracer
	var rootID, prev uint64
	if tr != nil {
		// The emission is the ROOT of the probe's causal chain: the
		// PacketOut, every dataplane hop, the return Packet-In and the
		// defense verdicts all descend from it. Current context is saved
		// and restored so successive probes in one discovery round do not
		// chain to each other.
		c.traceSeq++
		rootID = trace.MixID(uint64(trace.KindControl), traceSiteLLDPEmit, dpid, uint64(port), c.traceSeq)
		now := tr.Now()
		tr.Emit(trace.Span{
			ID:    rootID,
			Start: now, End: now,
			Kind: trace.KindControl, Name: "lldp.emit",
			Entity: dpid, Port: port,
		})
		prev = tr.Current()
		tr.SetCurrent(rootID)
	}
	c.pendingLLDP[origin] = pendingProbe{at: c.kernel.Now(), span: rootID}
	ev := &LLDPSendEvent{Origin: origin, SentAt: c.kernel.Now()}
	for _, o := range c.lldpObservers {
		o.ObserveLLDPSend(ev)
	}
	c.lldpBuf = packet.AppendEthernetHeader(c.lldpBuf[:0], lldp.MulticastMAC, switchPortMAC(dpid, port), packet.EtherTypeLLDP)
	c.lldpBuf = frame.AppendTo(c.lldpBuf)
	c.m.discProbes.Inc()
	c.m.discBytes.Add(uint64(len(c.lldpBuf)))
	c.sendPacketOut(dpid, openflow.PortNone, []openflow.Action{openflow.Output(port)}, c.lldpBuf)
	if tr != nil {
		tr.SetCurrent(prev)
	}
}

// BuildLLDP constructs the LLDP frame the controller would emit for the
// given origin, including timestamp and signature TLVs per configuration.
// Exposed so benchmarks can measure construction cost (Table II).
func (c *Controller) BuildLLDP(dpid uint64, port uint32) *lldp.Frame {
	frame := &lldp.Frame{ChassisID: dpid, PortID: port, TTLSecs: lldpTTLSecs}
	if c.keychain != nil {
		if c.stampLLDP {
			frame.Timestamp = c.keychain.SealTimestamp(c.kernel.Now())
		}
		c.keychain.Sign(frame)
	}
	return frame
}

// switchPortMAC synthesizes the source MAC a switch port uses for LLDP.
func switchPortMAC(dpid uint64, port uint32) [6]byte {
	return [6]byte{0x0e, byte(dpid >> 16), byte(dpid >> 8), byte(dpid), byte(port >> 8), byte(port)}
}

// handleLLDPIn processes an LLDP Packet-In: authenticate, reconstruct the
// probe identity, consult link approvers, and update the topology.
func (c *Controller) handleLLDPIn(ev *PacketInEvent) {
	frame := ev.LLDP
	if c.keychain != nil {
		if err := c.keychain.Verify(frame); err != nil {
			c.RaiseAlert("LinkDiscoveryManager", "lldp-auth-failure",
				fmt.Sprintf("unsigned or forged LLDP received on %s", ev.Loc()))
			return
		}
	}
	src := PortRef{DPID: frame.ChassisID, Port: frame.PortID}
	dst := ev.Loc()
	if src == dst {
		return // self-reception artifact
	}
	l := Link{Src: src, Dst: dst}

	pend, pending := c.pendingLLDP[src]
	sentAt := ev.When
	if c.keychain != nil && frame.Timestamp != nil {
		if t, err := c.keychain.OpenTimestamp(frame.Timestamp); err == nil {
			sentAt = t
		}
	} else if pending {
		sentAt = pend.at
	}
	// Consume the pending departure timestamp: one emission legitimizes
	// exactly one receipt. A replayed or delayed copy of this frame must
	// not inherit a later emission's timestamp, which would understate the
	// link latency precisely where the LLI depends on it.
	delete(c.pendingLLDP, src)

	_, exists := c.links[l]
	linkEv := &LinkEvent{
		Link:       l,
		Frame:      frame,
		SentAt:     sentAt,
		ReceivedAt: ev.When,
		IsNew:      !exists,
	}
	if tr := c.tracer; tr != nil {
		// The flight span covers the probe's whole emission-to-receipt
		// interval and parents the verdict spans the approvers are about
		// to emit. It hangs off the Packet-In that returned the probe
		// (whose ancestry holds every traced hop); if the frame arrived
		// outside any traced chain, the recorded emission span anchors it
		// instead.
		parent := tr.Current()
		if parent == 0 {
			parent = pend.span
		}
		c.traceSeq++
		id := trace.MixID(uint64(trace.KindControl), traceSiteLLDPFlight, src.DPID, uint64(src.Port), c.traceSeq)
		tr.Emit(trace.Span{
			ID: id, Parent: parent,
			Start: int64(sentAt.Sub(sim.Epoch)), End: tr.Now(),
			Kind: trace.KindControl, Name: "lldp.flight",
			Entity: src.DPID, Port: src.Port,
			Detail: l.String(),
		})
		tr.SetCurrent(id)
	}
	for _, a := range c.linkApprovers {
		if !a.ApproveLink(linkEv) {
			return
		}
	}
	c.m.lldpRTT.Observe(linkEv.ReceivedAt.Sub(linkEv.SentAt))
	if linkEv.IsNew {
		c.logf("link discovered: %s", l)
		c.m.linksAdded.Inc()
		if tr := c.tracer; tr != nil {
			c.instant(tr, traceSiteLinkAdded, trace.KindControl, "link.added", l.Src, l.String())
		}
		c.linkBorn[l] = ev.When
		// A refresh only bumps the last-seen time; only a genuinely new
		// link changes the forwarding views.
		c.invalidateTopo()
	}
	c.links[l] = ev.When
	for _, o := range c.linkObservers {
		o.ObserveLink(linkEv)
	}
	c.discovery.linkSeen(linkEv)
}

// sweepLinks evicts links that have not been re-verified within the
// profile's link timeout (Table III: timeout exceeds the probe interval by
// 2-3x so isolated missed probes do not flap the topology). It also ages
// out pending LLDP departure timestamps whose probes never came back, so
// a long-delayed frame cannot resurrect a stale emission time.
func (c *Controller) sweepLinks() {
	now := c.kernel.Now()
	c.removeLinksMatching(func(l Link) bool {
		return now.Sub(c.links[l]) >= c.profile.LinkTimeout
	}, "timeout")
	for ref, pend := range c.pendingLLDP {
		if now.Sub(pend.at) >= c.profile.LinkTimeout {
			delete(c.pendingLLDP, ref)
		}
	}
	c.ageDeadSwitchHosts(now)
}
