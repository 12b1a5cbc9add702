package dataplane

import (
	"math"
	"time"

	"sdntamper/internal/link"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// DefaultIdentityChange models the time ifconfig takes to bring an
// interface down and back up with new MAC and IP addresses. The paper
// measures a heavy-tailed distribution with mean 9.94 ms and a tail
// reaching ~160 ms (Figure 4); this mixture reproduces that shape.
func DefaultIdentityChange() sim.Sampler {
	return sim.Mixture{
		Components: []sim.Sampler{
			sim.Normal{Mean: 8300 * time.Microsecond, Std: 1200 * time.Microsecond, Min: 4 * time.Millisecond},
			sim.LogNormal{Mu: math.Log(0.018), Sigma: 0.7, Shift: 12 * time.Millisecond},
		},
		Weights: []float64{0.93, 0.07},
	}
}

// DefaultDownUp models a bare ifconfig down/up cycle without address
// changes, measured at 3.25 ms on average in Section V-A.
func DefaultDownUp() sim.Sampler {
	return sim.Normal{Mean: 3250 * time.Microsecond, Std: 400 * time.Microsecond, Min: time.Millisecond}
}

// ProbeResult is the outcome of a liveness probe primitive.
type ProbeResult struct {
	// Alive reports whether the target answered before the timeout.
	Alive bool
	// RTT is the observed round-trip time when Alive.
	RTT time.Duration
	// MAC is the responder's hardware address (ARP probes only).
	MAC packet.MAC
	// IPID is the responder's IP identification counter value (TCP probes
	// only); the idle-scan side channel reads it.
	IPID uint16
}

type pingWaiter struct {
	sent    time.Time
	timeout sim.Event
	cb      func(ProbeResult)
}

// Host is a simulated end host with one NIC. It answers ARP, ICMP echo
// and TCP SYN traffic the way a stock Linux host does, and exposes the
// interface-manipulation primitives (ifconfig down/up, identity change)
// the paper's attacks are scripted from.
type Host struct {
	kernel *sim.Kernel
	name   string
	mac    packet.MAC
	ip     packet.IPv4Addr
	ep     *link.Endpoint
	up     bool

	// RespondToPing mirrors a host firewall's ICMP policy (Table I notes
	// ICMP is commonly blocked).
	RespondToPing bool
	openTCP       map[uint16]bool

	identityChange sim.Sampler
	downUp         sim.Sampler

	// OnFrame, when set, sees every received frame first; returning true
	// consumes the frame. Attack automata use it to capture LLDP.
	OnFrame func(eth *packet.Ethernet, raw []byte) bool
	// OnDeliver, when set, receives frames addressed to this host that
	// the built-in responders did not consume.
	OnDeliver func(eth *packet.Ethernet)
	// Promiscuous delivers frames regardless of destination MAC.
	Promiscuous bool

	rxFrames uint64
	txFrames uint64

	// txBuf is the transmit scratch buffer: locally originated frames are
	// built into it layer by layer (Ethernet header, IPv4 header, L4
	// payload, IPv4 backpatch) with no intermediate per-layer buffers.
	// Safe because link.Link.Send copies at ingress.
	txBuf []byte

	ipid        uint16
	pingID      uint16
	pingSeq     uint16
	pingWaiters map[uint32]*pingWaiter
	arpWaiters  map[packet.IPv4Addr][]*pingWaiter
	tcpPort     uint16
	tcpWaiters  map[uint64]*pingWaiter
}

// HostOption configures a Host.
type HostOption func(*Host)

// WithOpenTCPPorts marks TCP ports that answer SYN with SYN-ACK.
func WithOpenTCPPorts(ports ...uint16) HostOption {
	return func(h *Host) {
		for _, p := range ports {
			h.openTCP[p] = true
		}
	}
}

// NewHost creates a host with the given identity, attached to end of l.
func NewHost(kernel *sim.Kernel, name string, mac packet.MAC, ip packet.IPv4Addr, l *link.Link, end link.End, opts ...HostOption) *Host {
	h := &Host{
		kernel:         kernel,
		name:           name,
		mac:            mac,
		ip:             ip,
		up:             true,
		RespondToPing:  true,
		openTCP:        make(map[uint16]bool),
		identityChange: DefaultIdentityChange(),
		downUp:         DefaultDownUp(),
		pingID:         1,
		tcpPort:        40000,
		pingWaiters:    make(map[uint32]*pingWaiter),
		arpWaiters:     make(map[packet.IPv4Addr][]*pingWaiter),
		tcpWaiters:     make(map[uint64]*pingWaiter),
	}
	for _, opt := range opts {
		opt(h)
	}
	h.ep = link.NewEndpoint(l, end, h)
	return h
}

var _ link.Attachment = (*Host)(nil)

// Name reports the host's human-readable name.
func (h *Host) Name() string { return h.name }

// MAC reports the current hardware address.
func (h *Host) MAC() packet.MAC { return h.mac }

// IP reports the current IPv4 address.
func (h *Host) IP() packet.IPv4Addr { return h.ip }

// Kernel exposes the simulation kernel the host is scheduled on, so
// traffic generators can pace flow arrivals on the host's own shard.
func (h *Host) Kernel() *sim.Kernel { return h.kernel }

// Up reports whether the interface is administratively up.
func (h *Host) Up() bool { return h.up }

// RxFrames reports frames received while up.
func (h *Host) RxFrames() uint64 { return h.rxFrames }

// TxFrames reports frames transmitted.
func (h *Host) TxFrames() uint64 { return h.txFrames }

// Send transmits an Ethernet frame if the interface is up.
func (h *Host) Send(e *packet.Ethernet) {
	h.txBuf = e.AppendTo(h.txBuf[:0])
	h.SendRaw(h.txBuf)
}

// beginFrame starts a frame in the transmit scratch buffer.
func (h *Host) beginFrame(dst, src packet.MAC, typ packet.EtherType) {
	h.txBuf = packet.AppendEthernetHeader(h.txBuf[:0], dst, src, typ)
}

// sendIPv4 appends an IPv4 packet around the given payload appender and
// transmits the scratch frame started by beginFrame.
func (h *Host) sendIPv4(ip *packet.IPv4, appendPayload func([]byte) []byte) {
	ipStart := len(h.txBuf)
	h.txBuf = ip.AppendHeaderTo(h.txBuf)
	h.txBuf = appendPayload(h.txBuf)
	packet.FinishIPv4(h.txBuf, ipStart)
	h.SendRaw(h.txBuf)
}

// SendRaw transmits raw frame bytes if the interface is up. Attacks use
// it to re-inject captured LLDP bytes unmodified.
func (h *Host) SendRaw(data []byte) {
	if !h.up {
		return
	}
	h.txFrames++
	h.ep.Send(data)
}

// CarrierChange implements link.Attachment. Hosts ignore peer carrier.
func (h *Host) CarrierChange(bool) {}

// ReceiveFrame implements link.Attachment.
func (h *Host) ReceiveFrame(data []byte) {
	if !h.up {
		return
	}
	h.rxFrames++
	eth, err := packet.UnmarshalEthernet(data)
	if err != nil {
		return
	}
	if h.OnFrame != nil && h.OnFrame(eth, data) {
		return
	}
	if !h.Promiscuous && eth.Dst != h.mac && !eth.Dst.IsBroadcast() {
		return
	}
	switch eth.Type {
	case packet.EtherTypeARP:
		h.handleARP(eth)
	case packet.EtherTypeIPv4:
		h.handleIPv4(eth)
	default:
		if h.OnDeliver != nil {
			h.OnDeliver(eth)
		}
	}
}

func (h *Host) handleARP(eth *packet.Ethernet) {
	arp, err := packet.UnmarshalARP(eth.Payload)
	if err != nil {
		return
	}
	switch arp.Op {
	case packet.ARPRequest:
		if arp.TargetIP == h.ip {
			h.beginFrame(arp.SenderHW, h.mac, packet.EtherTypeARP)
			reply := packet.ARP{Op: packet.ARPReply, SenderHW: h.mac, SenderIP: h.ip, TargetHW: arp.SenderHW, TargetIP: arp.SenderIP}
			h.txBuf = reply.AppendTo(h.txBuf)
			h.SendRaw(h.txBuf)
		}
	case packet.ARPReply:
		waiters := h.arpWaiters[arp.SenderIP]
		delete(h.arpWaiters, arp.SenderIP)
		for _, w := range waiters {
			w.timeout.Cancel()
			w.cb(ProbeResult{Alive: true, RTT: h.kernel.Now().Sub(w.sent), MAC: arp.SenderHW})
		}
	}
	if h.OnDeliver != nil {
		h.OnDeliver(eth)
	}
}

func (h *Host) handleIPv4(eth *packet.Ethernet) {
	ip, err := packet.UnmarshalIPv4(eth.Payload)
	if err != nil {
		return
	}
	if ip.Dst != h.ip && !h.Promiscuous {
		return
	}
	switch ip.Protocol {
	case packet.ProtoICMP:
		h.handleICMP(eth, ip)
	case packet.ProtoTCP:
		h.handleTCP(eth, ip)
	default:
		if h.OnDeliver != nil {
			h.OnDeliver(eth)
		}
	}
}

func (h *Host) handleICMP(eth *packet.Ethernet, ip *packet.IPv4) {
	m, err := packet.UnmarshalICMP(ip.Payload)
	if err != nil {
		return
	}
	switch m.Type {
	case packet.ICMPEchoRequest:
		if h.RespondToPing {
			h.sendICMPEcho(eth.Src, ip.Src, m.ID, m.Seq, true)
		}
	case packet.ICMPEchoReply:
		key := uint32(m.ID)<<16 | uint32(m.Seq)
		if w, ok := h.pingWaiters[key]; ok {
			delete(h.pingWaiters, key)
			w.timeout.Cancel()
			w.cb(ProbeResult{Alive: true, RTT: h.kernel.Now().Sub(w.sent)})
		}
	}
	if h.OnDeliver != nil {
		h.OnDeliver(eth)
	}
}

func (h *Host) handleTCP(eth *packet.Ethernet, ip *packet.IPv4) {
	seg, err := packet.UnmarshalTCP(ip.Payload)
	if err != nil {
		return
	}
	switch {
	case seg.Flags.Has(packet.TCPSyn) && !seg.Flags.Has(packet.TCPAck):
		// Inbound connection attempt: SYN-ACK if open, RST if closed. The
		// reply carries this host's shared IP-ID counter, the side channel
		// TCP idle scans read.
		reply := packet.TCPRst | packet.TCPAck
		if h.openTCP[seg.DstPort] {
			reply = packet.TCPSyn | packet.TCPAck
		}
		h.sendTCP(eth.Src, ip.Src, seg.DstPort, seg.SrcPort, reply, 0, seg.Seq+1)
	case seg.Flags.Has(packet.TCPSyn | packet.TCPAck), seg.Flags.Has(packet.TCPRst):
		// Response to one of our probes: either proves the host is alive.
		key := tcpKey(ip.Src, seg.SrcPort, seg.DstPort)
		if w, ok := h.tcpWaiters[key]; ok {
			delete(h.tcpWaiters, key)
			w.timeout.Cancel()
			w.cb(ProbeResult{Alive: true, RTT: h.kernel.Now().Sub(w.sent), IPID: ip.ID})
		} else if seg.Flags.Has(packet.TCPSyn | packet.TCPAck) {
			// Unsolicited SYN-ACK: answer RST, as real stacks do. The RST
			// bumps the shared IP-ID counter — the increment a TCP idle
			// scan's zombie leaks to the scanner.
			h.sendTCP(eth.Src, ip.Src, seg.DstPort, seg.SrcPort, packet.TCPRst, seg.Ack, 0)
		}
	}
	if h.OnDeliver != nil {
		h.OnDeliver(eth)
	}
}

// sendTCP emits a TCP segment stamped with the host's shared IP-ID
// counter, which increments on every TCP send as in common IP stacks.
func (h *Host) sendTCP(dstHW packet.MAC, dstIP packet.IPv4Addr, srcPort, dstPort uint16, flags packet.TCPFlags, seq, ack uint32) {
	h.ipid++
	seg := packet.TCP{SrcPort: srcPort, DstPort: dstPort, Seq: seq, Ack: ack, Flags: flags, Window: 65535}
	h.sendTCPFrame(h.mac, dstHW, h.ip, dstIP, h.ipid, &seg)
}

// sendTCPFrame builds an Ethernet/IPv4/TCP frame in the transmit scratch
// buffer and sends it.
func (h *Host) sendTCPFrame(srcHW, dstHW packet.MAC, srcIP, dstIP packet.IPv4Addr, ipid uint16, seg *packet.TCP) {
	h.beginFrame(dstHW, srcHW, packet.EtherTypeIPv4)
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, ID: ipid, Src: srcIP, Dst: dstIP}
	h.sendIPv4(&ip, seg.AppendTo)
}

// sendICMPEcho builds and sends an ICMP echo request or reply.
func (h *Host) sendICMPEcho(dstHW packet.MAC, dstIP packet.IPv4Addr, id, seq uint16, reply bool) {
	t := packet.ICMPEchoRequest
	if reply {
		t = packet.ICMPEchoReply
	}
	h.beginFrame(dstHW, h.mac, packet.EtherTypeIPv4)
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: h.ip, Dst: dstIP}
	m := packet.ICMP{Type: t, ID: id, Seq: seq}
	h.sendIPv4(&ip, m.AppendTo)
}

func tcpKey(ip packet.IPv4Addr, peerPort, localPort uint16) uint64 {
	return uint64(ip[0])<<56 | uint64(ip[1])<<48 | uint64(ip[2])<<40 | uint64(ip[3])<<32 |
		uint64(peerPort)<<16 | uint64(localPort)
}

// Ping sends an ICMP echo request and reports the outcome via cb: alive
// with RTT on reply, not alive after timeout.
func (h *Host) Ping(dstHW packet.MAC, dstIP packet.IPv4Addr, timeout time.Duration, cb func(ProbeResult)) {
	h.pingSeq++
	id, seq := h.pingID, h.pingSeq
	key := uint32(id)<<16 | uint32(seq)
	w := &pingWaiter{sent: h.kernel.Now(), cb: cb}
	w.timeout = h.kernel.Schedule(timeout, func() {
		delete(h.pingWaiters, key)
		cb(ProbeResult{})
	})
	h.pingWaiters[key] = w
	h.sendICMPEcho(dstHW, dstIP, id, seq, false)
}

// ARPPing broadcasts an ARP request for dstIP and reports via cb whether
// a reply arrived before the timeout.
func (h *Host) ARPPing(dstIP packet.IPv4Addr, timeout time.Duration, cb func(ProbeResult)) {
	w := &pingWaiter{sent: h.kernel.Now(), cb: cb}
	w.timeout = h.kernel.Schedule(timeout, func() {
		waiters := h.arpWaiters[dstIP]
		for i, cand := range waiters {
			if cand == w {
				h.arpWaiters[dstIP] = append(waiters[:i], waiters[i+1:]...)
				break
			}
		}
		cb(ProbeResult{})
	})
	h.arpWaiters[dstIP] = append(h.arpWaiters[dstIP], w)
	h.beginFrame(packet.BroadcastMAC, h.mac, packet.EtherTypeARP)
	req := packet.ARP{Op: packet.ARPRequest, SenderHW: h.mac, SenderIP: h.ip, TargetIP: dstIP}
	h.txBuf = req.AppendTo(h.txBuf)
	h.SendRaw(h.txBuf)
}

// TCPSYNProbe sends a SYN to dstPort and reports alive if either SYN-ACK
// or RST returns before the timeout (both prove the host is up).
func (h *Host) TCPSYNProbe(dstHW packet.MAC, dstIP packet.IPv4Addr, dstPort uint16, timeout time.Duration, cb func(ProbeResult)) {
	h.tcpPort++
	local := h.tcpPort
	key := tcpKey(dstIP, dstPort, local)
	w := &pingWaiter{sent: h.kernel.Now(), cb: cb}
	w.timeout = h.kernel.Schedule(timeout, func() {
		delete(h.tcpWaiters, key)
		cb(ProbeResult{})
	})
	h.tcpWaiters[key] = w
	seg := packet.TCP{SrcPort: local, DstPort: dstPort, Seq: 1, Flags: packet.TCPSyn, Window: 65535}
	h.sendTCPFrame(h.mac, dstHW, h.ip, dstIP, 0, &seg)
}

// SendSpoofedSYN emits a TCP SYN whose source identity (MAC and IP) is
// forged, the trick TCP idle scans use to make a zombie appear to be the
// scanner.
func (h *Host) SendSpoofedSYN(srcHW packet.MAC, srcIP packet.IPv4Addr, dstHW packet.MAC, dstIP packet.IPv4Addr, srcPort, dstPort uint16) {
	seg := packet.TCP{SrcPort: srcPort, DstPort: dstPort, Seq: 1, Flags: packet.TCPSyn, Window: 65535}
	h.sendTCPFrame(srcHW, dstHW, srcIP, dstIP, 0, &seg)
}

// SendUDP originates a small UDP datagram; any dataplane packet suffices
// to trigger a Packet-In and update the controller's host tracking.
func (h *Host) SendUDP(dstHW packet.MAC, dstIP packet.IPv4Addr, srcPort, dstPort uint16, payload []byte) {
	h.beginFrame(dstHW, h.mac, packet.EtherTypeIPv4)
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: h.ip, Dst: dstIP}
	u := packet.UDP{SrcPort: srcPort, DstPort: dstPort, Payload: payload}
	h.sendIPv4(&ip, u.AppendTo)
}

// InterfaceDown administratively disables the NIC and drops carrier.
func (h *Host) InterfaceDown() {
	if !h.up {
		return
	}
	h.up = false
	h.ep.SetCarrier(false)
}

// InterfaceUp re-enables the NIC and restores carrier.
func (h *Host) InterfaceUp() {
	if h.up {
		return
	}
	h.up = true
	h.ep.SetCarrier(true)
}

// CycleInterface brings the interface down, holds it down for hold, then
// brings it back up and invokes done. This is the port amnesia primitive:
// with hold at or above the link-pulse interval the switch emits
// Port-Down and Port-Up, resetting TopoGuard's port profile.
func (h *Host) CycleInterface(hold time.Duration, done func()) {
	h.InterfaceDown()
	h.kernel.Schedule(hold, func() {
		h.InterfaceUp()
		if done != nil {
			done()
		}
	})
}

// ChangeIdentity models "ifconfig hw ether ... / ifconfig ... netmask ..."
// as measured in Figure 4: the interface drops for a sampled duration,
// comes back with the new identity, then done runs. The sampled durations
// are usually below the link-pulse interval, so no Port-Status is
// generated — which is what lets the hijacker slip in silently.
func (h *Host) ChangeIdentity(mac packet.MAC, ip packet.IPv4Addr, done func(took time.Duration)) {
	took := h.identityChange.Sample(h.kernel.Rand())
	h.InterfaceDown()
	h.kernel.Schedule(took, func() {
		h.mac = mac
		h.ip = ip
		h.InterfaceUp()
		if done != nil {
			done(took)
		}
	})
}

// DownUpDuration samples the bare interface down/up cycle cost (3.25 ms
// mean), exposed for attack code that scripts its own cycles.
func (h *Host) DownUpDuration() time.Duration {
	return h.downUp.Sample(h.kernel.Rand())
}
