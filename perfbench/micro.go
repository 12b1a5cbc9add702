package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/controllertest"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/link"
	"sdntamper/internal/netsim"
	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
	"sdntamper/internal/tgplus"
	"sdntamper/internal/traffic"
)

// Micro-benchmarks time one layer through its public functions, outside
// any scenario. Each runs a fixed operation count three times and keeps
// the median, so every host does the same work.
const microRepeats = 3

// perOp runs op n times per repeat and returns the median ns/op and
// heap allocations/op.
func perOp(n int, op func(i int)) (ns, allocs float64) {
	var nss, als []float64
	var m0, m1 runtime.MemStats
	for r := 0; r < microRepeats; r++ {
		runtime.ReadMemStats(&m0)
		t := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		el := time.Since(t)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(el)/float64(n))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(nss), median(als)
}

type microResult struct {
	name  string
	unit  string
	value float64
}

// runMicros runs every micro-benchmark, each under its own span.
func runMicros(log *spanLog, parent uint64) ([]microResult, error) {
	var out []microResult
	add := func(name, unit string, v float64) { out = append(out, microResult{name, unit, v}) }
	steps := []struct {
		name string
		fn   func() error
	}{
		{"sim.step", func() error {
			add("sim.step_ns.d1e3", "ns", scheduleStep(1_000))
			add("sim.step_ns.d1e5", "ns", scheduleStep(100_000))
			return nil
		}},
		{"link.deliver", func() error {
			ns, allocs := linkDeliver(64)
			add("link.deliver_ns.64B", "ns", ns)
			add("link.deliver_allocs", "count", allocs)
			ns, _ = linkDeliver(1500)
			add("link.deliver_ns.1500B", "ns", ns)
			return nil
		}},
		{"dataplane.flow_lookup", func() error {
			ns, err := flowLookup()
			add("dataplane.flow_lookup_ns", "ns", ns)
			return err
		}},
		{"packet.frame_build", func() error {
			add("packet.frame_build_ns.54B", "ns", frameBuild(false))
			add("packet.frame_build_ns.1442B", "ns", frameBuild(true))
			return nil
		}},
		{"openflow.packetin_codec", func() error {
			ns, err := packetInCodec()
			add("openflow.packetin_codec_ns", "ns", ns)
			return err
		}},
		{"controller.packetin", func() error {
			known, spoofed := controllerPacketIn()
			add("controller.packetin_ns.known", "ns", known)
			add("controller.packetin_ns.spoofed", "ns", spoofed)
			return nil
		}},
		{"tgplus.lli_approve", func() error {
			ns, err := lliApprove()
			add("tgplus.lli_approve_ns", "ns", ns)
			return err
		}},
		{"traffic.burst", func() error {
			ns, err := trafficBurst()
			add("traffic.pkt_ns", "ns", ns)
			return err
		}},
	}
	for _, s := range steps {
		span := log.begin("bench.micro."+s.name, parent)
		runtime.GC()
		if err := s.fn(); err != nil {
			return nil, fmt.Errorf("micro-benchmark %s: %w", s.name, err)
		}
		log.end(span)
	}
	return out, nil
}

func nop() {}

// scheduleStep times Kernel.Schedule plus Step with the queue held at
// the given depth: every step fires one event and schedules another at a
// random offset within the queue's span.
func scheduleStep(depth int) float64 {
	const n = 200_000
	k := sim.New(sim.WithEventLimit(^uint64(0)))
	rng := rand.New(rand.NewSource(1))
	span := int64(depth) * int64(time.Microsecond)
	for i := 0; i < depth; i++ {
		k.Schedule(time.Duration(rng.Int63n(span)), nop)
	}
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Int63n(span))
	}
	ns, _ := perOp(n, func(i int) {
		k.Schedule(delays[i], nop)
		k.Step()
	})
	return ns
}

var (
	microMACA = packet.MustMAC("02:00:00:00:00:0a")
	microMACB = packet.MustMAC("02:00:00:00:00:0b")
	microIPA  = packet.MustIPv4("10.0.0.10")
	microIPB  = packet.MustIPv4("10.0.0.11")
)

// udpFrame builds an Ethernet/IPv4/UDP frame of exactly size bytes.
func udpFrame(buf []byte, size int, payload []byte, dstMAC packet.MAC, dstIP packet.IPv4Addr) []byte {
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, ID: 7, Src: microIPA, Dst: dstIP}
	u := packet.UDP{SrcPort: 20000, DstPort: 9000, Payload: payload[:size-14-20-8]}
	buf = packet.AppendEthernetHeader(buf[:0], dstMAC, microMACA, packet.EtherTypeIPv4)
	ipStart := len(buf)
	buf = ip.AppendHeaderTo(buf)
	buf = u.AppendTo(buf)
	packet.FinishIPv4(buf, ipStart)
	return buf
}

// synFrame builds a 54-byte Ethernet/IPv4/TCP SYN.
func synFrame(buf []byte, src, dst packet.MAC, srcIP packet.IPv4Addr) []byte {
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, ID: 7, Src: srcIP, Dst: microIPB}
	seg := packet.TCP{SrcPort: 40000, DstPort: 80, Seq: 1, Flags: packet.TCPSyn, Window: 65535}
	buf = packet.AppendEthernetHeader(buf[:0], dst, src, packet.EtherTypeIPv4)
	ipStart := len(buf)
	buf = ip.AppendHeaderTo(buf)
	buf = seg.AppendTo(buf)
	packet.FinishIPv4(buf, ipStart)
	return buf
}

// linkDeliver times Link.Send through delivery to a host's receive path.
func linkDeliver(size int) (ns, allocs float64) {
	k := sim.New(sim.WithEventLimit(^uint64(0)))
	l := link.NewLink(k, sim.Const(time.Microsecond))
	h := dataplane.NewHost(k, "h", microMACB, microIPB, l, link.EndB)
	frame := udpFrame(nil, size, make([]byte, size), h.MAC(), h.IP())
	return perOp(100_000, func(int) {
		l.Send(link.EndA, frame)
		k.Step()
	})
}

// flowLookup times FlowTable.Lookup hits on a 64-entry table.
func flowLookup() (float64, error) {
	var tbl dataplane.FlowTable
	fields := make([]openflow.Fields, 64)
	for i := range fields {
		var mac packet.MAC
		mac[0], mac[5] = 0x02, byte(i)
		fields[i] = openflow.Fields{EthDst: mac}
		tbl.Apply(&openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    openflow.Match{Wildcards: openflow.WildAll &^ openflow.WildEthDst, Fields: fields[i]},
			Priority: 10,
			Actions:  []openflow.Action{openflow.Output(1)},
		}, sim.Epoch)
	}
	const n = 200_000
	hits := 0
	ns, _ := perOp(n, func(i int) {
		if tbl.Lookup(fields[i%len(fields)]) != nil {
			hits++
		}
	})
	if hits != microRepeats*n {
		return 0, fmt.Errorf("%d of %d lookups hit", hits, microRepeats*n)
	}
	return ns, nil
}

// frameBuild times building one frame plus its checksums into a reused
// buffer: a 54-byte TCP SYN or a 1442-byte UDP datagram.
func frameBuild(large bool) float64 {
	buf := make([]byte, 0, 1600)
	payload := make([]byte, 1600)
	if large {
		ns, _ := perOp(50_000, func(int) { buf = udpFrame(buf, 1442, payload, microMACB, microIPB) })
		return ns
	}
	ns, _ := perOp(500_000, func(int) { buf = synFrame(buf, microMACA, microMACB, microIPA) })
	return ns
}

// packetInCodec times marshalling a PacketIn carrying a SYN and decoding
// it again.
func packetInCodec() (float64, error) {
	msg := &openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: 1, Data: synFrame(nil, microMACA, microMACB, microIPA)}
	buf := make([]byte, 0, 256)
	var err error
	ns, _ := perOp(500_000, func(i int) {
		buf = openflow.AppendMarshal(buf[:0], uint32(i), msg)
		if _, _, e := openflow.Unmarshal(buf); e != nil {
			err = e
		}
	})
	return ns, err
}

// nopBuilder lets netsim.BuildFatTreeOn record a fat-tree's wiring
// without building a network.
type nopBuilder struct{}

func (nopBuilder) AddSwitch(uint64, sim.Sampler) *dataplane.Switch { return nil }
func (nopBuilder) AddHost(string, string, string, uint64, uint32, sim.Sampler, ...dataplane.HostOption) *dataplane.Host {
	return nil
}
func (nopBuilder) AddTrunk(uint64, uint32, uint64, uint32, sim.Sampler) *link.Link { return nil }

// microTopo is the k=16 fat-tree the controller micro-benchmarks use.
func microTopo() *netsim.FatTreeTopology { return netsim.BuildFatTreeOn(nopBuilder{}, 16, nil, nil) }

// fatTreeHost returns the address and attachment point of host h on
// edge e of pod p, following netsim's fat-tree addressing.
func fatTreeHost(k, p, e, h int) (packet.MAC, packet.IPv4Addr, controller.PortRef) {
	mac := packet.MustMAC(fmt.Sprintf("02:00:%02x:%02x:%02x:01", p, e, h))
	ip := packet.MustIPv4(fmt.Sprintf("10.%d.%d.%d", p, e, 2+h))
	return mac, ip, controller.PortRef{DPID: netsim.FatTreeEdgeDPID(k, p, e), Port: uint32(1 + h)}
}

// controllerPacketIn times Conn.Handle of PacketIns on a controller that
// holds a k=16 fat-tree's 4096 directed links. known: an ICMP echo
// between two tracked hosts, which installs a path. spoofed: a frame
// from a never-seen source to an unknown destination, which is learned
// and flooded, with more than 4096 recent floods in the cache.
func controllerPacketIn() (known, spoofed float64) {
	const k = 16
	topo := microTopo()
	kernel := sim.New(sim.WithEventLimit(^uint64(0)))
	ctl := controller.New(kernel)
	conns := map[uint64]*controller.Conn{}
	connect := func(dpid uint64) {
		conn := ctl.Connect(func([]byte) {})
		fr := &openflow.FeaturesReply{DatapathID: dpid}
		for p := 1; p <= k; p++ {
			fr.Ports = append(fr.Ports, openflow.PortDesc{No: uint32(p), Name: fmt.Sprintf("p%d", p), Up: true})
		}
		conn.Handle(openflow.Marshal(1, fr))
		conns[dpid] = conn
	}
	packetIn := func(loc controller.PortRef, frame []byte) []byte {
		return openflow.Marshal(2, &openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: loc.Port, Data: frame})
	}

	// Spoofed frames: unique source MACs entering edge access ports.
	const prewarm, timed = 4200, 100
	spoofedPacketIn := func(i int, edge uint64) []byte {
		src := packet.MAC{0x0a, 0, byte(i >> 16), byte(i >> 8), byte(i), 1}
		dst := packet.MAC{0x0e, 0, byte(i >> 16), byte(i >> 8), byte(i), 2}
		ip := packet.IPv4Addr{172, byte(i >> 16), byte(i >> 8), byte(i)}
		return packetIn(controller.PortRef{DPID: edge, Port: uint32(1 + i%(k/2))}, synFrame(nil, src, dst, ip))
	}
	// Fill the flood cache while one switch is connected and no link
	// exists: the same cache entries, without paying the full flood and
	// link-port scan on every warm-up frame.
	first := topo.EdgeDPIDs[0]
	connect(first)
	for i := 0; i < prewarm; i++ {
		conns[first].Handle(spoofedPacketIn(i, first))
	}
	for _, dpid := range append(append(append([]uint64(nil), topo.CoreDPIDs...), topo.AggDPIDs...), topo.EdgeDPIDs[1:]...) {
		connect(dpid)
	}
	var spoofMsgs [][]byte
	var spoofConns []*controller.Conn
	for i := prewarm; i < prewarm+microRepeats*timed; i++ {
		edge := topo.EdgeDPIDs[i%len(topo.EdgeDPIDs)]
		spoofMsgs = append(spoofMsgs, spoofedPacketIn(i, edge))
		spoofConns = append(spoofConns, conns[edge])
	}
	now := kernel.Now()
	for _, t := range topo.Trunks {
		a := controller.PortRef{DPID: t.ADPID, Port: t.APort}
		b := controller.PortRef{DPID: t.BDPID, Port: t.BPort}
		ctl.ImportLink(controller.Link{Src: a, Dst: b}, now)
		ctl.ImportLink(controller.Link{Src: b, Dst: a}, now)
	}

	// Known pairs: one host per pod talking across to the opposite pod.
	type pair struct {
		conn *controller.Conn
		msg  []byte
	}
	var pairs []pair
	for p := 0; p < k; p++ {
		for e := 0; e < k/2; e += 2 {
			sm, sip, sloc := fatTreeHost(k, p, e, 0)
			dm, dip, dloc := fatTreeHost(k, (p+k/2)%k, e, 1)
			ctl.ImportHost(controller.HostEntry{MAC: sm, IP: sip, Loc: sloc, FirstSeen: now, LastSeen: now})
			ctl.ImportHost(controller.HostEntry{MAC: dm, IP: dip, Loc: dloc, FirstSeen: now, LastSeen: now})
			frame := packet.NewICMPEcho(sm, dm, sip, dip, 1, 1, false).Marshal()
			pairs = append(pairs, pair{conns[sloc.DPID], packetIn(sloc, frame)})
		}
	}
	for _, pr := range pairs {
		pr.conn.Handle(pr.msg) // resolve every path into the topology cache
	}
	known, _ = perOp(timed, func(i int) {
		pr := pairs[i%len(pairs)]
		pr.conn.Handle(pr.msg)
	})
	next := 0
	spoofed, _ = perOp(timed, func(int) {
		spoofConns[next].Handle(spoofMsgs[next])
		next++
	})
	return known, spoofed
}

// lliApprove times LLI.ApproveLink on a full verified window, through
// the controllertest fake.
func lliApprove() (float64, error) {
	topo := microTopo()
	f := controllertest.New()
	f.SwitchIDs = append(append(append(f.SwitchIDs, topo.CoreDPIDs...), topo.AggDPIDs...), topo.EdgeDPIDs...)
	for _, d := range f.SwitchIDs {
		f.ControlRTTs[d] = 2 * time.Millisecond
	}
	lli := tgplus.NewLLI(tgplus.DefaultLLIConfig())
	lli.Bind(f)
	lli.Start()
	if err := f.Kernel.RunFor(7 * time.Second); err != nil {
		return 0, err
	}
	lli.Stop()

	var links []controller.Link
	for _, t := range topo.Trunks {
		links = append(links, controller.Link{
			Src: controller.PortRef{DPID: t.ADPID, Port: t.APort},
			Dst: controller.PortRef{DPID: t.BDPID, Port: t.BPort},
		})
	}
	rng := rand.New(rand.NewSource(1))
	sent := f.Kernel.Now()
	event := func(i int) *controller.LinkEvent {
		// 1 ms one-way control delay each side plus a 4.8-5.2 ms link.
		lat := 2*time.Millisecond + 4800*time.Microsecond + time.Duration(rng.Int63n(int64(400*time.Microsecond)))
		return &controller.LinkEvent{Link: links[i%len(links)], SentAt: sent, ReceivedAt: sent.Add(lat)}
	}
	for i := 0; i < tgplus.DefaultLLIConfig().WindowSize; i++ {
		lli.ApproveLink(event(i))
	}
	const n = 20_000
	evs := make([]*controller.LinkEvent, n)
	for i := range evs {
		evs[i] = event(i)
	}
	rejected := 0
	ns, _ := perOp(n, func(i int) {
		if !lli.ApproveLink(evs[i]) {
			rejected++
		}
	})
	if rejected > 0 {
		return 0, fmt.Errorf("%d in-range latencies rejected", rejected)
	}
	return ns, nil
}

// trafficBurst times the traffic engine's per-packet cost: flow
// admission, pump events and frame construction. The wire's carrier is
// down, so delivery (timed by link.deliver) is not charged here.
func trafficBurst() (float64, error) {
	const n = 100_000
	k := sim.New(sim.WithEventLimit(^uint64(0)))
	l := link.NewLink(k, sim.Const(time.Microsecond))
	h := dataplane.NewHost(k, "h", microMACA, microIPA, l, link.EndB)
	l.SetCarrier(link.EndA, false)
	g := traffic.NewGenerator(h, microMACB, microIPB, 9, traffic.Profile{PayloadBytes: 1000}, 1, 0)
	var err error
	ns, _ := perOp(1, func(int) {
		g.Burst(n)
		if e := k.Run(); e != nil {
			err = e
		}
	})
	if got := g.Counters().Packets; err == nil && got != microRepeats*n {
		err = fmt.Errorf("drained %d of %d packets", got, microRepeats*n)
	}
	return ns / n, err
}
