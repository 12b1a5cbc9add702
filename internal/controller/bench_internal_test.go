package controller

import (
	"encoding/binary"
	"testing"

	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// White-box benchmarks of the reactive-forwarding hot path: shortest-path
// resolution, egress-port selection, whole Packet-Ins and floods. These
// are the per-PacketIn costs the topology cache amortizes
// (BENCH_pr1.json records the path and egress before/after).

// benchLineTopology wires a bidirectional line of n switches directly into
// the controller's link tables, the way LLDP discovery would.
func benchLineTopology(b *testing.B, n int) (*Controller, *sim.Kernel) {
	b.Helper()
	k := sim.New()
	c := New(k)
	b.Cleanup(c.Shutdown)
	now := k.Now()
	for i := 1; i < n; i++ {
		fwd := Link{
			Src: PortRef{DPID: uint64(i), Port: 2},
			Dst: PortRef{DPID: uint64(i + 1), Port: 1},
		}
		rev := fwd.Reverse()
		c.links[fwd], c.linkBorn[fwd] = now, now
		c.links[rev], c.linkBorn[rev] = now, now
	}
	return c, k
}

func benchShortestPath(b *testing.B, n int) {
	c, _ := benchLineTopology(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, ok := c.shortestPath(1, uint64(n))
		if !ok || len(path) != n {
			b.Fatalf("path = %v ok = %v", path, ok)
		}
	}
}

// benchEgress resolves one egress port, failing the benchmark on a miss.
func benchEgress(b *testing.B, c *Controller, from, to uint64) {
	if _, ok := c.egressPort(from, to); !ok {
		b.Fatal("no egress port")
	}
}

func BenchmarkShortestPathLine8(b *testing.B)  { benchShortestPath(b, 8) }
func BenchmarkShortestPathLine32(b *testing.B) { benchShortestPath(b, 32) }

func BenchmarkEgressPortLine32(b *testing.B) {
	c, _ := benchLineTopology(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEgress(b, c, 16, 17)
	}
}

// benchDiscoveryController builds a controller whose connection table
// mimics a discovered fabric — switches×ports up ports behind no-op
// transmit functions — so one runDiscovery call exercises the full
// per-round sweep (sorted port iteration, LLDP construction, Packet-Out
// marshaling) without any dataplane.
func benchDiscoveryController(b *testing.B, switches, ports int) *Controller {
	b.Helper()
	c := New(sim.New())
	b.Cleanup(c.Shutdown)
	for dpid := uint64(1); dpid <= uint64(switches); dpid++ {
		conn := &Conn{ctl: c, send: func([]byte) {}, dpid: dpid,
			ports: make(map[uint32]openflow.PortDesc, ports)}
		for p := uint32(1); p <= uint32(ports); p++ {
			conn.ports[p] = openflow.PortDesc{No: p, Up: true}
		}
		c.conns[dpid] = conn
	}
	return c
}

// BenchmarkDiscoveryRound measures one full OFDP discovery round at k=4
// fat-tree scale (20 switches × 4 ports). The per-round port slice now
// comes from the controller's reusable scratch buffer; allocs/op records
// what remains (frame and event objects on the emission path), which is
// the regression surface for the sweep's steady-state churn.
func BenchmarkDiscoveryRound(b *testing.B) {
	c := benchDiscoveryController(b, 20, 4)
	o, ok := c.discovery.(*ofdpStrategy)
	if !ok {
		b.Fatalf("default discovery strategy is %T, want *ofdpStrategy", c.discovery)
	}
	o.runDiscovery() // warm the scratch slice and pending-probe table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.runDiscovery()
	}
}

func BenchmarkPathAndPortsLine32(b *testing.B) {
	// One full reactive-forwarding resolution: path plus every egress port
	// along it, as forward()/installPath() perform per PacketIn.
	c, _ := benchLineTopology(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, ok := c.shortestPath(1, 32)
		if !ok {
			b.Fatal("no path")
		}
		for j := 0; j+1 < len(path); j++ {
			benchEgress(b, c, path[j], path[j+1])
		}
	}
}

// Fat-tree DPIDs: core switches count from 1, aggregation and edge
// switches are numbered by pod and position.
func coreDPID(i int) uint64      { return uint64(1 + i) }
func aggDPID(pod, i int) uint64  { return uint64(10000 + 100*pod + i) }
func edgeDPID(pod, i int) uint64 { return uint64(20000 + 100*pod + i) }

// fatTreeController builds a controller holding a k-ary fat tree: every
// switch connected through the FeaturesReply handshake behind a no-op
// transmit function, and every link imported as a peer replica would
// learn it (k=16: 320 switches, 4096 directed links). Edge switches use
// ports 1..k/2 for hosts. Discovery is shut down, so advancing the clock
// runs nothing. It returns the controller, its kernel and the
// connections by DPID.
func fatTreeController(tb testing.TB, k int) (*Controller, *sim.Kernel, map[uint64]*Conn) {
	tb.Helper()
	kern := sim.New()
	c := New(kern)
	c.Shutdown()
	conns := make(map[uint64]*Conn)
	connect := func(dpid uint64) {
		ports := make([]openflow.PortDesc, k)
		for i := range ports {
			ports[i] = openflow.PortDesc{No: uint32(i + 1), Up: true}
		}
		conn := c.Connect(func([]byte) {})
		conn.Handle(openflow.Marshal(1, &openflow.FeaturesReply{DatapathID: dpid, Ports: ports}))
		conns[dpid] = conn
	}
	link := func(a PortRef, b PortRef) {
		l := Link{Src: a, Dst: b}
		c.ImportLink(l, kern.Now())
		c.ImportLink(l.Reverse(), kern.Now())
	}
	half := k / 2
	for i := 0; i < half*half; i++ {
		connect(coreDPID(i))
	}
	for pod := 0; pod < k; pod++ {
		for i := 0; i < half; i++ {
			connect(aggDPID(pod, i))
			connect(edgeDPID(pod, i))
		}
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				link(PortRef{DPID: edgeDPID(pod, e), Port: uint32(half + 1 + a)},
					PortRef{DPID: aggDPID(pod, a), Port: uint32(1 + e)})
			}
		}
		for a := 0; a < half; a++ {
			for m := 0; m < half; m++ {
				link(PortRef{DPID: aggDPID(pod, a), Port: uint32(half + 1 + m)},
					PortRef{DPID: coreDPID(a*half + m), Port: uint32(pod + 1)})
			}
		}
	}
	return c, kern, conns
}

// unicastPacketIn sets up a known-destination unicast across a k-ary fat
// tree: the source host sits on pod 0's first edge switch, the
// destination on the last pod's, so forwarding resolves a five-switch
// path. It returns the ingress connection and the Packet-In.
func unicastPacketIn(c *Controller, kern *sim.Kernel, conns map[uint64]*Conn, k int) (*Conn, *openflow.PacketIn) {
	src := HostEntry{MAC: packet.MustMAC("00:00:00:00:00:01"), Loc: PortRef{DPID: edgeDPID(0, 0), Port: 1}, LastSeen: kern.Now()}
	dst := HostEntry{MAC: packet.MustMAC("00:00:00:00:00:02"), Loc: PortRef{DPID: edgeDPID(k-1, 0), Port: 1}, LastSeen: kern.Now()}
	c.ImportHost(src)
	c.ImportHost(dst)
	frame := (&packet.Ethernet{Dst: dst.MAC, Src: src.MAC, Type: packet.EtherTypeIPv4, Payload: make([]byte, 46)}).Marshal()
	return conns[src.Loc.DPID], &openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: src.Loc.Port, Reason: openflow.ReasonNoMatch, Data: frame}
}

// packetInOnce handles one Packet-In, discarding the FlowMod log so a
// long run does not grow it.
func packetInOnce(c *Controller, conn *Conn, msg *openflow.PacketIn) {
	c.handlePacketIn(conn, msg)
	c.flowModLog = c.flowModLog[:0]
}

// BenchmarkPacketIn measures one known-destination unicast Packet-In on
// a controller holding k=16's 4096 directed links: host tracking, the
// link-port check, path and egress lookups, five FlowMods and the
// releasing Packet-Out.
func BenchmarkPacketIn(b *testing.B) {
	c, kern, conns := fatTreeController(b, 16)
	conn, msg := unicastPacketIn(c, kern, conns, 16)
	packetInOnce(c, conn, msg) // warm the path and egress caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packetInOnce(c, conn, msg)
	}
}

// floodUnique floods a broadcast frame whose bytes encode id, entering
// at the given port.
func floodUnique(c *Controller, kern *sim.Kernel, in PortRef, id uint64, data []byte) {
	binary.BigEndian.PutUint64(data[len(data)-8:], id)
	c.flood(&PacketInEvent{
		DPID: in.DPID, InPort: in.Port,
		Eth:  &packet.Ethernet{Dst: packet.BroadcastMAC, Type: packet.EtherTypeARP},
		Data: data,
		When: kern.Now(),
	})
}

// BenchmarkFloodUniqueFrames floods a stream of distinct frames on a k=4
// fat tree, as a spoofed SYN flood does, with the clock advancing so
// that about 8192 cache entries stay live: more than the 4096 at which
// the old cache began sweeping itself on every flood.
func BenchmarkFloodUniqueFrames(b *testing.B) {
	const live = 8192
	c, kern, _ := fatTreeController(b, 4)
	in := PortRef{DPID: edgeDPID(0, 0), Port: 1}
	data := make([]byte, 60)
	step := floodCacheWindow / live
	id := uint64(0)
	for ; id < 2*live; id++ {
		floodUnique(c, kern, in, id, data)
		kern.RunFor(step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		floodUnique(c, kern, in, id, data)
		id++
		kern.RunFor(step)
	}
}

// TestHotPathAllocsIndependentOfTableSize gates the Packet-In and flood
// paths on allocation counts rather than time. A Packet-In must allocate
// the same at k=16 (4096 links) as at k=4 (64 links), the link-port
// lookup must not allocate at all, and a flood's allocations must not
// grow with the flood cache: the cache is pruned a generation at a time,
// never swept, and the flood plan is cached.
func TestHotPathAllocsIndependentOfTableSize(t *testing.T) {
	packetInAllocs := func(k int) float64 {
		c, kern, conns := fatTreeController(t, k)
		conn, msg := unicastPacketIn(c, kern, conns, k)
		ref := PortRef{DPID: edgeDPID(0, 0), Port: uint32(k)}
		if n := testing.AllocsPerRun(50, func() {
			if !c.LinkPorts()[ref] {
				t.Fatal("uplink not in the link-port set")
			}
		}); n != 0 {
			t.Errorf("k=%d: link-port lookup allocates %.0f times", k, n)
		}
		return testing.AllocsPerRun(50, func() { packetInOnce(c, conn, msg) })
	}
	small, large := packetInAllocs(4), packetInAllocs(16)
	if large > small {
		t.Errorf("Packet-In allocates %.0f times at k=16, %.0f at k=4: work grows with the link table", large, small)
	}

	c, kern, _ := fatTreeController(t, 4)
	in := PortRef{DPID: edgeDPID(0, 0), Port: 1}
	data := make([]byte, 60)
	id := uint64(0)
	floodAllocs := func(live uint64) float64 {
		for ; id < live; id++ {
			floodUnique(c, kern, in, id, data)
		}
		return testing.AllocsPerRun(100, func() {
			floodUnique(c, kern, in, id, data)
			id++
		})
	}
	few, many := floodAllocs(5000), floodAllocs(50000)
	if got := len(c.recentFloods.cur) + len(c.recentFloods.prev); got < 50000 {
		t.Fatalf("flood cache holds %d live entries, want at least 50000", got)
	}
	if many > few || few > 1 {
		t.Errorf("flood allocates %.0f times with 5k live cache entries and %.0f with 50k, want at most 1 and no growth", few, many)
	}
}
