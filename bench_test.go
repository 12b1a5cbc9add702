package sdntamper

// One benchmark per table and figure of the paper's evaluation, plus
// micro-benchmarks of the hot paths and ablation benches for the design
// choices DESIGN.md calls out. The table/figure benches measure the cost
// of regenerating each artifact with this library (virtual-time work per
// wall-clock op); Table II's benches are themselves the measurement the
// paper reports (real CPU cost of the TopoGuard+ LLDP extensions).

import (
	"testing"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/core"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/ids"
	"sdntamper/internal/link"
	"sdntamper/internal/lldp"
	"sdntamper/internal/obs/trace"
	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
	"sdntamper/internal/probe"
	"sdntamper/internal/sim"
	"sdntamper/internal/traffic"
)

// --- Table I: liveness probe options -----------------------------------

func benchProbe(b *testing.B, typ probe.Type) {
	b.Helper()
	s := core.NewFig2Scenario(1, core.NoDefenses())
	defer s.Close()
	if err := s.Run(2 * time.Second); err != nil {
		b.Fatal(err)
	}
	attacker := s.Net.Host(core.HostAttackerA)
	victim := s.Net.Host(core.HostVictim)
	zombie := s.Net.Host(core.HostClient)
	p := probe.New(s.Net.ControlKernel(), attacker, typ,
		probe.WithZombie(probe.Zombie{MAC: zombie.MAC(), IP: zombie.IP(), Port: 9}))
	target := probe.Target{MAC: victim.MAC(), IP: victim.IP(), Port: 80}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		if err := p.Probe(target, 200*time.Millisecond, func(probe.Result) { done = true }); err != nil {
			b.Fatal(err)
		}
		if err := s.Run(2 * time.Second); err != nil {
			b.Fatal(err)
		}
		if !done {
			b.Fatal("probe did not resolve")
		}
	}
}

func BenchmarkTableI_ICMPPing(b *testing.B)    { benchProbe(b, probe.ICMPPing) }
func BenchmarkTableI_TCPSYN(b *testing.B)      { benchProbe(b, probe.TCPSYN) }
func BenchmarkTableI_ARPPing(b *testing.B)     { benchProbe(b, probe.ARPPing) }
func BenchmarkTableI_TCPIdleScan(b *testing.B) { benchProbe(b, probe.TCPIdleScan) }

// --- Table II: TopoGuard+ LLDP overhead (the real measurement) ---------

func BenchmarkTableII_LLDPConstructionPlain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := &lldp.Frame{ChassisID: 1, PortID: 2, TTLSecs: 120}
		_ = f.Marshal()
	}
}

func BenchmarkTableII_LLDPConstructionTGPlus(b *testing.B) {
	kc, err := lldp.NewKeychain([]byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	now := time.Unix(1700000000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &lldp.Frame{ChassisID: 1, PortID: 2, TTLSecs: 120}
		f.Timestamp = kc.SealTimestamp(now)
		kc.Sign(f)
		_ = f.Marshal()
	}
}

func BenchmarkTableII_LLDPProcessingPlain(b *testing.B) {
	wire := (&lldp.Frame{ChassisID: 1, PortID: 2, TTLSecs: 120}).Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lldp.Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_LLDPProcessingTGPlus(b *testing.B) {
	kc, err := lldp.NewKeychain([]byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	now := time.Unix(1700000000, 0)
	f := &lldp.Frame{ChassisID: 1, PortID: 2, TTLSecs: 120}
	f.Timestamp = kc.SealTimestamp(now)
	kc.Sign(f)
	wire := f.Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := lldp.Unmarshal(wire)
		if err != nil {
			b.Fatal(err)
		}
		if err := kc.Verify(got); err != nil {
			b.Fatal(err)
		}
		if _, err := kc.OpenTimestamp(got.Timestamp); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table III: per-profile discovery rounds ----------------------------

func benchDiscoveryRound(b *testing.B, profile string) {
	b.Helper()
	var prof func() core.Defenses
	_ = prof
	rows := core.RunTableIII()
	var interval time.Duration
	for _, r := range rows {
		if r.Controller == profile {
			interval = r.DiscoveryInterval
		}
	}
	s := core.NewFig9Testbed(1, core.NoDefenses())
	defer s.Close()
	if err := s.Run(2 * time.Second); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Run(interval); err != nil {
			b.Fatal(err)
		}
	}
	if len(s.Controller().Links()) == 0 {
		b.Fatal("no links discovered")
	}
}

func BenchmarkTableIII_FloodlightRound(b *testing.B) { benchDiscoveryRound(b, "Floodlight") }
func BenchmarkTableIII_POXRound(b *testing.B)        { benchDiscoveryRound(b, "POX") }

// --- Figure 4: ifconfig identity-change distribution --------------------

func BenchmarkFig4_IdentityChangeSample(b *testing.B) {
	k := sim.New(sim.WithSeed(4))
	sampler := dataplane.DefaultIdentityChange()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sampler.Sample(k.Rand())
	}
}

// --- Figures 3 and 5-8: one complete port-probing hijack per op ---------

func BenchmarkFig5678_HijackRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		events, err := core.RunFig3Timeline(int64(i)+1, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(events) != 6 {
			b.Fatal("incomplete timeline")
		}
	}
}

// benchHijackDistributions measures an 8-trial Figure 5-8 experiment end to
// end; the serial/parallel pair is the wall-clock speedup evidence recorded
// in BENCH_pr1.json.
func benchHijackDistributions(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		d, err := core.RunHijackDistributionsParallel(int64(i)*1000+1, 8, false, workers)
		if err != nil {
			b.Fatal(err)
		}
		if d.AttackerUp.N()+d.Failed != 8 {
			b.Fatalf("runs accounted = %d", d.AttackerUp.N()+d.Failed)
		}
	}
}

func BenchmarkFig5678_Distributions8Serial(b *testing.B)   { benchHijackDistributions(b, 1) }
func BenchmarkFig5678_Distributions8Parallel(b *testing.B) { benchHijackDistributions(b, 0) }

// --- Figures 10-13 ------------------------------------------------------

func BenchmarkFig10_LLIMeasurementRound(b *testing.B) {
	s := core.NewFig9Testbed(10, core.TopoGuardPlus())
	defer s.Close()
	if err := s.Run(2 * time.Second); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Run(15 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	if len(s.LLI().Samples()) == 0 {
		b.Fatal("no LLI samples")
	}
}

func BenchmarkFig11_OOBDetectionRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig11(int64(i)+1, 2*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Alerts) == 0 {
			b.Fatal("attack not detected")
		}
	}
}

func BenchmarkFig12_InBandDetectionRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		alerts, err := core.RunFig12(int64(i)+1, time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if len(alerts) == 0 {
			b.Fatal("attack not detected")
		}
	}
}

// --- Section V-B2: IDS inspection throughput ----------------------------

func BenchmarkIDSInspectSYN(b *testing.B) {
	k := sim.New()
	sensor := ids.NewSensor(k)
	frame := packet.NewTCPSegment(
		packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustMAC("bb:bb:bb:bb:bb:bb"),
		packet.MustIPv4("10.0.0.1"), packet.MustIPv4("10.0.0.2"),
		40000, 80, packet.TCPSyn, 1, 0, nil).Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sensor.Inspect(frame)
	}
}

// --- Attack end-to-end benches ------------------------------------------

func BenchmarkOOBFabricationRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := core.NewFig9Testbed(int64(i)+1, core.BothBaselines())
		fab := attack.NewOOBFabrication(s.Net.ControlKernel(),
			s.Net.Host(core.HostAttackerA), s.Net.Host(core.HostAttackerB), s.OOB,
			attack.FabricationConfig{UseAmnesia: true})
		if err := s.Run(2 * time.Second); err != nil {
			b.Fatal(err)
		}
		fab.Start()
		if err := s.Run(30 * time.Second); err != nil {
			b.Fatal(err)
		}
		if !s.Controller().HasLink(core.FabricatedLinkFig9()) {
			b.Fatal("fabrication failed")
		}
		s.Close()
	}
}

// --- Ablations ----------------------------------------------------------

func benchLLIAblation(b *testing.B, k float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := core.RunLLIAblation(int64(i)+1, []float64{k}, []int{100}, 3*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if !rows[0].Detected {
			b.Fatal("attack not detected")
		}
	}
}

func BenchmarkAblationLLIMultiplier1_5(b *testing.B) { benchLLIAblation(b, 1.5) }
func BenchmarkAblationLLIMultiplier3(b *testing.B)   { benchLLIAblation(b, 3) }

func BenchmarkAblationControlAveraging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunControlAveragingAblation(int64(i)+1, []int{1, 3}, 2*time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the substrate hot paths -------------------------

func BenchmarkOpenFlowMarshalPacketIn(b *testing.B) {
	data := make([]byte, 128)
	msg := &openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: 1, Data: data}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = openflow.Marshal(uint32(i), msg)
	}
}

func BenchmarkOpenFlowUnmarshalPacketIn(b *testing.B) {
	wire := openflow.Marshal(1, &openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: 1, Data: make([]byte, 128)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := openflow.Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowTableLookup(b *testing.B) {
	var tbl dataplane.FlowTable
	now := time.Unix(0, 0)
	for i := 0; i < 64; i++ {
		var mac packet.MAC
		mac[5] = byte(i)
		tbl.Apply(&openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    openflow.Match{Wildcards: openflow.WildAll &^ openflow.WildEthDst, Fields: openflow.Fields{EthDst: mac}},
			Priority: 10,
			Actions:  []openflow.Action{openflow.Output(1)},
		}, now)
	}
	fields := openflow.Fields{EthDst: packet.MAC{0, 0, 0, 0, 0, 63}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl.Lookup(fields) == nil {
			b.Fatal("miss")
		}
	}
}

func BenchmarkSimKernelEventThroughput(b *testing.B) {
	// b.N can exceed the kernel's default runaway guard on fast hosts.
	k := sim.New(sim.WithEventLimit(^uint64(0)))
	var next func()
	count := 0
	next = func() {
		count++
		if count < b.N {
			k.Schedule(time.Microsecond, next)
		}
	}
	b.ResetTimer()
	k.Schedule(0, next)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkLinkFrameDelivery(b *testing.B) {
	k := sim.New()
	l := link.NewLink(k, sim.Const(time.Microsecond))
	h := dataplane.NewHost(k, "h", packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustIPv4("10.0.0.1"), l, link.EndB)
	_ = h
	frame := packet.NewARPRequest(packet.MustMAC("bb:bb:bb:bb:bb:bb"), packet.MustIPv4("10.0.0.2"), packet.MustIPv4("10.0.0.1")).Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Send(link.EndA, frame)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Allocation-gated hot-path benchmarks (CI enforces 0 allocs/op) ------

// BenchmarkSchedule measures the steady-state schedule->fire cycle of the
// event kernel. After warmup every fired event's slot is recycled through
// the kernel free list, so the loop must run allocation-free.
func BenchmarkSchedule(b *testing.B) {
	k := sim.New(sim.WithEventLimit(^uint64(0)))
	count, limit := 0, 0
	var next func()
	next = func() {
		count++
		if count < limit {
			k.Schedule(time.Microsecond, next)
		}
	}
	// Warm the slot free list and the heap backing array.
	limit = 256
	k.Schedule(0, next)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	count, limit = 0, b.N
	b.ReportAllocs()
	b.ResetTimer()
	k.Schedule(0, next)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleTraced is BenchmarkSchedule with a span flight
// recorder attached to the kernel: causal context is captured on every
// schedule and restored on every fire, but no spans are emitted (the
// benchmark events carry no trace context), which is the steady-state
// cost tracing adds to the kernel hot path. It must also stay
// allocation-free.
func BenchmarkScheduleTraced(b *testing.B) {
	k := sim.New(sim.WithEventLimit(^uint64(0)))
	k.SetTracer(trace.NewRecorder(0))
	count, limit := 0, 0
	var next func()
	next = func() {
		count++
		if count < limit {
			k.Schedule(time.Microsecond, next)
		}
	}
	limit = 256
	k.Schedule(0, next)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	count, limit = 0, b.N
	b.ReportAllocs()
	b.ResetTimer()
	k.Schedule(0, next)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTrafficBurst measures the traffic engine's per-packet
// overhead: flow admission, batched pump events and frame construction
// into the host's reused transmit buffer. The wire's carrier is down so
// Send drops without the per-frame delivery copy (that copy is the
// link's cost, benchmarked elsewhere) — everything the engine itself
// does per packet must be allocation-free: package-level event
// functions recycle kernel slots, payloads are pooled, and flow state
// is two integers.
func BenchmarkTrafficBurst(b *testing.B) {
	k := sim.New(sim.WithEventLimit(^uint64(0)))
	l := link.NewLink(k, sim.Const(time.Microsecond))
	h := dataplane.NewHost(k, "h", packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustIPv4("10.0.0.1"), l, link.EndB)
	l.SetCarrier(link.EndA, false)
	g := traffic.NewGenerator(h, packet.MustMAC("bb:bb:bb:bb:bb:bb"), packet.MustIPv4("10.0.0.2"), 9,
		traffic.Profile{PayloadBytes: 1000}, 1, 0)
	// Warm the kernel free list and heap backing array.
	g.Burst(256)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	g.Burst(b.N) // default profile: one packet per flow
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if got := g.Counters().Packets; got < uint64(b.N) {
		b.Fatalf("drained %d of %d packets", got, b.N)
	}
}

// BenchmarkFramePath measures building one complete Ethernet/IPv4/TCP
// frame layer by layer into a reused scratch buffer — the host transmit
// path — and marshaling it into a PacketIn the way a switch's control
// path does. Both halves reuse their buffers, so the loop must run
// allocation-free.
func BenchmarkFramePath(b *testing.B) {
	src, dst := packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustMAC("bb:bb:bb:bb:bb:bb")
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, ID: 7,
		Src: packet.MustIPv4("10.0.0.1"), Dst: packet.MustIPv4("10.0.0.2")}
	seg := packet.TCP{SrcPort: 40000, DstPort: 80, Seq: 1, Flags: packet.TCPSyn, Window: 65535}
	pktIn := openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: 1}
	frameBuf := make([]byte, 0, 128)
	ctlBuf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frameBuf = packet.AppendEthernetHeader(frameBuf[:0], dst, src, packet.EtherTypeIPv4)
		ipStart := len(frameBuf)
		frameBuf = ip.AppendHeaderTo(frameBuf)
		frameBuf = seg.AppendTo(frameBuf)
		packet.FinishIPv4(frameBuf, ipStart)
		pktIn.Data = frameBuf
		ctlBuf = openflow.AppendMarshal(ctlBuf[:0], uint32(i), &pktIn)
	}
	if len(ctlBuf) == 0 {
		b.Fatal("empty marshal")
	}
}
