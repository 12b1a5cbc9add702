package controller

import (
	"math/rand"
	"sort"
	"time"

	"sdntamper/internal/lldp"
	"sdntamper/internal/obs"
	"sdntamper/internal/obs/trace"
	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// Reserved controller identities. The local-admin 02:c0:ff prefix marks
// controller-originated frames so the Host Tracking Service never mistakes
// its own probes for end hosts.
var (
	// ControllerMAC sources controller host-liveness probes.
	ControllerMAC = packet.MAC{0x02, 0xc0, 0xff, 0x00, 0x00, 0x01}
	// ControllerIP is the source address of controller probes.
	ControllerIP = packet.IPv4Addr{10, 254, 254, 1}
	// pathProbeMAC sources control-link latency probe frames.
	pathProbeMAC = packet.MAC{0x02, 0xc0, 0xff, 0x00, 0x00, 0x02}
)

// pathProbeEtherType tags control-link latency probe frames (an
// experimental EtherType so no dataplane protocol collides with it).
const pathProbeEtherType packet.EtherType = 0x88b5

// Default forwarding constants (Floodlight defaults).
const (
	flowIdleTimeoutSecs = 5
	flowPriority        = 10
	floodCacheWindow    = time.Second
	linkSweepInterval   = time.Second
	lldpTTLSecs         = 120
)

// Controller is the simulated SDN controller.
type Controller struct {
	kernel    *sim.Kernel
	profile   Profile
	keychain  *lldp.Keychain
	stampLLDP bool
	logf      func(format string, args ...any)
	m         ctlMetrics

	conns   map[uint64]*Conn
	pending []*Conn // connections awaiting FeaturesReply
	xid     uint32

	// deadSwitches records when each disconnected switch's control channel
	// went down. Entries clear on reconnect; the sweep ages out host
	// tracking entries stranded on a switch dead past the link timeout.
	deadSwitches map[uint64]time.Time

	links        map[Link]time.Time // link -> last refresh
	linkBorn     map[Link]time.Time // link -> first discovery
	topo         topoCache          // derived forwarding views of links
	hosts        map[packet.MAC]*HostEntry
	flowModLog   []openflow.FlowMod
	recentFloods floodCache
	pendingLLDP  map[PortRef]pendingProbe

	// tracer is the controller shard's span recorder (nil when tracing is
	// off); traceSeq numbers the controller's spans, which is
	// shard-invariant because the controller runs whole on one shard.
	tracer   *trace.Recorder
	traceSeq uint64

	pendingEchoes     map[uint32]*pendingEcho
	pendingPathProbes map[uint64]*pendingPathProbe
	pendingHostProbes map[uint16]*pendingHostProbe
	pendingStats      map[uint32]pendingStats
	probeNonce        uint64
	icmpID            uint16

	modules          []SecurityModule
	interceptors     []PacketInInterceptor
	portObservers    []PortStatusObserver
	linkApprovers    []LinkApprover
	linkObservers    []LinkObserver
	moveApprovers    []HostMoveApprover
	moveObservers    []HostMoveObserver
	lldpObservers    []LLDPSendObserver
	fmObservers      []FlowModObserver
	switchObservers  []SwitchObserver
	removalObservers []LinkRemovalObserver

	alerts []Alert

	// discovery is the active link discovery strategy: the classic OFDP
	// sweep tickers, or event-driven sOFTDP (see strategy.go). Selected
	// by Profile.Discovery at construction.
	discovery discoveryStrategy

	// seed is the trial seed deterministic discovery schedules derive
	// from (sim.MixSeed over seed + entity identity): OFDP stagger
	// offsets and sOFTDP session jitter. Zero is a valid seed.
	seed int64

	// pathAnchors mirrors the liveness of registered physical paths
	// (trunks) for sOFTDP's BFD sessions; see RegisterPathAnchor.
	pathAnchors map[pathKey]bool

	// lldpBuf is the discovery scratch buffer: each probe's Ethernet+LLDP
	// frame is built into it in place and copied out by the PacketOut
	// marshal, so a discovery round allocates nothing per port.
	lldpBuf []byte
	// portScratch backs sortedPortsInto so per-switch port iteration on
	// the discovery and flood-plan paths does not allocate per round.
	portScratch []uint32
	// poScratch is the Packet-Out every send is built in (see packetOut);
	// floodScratch holds the ingress switch's flood actions minus the
	// ingress port.
	poScratch    openflow.PacketOut
	floodScratch []openflow.Action
}

var _ API = (*Controller)(nil)

// Option configures a Controller.
type Option func(*Controller)

// WithProfile selects the controller timing profile (default Floodlight).
func WithProfile(p Profile) Option {
	return func(c *Controller) { c.profile = p }
}

// WithKeychain enables HMAC-signed LLDP using the given keys (TopoGuard's
// authenticated LLDP).
func WithKeychain(k *lldp.Keychain) Option {
	return func(c *Controller) { c.keychain = k }
}

// WithLLDPTimestamps adds the encrypted departure-timestamp TLV to every
// LLDP probe (TopoGuard+'s LLI extension). Requires a keychain.
func WithLLDPTimestamps() Option {
	return func(c *Controller) { c.stampLLDP = true }
}

// WithLogf routes controller log lines (including alerts) to fn.
func WithLogf(fn func(format string, args ...any)) Option {
	return func(c *Controller) { c.logf = fn }
}

// WithMetrics records controller metrics and events into reg. Without this
// option the controller keeps a private registry, so instrumentation sites
// stay branch-free either way; the private registry is still reachable via
// Metrics().
func WithMetrics(reg *obs.Registry) Option {
	return func(c *Controller) { c.m = newCtlMetrics(reg) }
}

// WithSeed sets the trial seed the controller's deterministic discovery
// schedules derive from (OFDP stagger offsets, sOFTDP session jitter).
// The default OFDP path draws nothing from it, so omitting the option
// never changes behavior.
func WithSeed(seed int64) Option {
	return func(c *Controller) { c.seed = seed }
}

// WithDiscovery selects the discovery protocol, overriding the profile's
// Discovery field. Apply after WithProfile.
func WithDiscovery(p DiscoveryProtocol) Option {
	return func(c *Controller) { c.profile.Discovery = p }
}

// New creates a controller on the given kernel and starts its link
// discovery and link timeout sweeps.
func New(kernel *sim.Kernel, opts ...Option) *Controller {
	c := &Controller{
		kernel:            kernel,
		profile:           Floodlight,
		conns:             make(map[uint64]*Conn),
		deadSwitches:      make(map[uint64]time.Time),
		links:             make(map[Link]time.Time),
		linkBorn:          make(map[Link]time.Time),
		hosts:             make(map[packet.MAC]*HostEntry),
		pendingLLDP:       make(map[PortRef]pendingProbe),
		pendingEchoes:     make(map[uint32]*pendingEcho),
		pendingPathProbes: make(map[uint64]*pendingPathProbe),
		pendingHostProbes: make(map[uint16]*pendingHostProbe),
		pathAnchors:       make(map[pathKey]bool),
		icmpID:            0x4000,
		logf:              func(string, ...any) {},
	}
	c.m = newCtlMetrics(obs.NewRegistry())
	for _, opt := range opts {
		opt(c)
	}
	c.m.bindDiscovery(c.profile.Discovery.String())
	c.discovery = newDiscoveryStrategy(c)
	c.discovery.start()
	return c
}

// Shutdown stops the controller's background discovery machinery.
func (c *Controller) Shutdown() {
	c.discovery.stop()
}

// SetTracer attaches the span recorder of the controller's shard and
// propagates it to the controller's metrics registry, so every defense
// module bound through API.Metrics() gains the same flight recorder.
// Nil detaches both.
func (c *Controller) SetTracer(r *trace.Recorder) {
	c.tracer = r
	c.m.reg.SetTracer(r)
}

// Tracer reports the controller's span recorder, or nil.
func (c *Controller) Tracer() *trace.Recorder { return c.tracer }

// Span-ID site tags distinguishing the controller's emission points
// (sequence numbers already make IDs unique; the tags keep derivations
// self-describing).
const (
	traceSiteLLDPEmit = iota + 1
	traceSitePacketIn
	traceSiteLLDPFlight
	traceSiteLinkAdded
	traceSiteLinkRemoved
	traceSiteHostJoined
	traceSiteHostMoved
	traceSiteHostAgedOut
	traceSiteSwitchDown
	traceSiteSwitchUp
	traceSiteAlert
)

// instant records a zero-duration span for one topology change or
// alert, parented on the chain being handled: a link.added hangs under
// the lldp.flight that proved it, a host.joined under its packet-in.
// Sites call it only inside their tracer nil check, so the detail string
// is built only when tracing is on.
func (c *Controller) instant(tr *trace.Recorder, site uint64, kind trace.Kind, name string, loc PortRef, detail string) {
	c.traceSeq++
	now := tr.Now()
	tr.Emit(trace.Span{
		ID:     trace.MixID(uint64(kind), site, loc.DPID, uint64(loc.Port), c.traceSeq),
		Parent: tr.Current(),
		Start:  now, End: now,
		Kind: kind, Name: name,
		Entity: loc.DPID, Port: loc.Port, Detail: detail,
	})
}

// Disconnect tears down the control connection to a switch, as when the
// channel drops or the switch reboots. Every pending probe bound to the
// switch resolves immediately with failure (its timeout event canceled),
// its links leave the topology, its pending LLDP stamps are discarded,
// and SwitchObservers are notified. Host entries are NOT dropped here:
// the Host Tracking Service ages them out only after the switch stays
// dead past the link timeout, since a brief control-channel blip says
// nothing about dataplane host liveness. Reports false if the switch was
// not connected.
func (c *Controller) Disconnect(dpid uint64) bool {
	if _, ok := c.conns[dpid]; !ok {
		return false
	}
	delete(c.conns, dpid)
	c.invalidateFloodPlan()
	c.deadSwitches[dpid] = c.kernel.Now()
	c.m.switchDisconnects.Inc()
	if tr := c.tracer; tr != nil {
		c.instant(tr, traceSiteSwitchDown, trace.KindControl, "switch.disconnected", PortRef{DPID: dpid}, "")
	}
	c.logf("switch 0x%x disconnected", dpid)
	c.failPendingProbes(dpid)
	c.removeLinksMatching(func(l Link) bool {
		return l.Src.DPID == dpid || l.Dst.DPID == dpid
	}, "switch-down")
	for ref := range c.pendingLLDP {
		if ref.DPID == dpid {
			delete(c.pendingLLDP, ref)
		}
	}
	c.discovery.switchDisconnected(dpid)
	for _, o := range c.switchObservers {
		o.ObserveSwitchDisconnect(dpid)
	}
	return true
}

// Register adds a security module and wires every hook interface it
// implements.
func (c *Controller) Register(m SecurityModule) {
	c.modules = append(c.modules, m)
	if b, ok := m.(Binder); ok {
		b.Bind(c)
	}
	if h, ok := m.(PacketInInterceptor); ok {
		c.interceptors = append(c.interceptors, h)
	}
	if h, ok := m.(PortStatusObserver); ok {
		c.portObservers = append(c.portObservers, h)
	}
	if h, ok := m.(LinkApprover); ok {
		c.linkApprovers = append(c.linkApprovers, h)
	}
	if h, ok := m.(LinkObserver); ok {
		c.linkObservers = append(c.linkObservers, h)
	}
	if h, ok := m.(HostMoveApprover); ok {
		c.moveApprovers = append(c.moveApprovers, h)
	}
	if h, ok := m.(HostMoveObserver); ok {
		c.moveObservers = append(c.moveObservers, h)
	}
	if h, ok := m.(LLDPSendObserver); ok {
		c.lldpObservers = append(c.lldpObservers, h)
	}
	if h, ok := m.(FlowModObserver); ok {
		c.fmObservers = append(c.fmObservers, h)
	}
	if h, ok := m.(SwitchObserver); ok {
		c.switchObservers = append(c.switchObservers, h)
	}
	if h, ok := m.(LinkRemovalObserver); ok {
		c.removalObservers = append(c.removalObservers, h)
	}
}

// Conn is the controller side of one switch control connection.
type Conn struct {
	ctl   *Controller
	send  func([]byte)
	dpid  uint64
	ports map[uint32]openflow.PortDesc

	// txBuf is the connection's transmit scratch buffer; every outgoing
	// message is marshaled into it in place (see sendMsg).
	txBuf []byte
}

// Connect opens a control connection whose upstream transmit function is
// send, and begins the Hello/Features handshake. Wire the returned Conn's
// Handle method as the receive callback of the same channel. send must
// not retain the byte slice past the call: the connection marshals every
// message into one reused scratch buffer (link.Channel ends satisfy this
// because Channel.Send copies at ingress).
func (c *Controller) Connect(send func([]byte)) *Conn {
	conn := &Conn{ctl: c, send: send, ports: make(map[uint32]openflow.PortDesc)}
	c.pending = append(c.pending, conn)
	conn.sendMsg(&openflow.Hello{})
	conn.sendMsg(&openflow.FeaturesRequest{})
	return conn
}

func (conn *Conn) sendMsg(m openflow.Message) uint32 {
	conn.ctl.xid++
	xid := conn.ctl.xid
	conn.txBuf = openflow.AppendMarshal(conn.txBuf[:0], xid, m)
	conn.send(conn.txBuf)
	return xid
}

// DPID reports the switch's datapath id (0 until the handshake finishes).
func (conn *Conn) DPID() uint64 { return conn.dpid }

// Handle processes one OpenFlow message arriving from the switch.
func (conn *Conn) Handle(data []byte) {
	xid, m, err := openflow.Unmarshal(data)
	if err != nil {
		return
	}
	c := conn.ctl
	switch msg := m.(type) {
	case *openflow.Hello:
		// Handshake pleasantry.
	case *openflow.FeaturesReply:
		conn.dpid = msg.DatapathID
		for _, p := range msg.Ports {
			conn.ports[p.No] = p
		}
		c.conns[conn.dpid] = conn
		c.invalidateFloodPlan()
		for i, p := range c.pending {
			if p == conn {
				c.pending = append(c.pending[:i], c.pending[i+1:]...)
				break
			}
		}
		if _, wasDead := c.deadSwitches[conn.dpid]; wasDead {
			delete(c.deadSwitches, conn.dpid)
			c.m.switchReconnects.Inc()
			if tr := c.tracer; tr != nil {
				c.instant(tr, traceSiteSwitchUp, trace.KindControl, "switch.reconnected", PortRef{DPID: conn.dpid}, "")
			}
		}
		c.logf("switch 0x%x connected with %d ports", conn.dpid, len(msg.Ports))
		for _, o := range c.switchObservers {
			o.ObserveSwitchConnect(conn.dpid)
		}
		c.discovery.switchConnected(conn, msg)
	case *openflow.EchoRequest:
		// Real peers keepalive the control channel; answer in kind.
		conn.txBuf = openflow.AppendMarshal(conn.txBuf[:0], xid, &openflow.EchoReply{Data: msg.Data})
		conn.send(conn.txBuf)
	case *openflow.EchoReply:
		c.resolveEcho(xid)
	case *openflow.PortStatus:
		conn.ports[msg.Desc.No] = msg.Desc
		c.invalidateFloodPlan()
		c.handlePortStatus(conn.dpid, msg)
	case *openflow.PacketIn:
		c.handlePacketIn(conn, msg)
	case *openflow.StatsReply:
		c.resolveStats(xid, msg)
	}
}

// handlePortStatus distributes a Port-Status event and maintains topology:
// links whose endpoint went down are evicted, as Floodlight does.
func (c *Controller) handlePortStatus(dpid uint64, msg *openflow.PortStatus) {
	ev := &PortStatusEvent{DPID: dpid, Status: msg, When: c.kernel.Now()}
	if ev.Down() {
		ref := ev.Loc()
		c.removeLinksMatching(func(l Link) bool {
			return l.Src == ref || l.Dst == ref
		}, "port-down")
	}
	for _, o := range c.portObservers {
		o.ObservePortStatus(ev)
	}
	c.discovery.portStatus(ev)
}

// handlePacketIn decodes and routes one Packet-In through internal probe
// resolution, module interceptors, and then link discovery or the host
// pipeline.
func (c *Controller) handlePacketIn(conn *Conn, msg *openflow.PacketIn) {
	eth, err := packet.UnmarshalEthernet(msg.Data)
	if err != nil {
		return
	}
	c.m.packetIn.Inc()
	if tr := c.tracer; tr != nil {
		// Every Packet-In gets a span: chained under the control-channel
		// hop that carried it when the frame belongs to a traced chain,
		// a root otherwise (plain dataplane traffic).
		c.traceSeq++
		id := trace.MixID(uint64(trace.KindControl), traceSitePacketIn, conn.dpid, uint64(msg.InPort), c.traceSeq)
		now := tr.Now()
		tr.Emit(trace.Span{
			ID: id, Parent: tr.Current(),
			Start: now, End: now,
			Kind: trace.KindControl, Name: "packet-in",
			Entity: conn.dpid, Port: msg.InPort,
		})
		tr.SetCurrent(id)
	}
	// Internal probe returns never reach modules or services.
	if eth.Src == pathProbeMAC && eth.Type == pathProbeEtherType {
		c.resolvePathProbe(eth)
		return
	}
	ev := &PacketInEvent{
		DPID:   conn.dpid,
		InPort: msg.InPort,
		Reason: msg.Reason,
		Data:   msg.Data,
		Eth:    eth,
		Fields: openflow.ExtractFields(msg.InPort, msg.Data),
		When:   c.kernel.Now(),
	}
	if eth.Type == packet.EtherTypeLLDP {
		if f, err := lldp.Unmarshal(eth.Payload); err == nil {
			ev.IsLLDP = true
			ev.LLDP = f
			c.m.packetInLLDP.Inc()
		}
	}
	if c.resolveHostProbe(ev) {
		return
	}
	// Suppress our own recently-flooded frames re-entering via another
	// switch (e.g. over a trunk not yet in the topology): they are echo,
	// not fresh dataplane evidence, for the security modules as much as
	// for host learning.
	if !ev.IsLLDP && c.isRecentFlood(ev) {
		return
	}
	for _, h := range c.interceptors {
		if !h.InterceptPacketIn(ev) {
			return
		}
	}
	if ev.IsLLDP {
		c.handleLLDPIn(ev)
		return
	}
	c.observeHost(ev)
	c.forward(ev)
}

// RaiseAlert implements API.
func (c *Controller) RaiseAlert(module, reason, detail string) {
	a := Alert{At: c.kernel.Now(), Module: module, Reason: reason, Detail: detail}
	c.alerts = append(c.alerts, a)
	c.m.alerts.Inc()
	c.m.alertCounter(module, reason).Inc()
	if tr := c.tracer; tr != nil {
		c.instant(tr, traceSiteAlert, trace.KindDefense, "alert", PortRef{}, "["+module+"] "+reason+": "+detail)
	}
	c.logf("%s", a.String())
}

// Alerts snapshots all alerts raised so far.
func (c *Controller) Alerts() []Alert {
	out := make([]Alert, len(c.alerts))
	copy(out, c.alerts)
	return out
}

// AlertsByReason returns the alerts with the given reason code.
func (c *Controller) AlertsByReason(reason string) []Alert {
	var out []Alert
	for _, a := range c.alerts {
		if a.Reason == reason {
			out = append(out, a)
		}
	}
	return out
}

// Metrics implements API: the registry this controller records into.
func (c *Controller) Metrics() *obs.Registry { return c.m.reg }

// Now implements API.
func (c *Controller) Now() time.Time { return c.kernel.Now() }

// Schedule implements API.
func (c *Controller) Schedule(d time.Duration, fn func()) sim.Event {
	return c.kernel.Schedule(d, fn)
}

// Rand implements API.
func (c *Controller) Rand() *rand.Rand { return c.kernel.Rand() }

// Keychain implements API.
func (c *Controller) Keychain() *lldp.Keychain { return c.keychain }

// Profile implements API.
func (c *Controller) Profile() Profile { return c.profile }

// Links implements API.
func (c *Controller) Links() []Link {
	out := make([]Link, 0, len(c.links))
	for l := range c.links {
		out = append(out, l)
	}
	sortLinks(out)
	return out
}

// HasLink reports whether the directed link is currently in the topology.
func (c *Controller) HasLink(l Link) bool {
	_, ok := c.links[l]
	return ok
}

// LinkPorts implements API. The set is built on first use after a link
// change and shared until the next one (see topoCache).
func (c *Controller) LinkPorts() map[PortRef]bool {
	t := &c.topo
	if t.linkPorts == nil {
		t.linkPorts = make(map[PortRef]bool, 2*len(c.links))
		for l := range c.links {
			t.linkPorts[l.Src] = true
			t.linkPorts[l.Dst] = true
		}
	}
	return t.linkPorts
}

// RemoveLink implements API.
func (c *Controller) RemoveLink(l Link) {
	if _, ok := c.links[l]; ok {
		c.m.linksRemoved.Inc()
		if tr := c.tracer; tr != nil {
			c.instant(tr, traceSiteLinkRemoved, trace.KindControl, "link.removed", l.Src, "evicted "+l.String())
		}
		for _, o := range c.removalObservers {
			o.ObserveLinkRemoved(l, "api")
		}
		c.discovery.linkRemoved(l, "api")
	}
	delete(c.links, l)
	delete(c.linkBorn, l)
	c.invalidateTopo()
}

// HostByMAC implements API.
func (c *Controller) HostByMAC(mac packet.MAC) (HostEntry, bool) {
	if h, ok := c.hosts[mac]; ok {
		return *h, true
	}
	return HostEntry{}, false
}

// Hosts snapshots the host tracking table, ordered by MAC.
func (c *Controller) Hosts() []HostEntry {
	out := make([]HostEntry, 0, len(c.hosts))
	for _, h := range c.hosts {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool {
		for b := 0; b < 6; b++ {
			if out[i].MAC[b] != out[j].MAC[b] {
				return out[i].MAC[b] < out[j].MAC[b]
			}
		}
		return false
	})
	return out
}

// Switches implements API.
func (c *Controller) Switches() []uint64 {
	out := make([]uint64, 0, len(c.conns))
	for dpid := range c.conns {
		out = append(out, dpid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FlowModLog returns every FlowMod the controller has pushed, in order.
func (c *Controller) FlowModLog() []openflow.FlowMod {
	out := make([]openflow.FlowMod, len(c.flowModLog))
	copy(out, c.flowModLog)
	return out
}

// PushFlowMod implements API: it lets defense modules install or remove
// flow entries (e.g. RATEMON's auto-block drop rules) through the same
// path the controller's own forwarding logic uses, so the FlowMod log
// and FlowMod observers see defense-issued rules too. Pushing to an
// unknown dpid is a no-op.
func (c *Controller) PushFlowMod(dpid uint64, fm *openflow.FlowMod) {
	c.sendFlowMod(dpid, fm)
}

// sendFlowMod pushes a FlowMod to a switch, logging it and notifying
// FlowMod observers (SPHINX builds its trusted state from these).
func (c *Controller) sendFlowMod(dpid uint64, fm *openflow.FlowMod) {
	conn, ok := c.conns[dpid]
	if !ok {
		return
	}
	c.flowModLog = append(c.flowModLog, *fm)
	c.m.flowMods.Inc()
	for _, o := range c.fmObservers {
		o.ObserveFlowMod(dpid, fm)
	}
	conn.sendMsg(fm)
}

// sendPacketOut injects a packet at a switch.
func (c *Controller) sendPacketOut(dpid uint64, inPort uint32, actions []openflow.Action, data []byte) {
	conn, ok := c.conns[dpid]
	if !ok {
		return
	}
	c.packetOut(conn, inPort, actions, data)
}

// packetOut sends a Packet-Out on a connection. The message is built in
// the controller's scratch struct: sendMsg marshals it before returning,
// so nothing retains it and a Packet-Out allocates nothing.
func (c *Controller) packetOut(conn *Conn, inPort uint32, actions []openflow.Action, data []byte) {
	c.m.packetOuts.Inc()
	c.poScratch = openflow.PacketOut{
		BufferID: openflow.NoBuffer,
		InPort:   inPort,
		Actions:  actions,
		Data:     data,
	}
	conn.sendMsg(&c.poScratch)
	c.poScratch = openflow.PacketOut{}
}
