package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/controller"
	"sdntamper/internal/core"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/stats"
	"sdntamper/internal/tgplus"
	"sdntamper/internal/traffic"
)

// step is the virtual slice every script advances the scenario by. The
// slicing is invisible to the simulation: a stepped run executes the
// same events and ends with the same merged metrics as the one-call
// core runner it mirrors (see the equivalence check).
const step = 50 * time.Millisecond

// workload is one benchmark scenario: a fixed script on a fat-tree,
// driven from outside the program through public internal/ functions.
type workload struct {
	name string
	k    int
	// build assembles the scenario (the timed set-up) and returns the
	// script that runs it.
	build func(w *workload, seed int64) *env
	// reference reruns the scenario through the core runner the test
	// suite gates, for the equivalence check (nil where none exists).
	reference func(w *workload, seed int64) (fingerprint, error)

	// DoS scripts only: attack variant, per-attacker rate and how long
	// the flood runs. The reduced self-check shortens the attack.
	variant attack.DoSVariant
	pps     float64
	attack  time.Duration
}

var workloads = []*workload{
	{name: "fattree16", k: 16, build: buildFatTree, reference: fatTreeReference},
	{name: "synflood", k: 4, build: buildDoS, reference: dosReference,
		variant: attack.SYNFlood, pps: 2500, attack: 15 * time.Second},
	{name: "saturation", k: 8, build: buildDoS, reference: dosReference,
		variant: attack.LinkSaturation, pps: 1000, attack: 15 * time.Second},
	{name: "softdp32", k: 32, build: buildSOFTDP},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// reduced returns the k=4 variant of a workload the self-check runs: same
// script and invariants, a few seconds of host time.
func (w *workload) reduced() *workload {
	r := *w
	r.name = w.name + "-k4"
	r.k = 4
	if r.attack > 3*time.Second {
		r.attack = 3 * time.Second
	}
	r.reference = nil
	return &r
}

// phase is one named stretch of a script: segments of virtual time, each
// preceded by an action (pings issued, a generator started, ...).
type phase struct {
	name string
	segs []segment
}

type segment struct {
	before func()
	d      time.Duration
}

// env is one assembled scenario and its script.
type env struct {
	s      *core.ShardedScenario
	phases []phase
	// finish runs after the last phase (generators stopped).
	finish func()
	// outcome checks the invariants and fills the modelled-network
	// metrics; a non-nil error fails the run.
	outcome func(o *outcome) error
	watch   *linkWatch
}

// outcome holds the modelled-network results of one run: exact for a
// seed, independent of the host.
type outcome struct {
	ops, opsFailed uint64
	convergeMs     float64
	detectMs       float64 // negative: no attack in this workload
	falseAlerts    uint64
	probesPerVS    float64
	trafficLegit   uint64
	trafficAttack  uint64
}

// linkWatch is an observer module that timestamps every change to the
// discovered link set, so convergence is measured without polling the
// topology between steps. It only observes: registering it changes no
// event, metric or verdict.
type linkWatch struct {
	ctl        *controller.Controller
	lastChange time.Time
}

func (l *linkWatch) ModuleName() string { return "perfbench/link-watch" }

func (l *linkWatch) ObserveLink(ev *controller.LinkEvent) {
	if ev.IsNew {
		l.lastChange = l.ctl.Now()
	}
}

func (l *linkWatch) ObserveLinkRemoved(controller.Link, string) { l.lastChange = l.ctl.Now() }

// convergeMs is the virtual time, from the start of the run, after which
// the link set never changed again.
func (l *linkWatch) convergeMs(start time.Time) float64 {
	return float64(l.lastChange.Sub(start)) / float64(time.Millisecond)
}

func newEnv(s *core.ShardedScenario) *env {
	w := &linkWatch{ctl: s.Net.Controller, lastChange: s.Net.Controller.Now()}
	s.Net.Controller.Register(w)
	return &env{s: s, watch: w}
}

// fingerprint is the deterministic surface of a run: executed events and
// the merged Prometheus snapshot.
type fingerprint struct {
	events uint64
	prom   string
}

func (f fingerprint) String() string {
	sum := sha256.Sum256([]byte(f.prom))
	return fmt.Sprintf("events=%d prom_sha256=%s", f.events, hex.EncodeToString(sum[:]))
}

func (e *env) fingerprint() (fingerprint, error) {
	var b strings.Builder
	if err := e.s.Net.MergedMetrics().Snapshot().WritePrometheus(&b); err != nil {
		return fingerprint{}, err
	}
	return fingerprint{events: e.s.Net.Group.Executed(), prom: b.String()}, nil
}

// probeDrain outlasts the controller's longest probe timeout (the 5 s
// stats-request bound), so every probe in flight when a script ends has
// been answered or has timed out by the end of it.
const probeDrain = 6 * time.Second

// closeAndDrain is the leak invariant every script ends with. The script's
// last instant can hold probes legitimately in flight (RATEMON's poll of
// that second, for one), so the scenario's tickers are stopped first and
// the in-flight probes given time to resolve; then none may remain. It
// runs after the fingerprint is taken and adds nothing to the timed run.
func (e *env) closeAndDrain() error {
	e.s.Close()
	if err := e.s.Run(probeDrain); err != nil {
		return err
	}
	if p := e.s.Net.Controller.PendingProbes(); p.Total() != 0 {
		return fmt.Errorf("pending probes after the drain: %+v", p)
	}
	return nil
}

// probeWindow counts discovery probes from mark to the end of the run.
type probeWindow struct {
	ctl    *controller.Controller
	probes uint64
	at     time.Time
}

func (p *probeWindow) mark() { p.probes, _ = p.ctl.DiscoveryStats(); p.at = p.ctl.Now() }

// perVirtualSecond is LLDP probes per virtual second since mark.
func (p *probeWindow) perVirtualSecond() float64 {
	probes, _ := p.ctl.DiscoveryStats()
	return float64(probes-p.probes) / p.ctl.Now().Sub(p.at).Seconds()
}

// buildFatTree is core.RunShardedScale(seed, k, 1, false, 3) as a stepped
// script: converge, cross-pod ARP warm, three unicast ping rounds, drain.
func buildFatTree(w *workload, seed int64) *env {
	const rounds = 3
	s, topo := core.NewShardedFatTreeScenario(seed, w.k, 1, core.TopoGuardPlus())
	e := newEnv(s)
	ctl := s.Net.Controller
	start := ctl.Now()
	trunks := len(s.Net.Trunks())

	var sent, answered uint64
	onProbe := func(r dataplane.ProbeResult) {
		if r.Alive {
			answered++
		}
	}
	hosts := topo.HostNames
	pair := func(i int) (*dataplane.Host, *dataplane.Host) {
		return s.Net.Host(hosts[i]), s.Net.Host(hosts[(i+len(hosts)/2)%len(hosts)])
	}
	warm := func() {
		for i := 0; i < len(hosts); i += 2 {
			src, dst := pair(i)
			sent++
			src.ARPPing(dst.IP(), 5*time.Second, onProbe)
		}
	}
	ping := func() {
		for i := 0; i < len(hosts); i += 2 {
			src, dst := pair(i)
			sent++
			src.Ping(dst.MAC(), dst.IP(), 5*time.Second, onProbe)
		}
	}
	window := &probeWindow{ctl: ctl}
	steady := phase{name: "steady"}
	for r := 0; r < rounds; r++ {
		steady.segs = append(steady.segs, segment{before: ping, d: time.Second})
	}
	e.phases = []phase{
		{name: "converge", segs: []segment{{d: 30 * time.Second}}},
		{name: "warm", segs: []segment{{before: func() { window.mark(); warm() }, d: 10 * time.Second}}},
		steady,
		{name: "drain", segs: []segment{{d: 10 * time.Second}}},
	}
	e.outcome = func(o *outcome) error {
		links := uint64(len(ctl.Links()))
		alerts := uint64(len(ctl.AlertsByReason(tgplus.ReasonAbnormalDelay)))
		want := uint64(2 * trunks)
		missing := want - min(want, links)
		o.ops = sent + want
		o.opsFailed = (sent - answered) + missing
		o.convergeMs = e.watch.convergeMs(start)
		o.detectMs = -1
		o.falseAlerts = alerts
		o.probesPerVS = window.perVirtualSecond()
		if answered != sent {
			return fmt.Errorf("%d of %d pings answered", answered, sent)
		}
		if missing > alerts {
			return fmt.Errorf("discovered %d of %d directed links, only %d LLI alerts explain the gap", links, want, alerts)
		}
		return nil
	}
	return e
}

func fatTreeReference(w *workload, seed int64) (fingerprint, error) {
	r, err := core.RunShardedScale(seed, w.k, 1, false, 3)
	if err != nil {
		return fingerprint{}, err
	}
	return fingerprint{events: r.Events, prom: r.MetricsProm}, nil
}

// dosBurstFlows and dosLegitProfile mirror the legitimate load of
// core.RunDoS; the equivalence check fails if they drift apart.
const dosBurstFlows = 150

func dosLegitProfile() traffic.Profile {
	return traffic.Profile{
		FlowsPerSec: 2,
		FlowSize:    stats.BoundedPareto{Alpha: 1.2, Min: 2_000, Max: 200_000},
	}
}

// buildDoS is core.RunDoS(seed, k, 1, false, variant) as a stepped
// script: converge, ARP warm, legitimate load with a burst control,
// distributed flood, drain.
func buildDoS(w *workload, seed int64) *env {
	k := w.k
	def := core.FullStack()
	rmCfg := core.DoSRateMonConfig(w.variant)
	def.RateMonConfig = &rmCfg
	s, _ := core.NewShardedFatTreeScenario(seed, k, 1, def)
	e := newEnv(s)
	ctl := s.Net.Controller
	start := ctl.Now()

	victimName := fmt.Sprintf("p%d-e%d-h%d", 0, 0, 0)
	victim := s.Net.Host(victimName)
	victimLoc := s.Net.HostLocation(victimName)
	var attackers []*dataplane.Host
	attackerPorts := make(map[controller.PortRef]bool)
	for pod := 1; pod < k; pod++ {
		for i := 0; i < k/2; i++ {
			name := fmt.Sprintf("p%d-e%d-h%d", pod, i, 0)
			attackers = append(attackers, s.Net.Host(name))
			attackerPorts[s.Net.HostLocation(name)] = true
		}
	}
	legitHost := s.Net.Host(fmt.Sprintf("p%d-e%d-h%d", 0, k/2-1, 0))
	burstHost := s.Net.Host(fmt.Sprintf("p%d-e%d-h%d", 0, 0, k/2-1))

	var sent, answered uint64
	onProbe := func(r dataplane.ProbeResult) {
		if r.Alive {
			answered++
		}
	}
	var (
		legit, burst *traffic.Generator
		flood        *attack.DoS
		attackStart  time.Time
	)
	window := &probeWindow{ctl: ctl}
	e.phases = []phase{
		{name: "converge", segs: []segment{{d: 30 * time.Second}}},
		{name: "warm", segs: []segment{{before: func() {
			window.mark()
			for _, h := range append(attackers, legitHost, burstHost) {
				sent++
				h.ARPPing(victim.IP(), 4*time.Second, onProbe)
			}
		}, d: 5 * time.Second}}},
		{name: "legit", segs: []segment{
			{before: func() {
				legit = traffic.NewGenerator(legitHost, victim.MAC(), victim.IP(), 9000, dosLegitProfile(), seed, 0)
				burst = traffic.NewGenerator(burstHost, victim.MAC(), victim.IP(), 9001, dosLegitProfile(), seed, 1)
				legit.Start()
			}, d: 5300 * time.Millisecond},
			{before: func() { burst.Burst(dosBurstFlows) }, d: 4700 * time.Millisecond},
		}},
		{name: "attack", segs: []segment{{before: func() {
			flood = attack.NewDoS(attackers, victim.MAC(), victim.IP(),
				attack.DoSConfig{Variant: w.variant, Seed: seed, PacketsPerSec: w.pps})
			attackStart = ctl.Now()
			flood.Start()
		}, d: w.attack}}},
		{name: "drain", segs: []segment{{before: func() { flood.Stop() }, d: 3 * time.Second}}},
	}
	e.finish = func() { legit.Stop() }
	e.outcome = func(o *outcome) error {
		var attackerBlocks, falseBlocks uint64
		blocks := s.RateMon().Blocks()
		for _, b := range blocks {
			switch {
			case attackerPorts[b.Ref]:
				attackerBlocks++
			case b.Ref == victimLoc:
			default:
				falseBlocks++
			}
		}
		o.ops = sent + uint64(len(blocks))
		o.opsFailed = (sent - answered) + falseBlocks
		o.convergeMs = e.watch.convergeMs(start)
		o.detectMs = -1
		if len(blocks) > 0 {
			o.detectMs = float64(blocks[0].At.Sub(attackStart)) / float64(time.Millisecond)
		}
		o.falseAlerts = uint64(len(ctl.AlertsByReason(tgplus.ReasonAbnormalDelay))) + falseBlocks
		o.probesPerVS = window.perVirtualSecond()
		lc, bc := legit.Counters(), burst.Counters()
		o.trafficLegit = lc.Packets + bc.Packets
		o.trafficAttack = flood.PacketsSent()
		switch {
		case answered != sent:
			return fmt.Errorf("warm phase: %d of %d ARP pings answered", answered, sent)
		case falseBlocks != 0:
			return fmt.Errorf("%d false blocks", falseBlocks)
		case attackerBlocks == 0:
			return fmt.Errorf("no attacker port was blocked")
		}
		return nil
	}
	return e
}

func dosReference(w *workload, seed int64) (fingerprint, error) {
	r, err := core.RunDoS(seed, w.k, 1, false, w.variant)
	if err != nil {
		return fingerprint{}, err
	}
	return fingerprint{events: r.Events, prom: r.MetricsProm}, nil
}

// sOFTDP's refresh backoff reaches its 150 s cap ~375 s in; the window
// after the settle sees steady state only (as core.RunDiscoveryLoad).
const (
	softdpSettle  = 400 * time.Second
	softdpMeasure = 150 * time.Second
)

// buildSOFTDP is a quiescent fat-tree under event-driven discovery and
// no defenses: settle, then a steady window.
func buildSOFTDP(w *workload, seed int64) *env {
	s, _ := core.NewShardedFatTreeScenario(seed, w.k, 1, core.NoDefenses(),
		controller.WithDiscovery(controller.DiscoverySOFTDP))
	e := newEnv(s)
	ctl := s.Net.Controller
	start := ctl.Now()
	want := uint64(2 * len(s.Net.Trunks()))
	var linksAtWindow uint64
	window := &probeWindow{ctl: ctl}
	e.phases = []phase{
		{name: "settle", segs: []segment{{d: softdpSettle}}},
		{name: "measure", segs: []segment{{before: func() {
			linksAtWindow = uint64(len(ctl.Links()))
			window.mark()
		}, d: softdpMeasure}}},
	}
	e.outcome = func(o *outcome) error {
		o.ops = want
		o.opsFailed = want - min(want, linksAtWindow)
		o.convergeMs = e.watch.convergeMs(start)
		o.detectMs = -1
		o.falseAlerts = uint64(len(ctl.AlertsByReason(tgplus.ReasonAbnormalDelay)))
		o.probesPerVS = window.perVirtualSecond()
		if linksAtWindow != want {
			return fmt.Errorf("%d of %d directed links discovered before the window", linksAtWindow, want)
		}
		return nil
	}
	return e
}
