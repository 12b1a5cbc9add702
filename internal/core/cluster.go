package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/cluster"
	"sdntamper/internal/controller"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/link"
	"sdntamper/internal/netsim"
	"sdntamper/internal/ratemon"
	"sdntamper/internal/tgplus"
	"sdntamper/internal/topoguard"
)

// ClusterScenario is the Figure 9 testbed under a replicated control
// plane, on one or more shards: two controller replicas on the control
// shard, switches 1-2 mastered by replica 0 and switches 3-4 by
// replica 1, every replica running its own copy of the selected defense
// stack. The mastership split is chosen so the fabricated link's two
// LLDP directions — (2,1)→(3,1) and (3,1)→(2,1) — are adjudicated by
// DIFFERENT replicas, the partitioned-view condition the matrix
// evaluates.
//
// Trunks use the steady (burst-free) latency so a defense alert in a
// cluster experiment is evidence, never an IQR-tail artifact.
type ClusterScenario struct {
	Net     *netsim.Network
	Cluster *cluster.Cluster
	Def     Defenses
	// OOB is the attackers' side channel (unwired until an attack
	// bridges it), living on the control shard like the attacker hosts.
	OOB *link.Channel

	ctls []*controller.Controller
	mods []defenseModules
}

// fig9ClusterPartition spreads the Figure 9 line over the shards while
// keeping the attack-adjacent middle (switches 2 and 3, both attacker
// hosts, the OOB channel) on the control shard: switch 1 moves to shard
// 1 and switch 4 to the last extra shard. Identity-seeded RNG streams
// make placement irrelevant to the simulation's outcome; this spread
// exists to prove exactly that for the cluster layer.
func fig9ClusterPartition(shards int) map[uint64]int {
	part := map[uint64]int{1: 0, 2: 0, 3: 0, 4: 0}
	if shards > 1 {
		part[1] = 1
		part[4] = 1
	}
	if shards > 2 {
		part[4] = 2
	}
	return part
}

// NewClusterFig9Scenario assembles the clustered Figure 9 testbed.
// replicate selects whether the replicas share the replicated log (the
// deployment mode) or run with fully isolated views (the
// partitioned-matrix control variant). The LLI runs with
// RequireControlEstimates: a replica without fresh control baselines
// for a link's endpoints records the measurement unenforced instead of
// guessing.
func NewClusterFig9Scenario(seed int64, shards int, def Defenses, replicate bool) *ClusterScenario {
	if def.LLI && def.LLIConfig == nil {
		lcfg := tgplus.DefaultLLIConfig()
		lcfg.RequireControlEstimates = true
		def.LLIConfig = &lcfg
	}
	net := netsim.NewSharded(seed, shards, fig9ClusterPartition(shards), defenseOptions(def, nil)...)
	net.SetAutoAttach(false)
	for dpid := uint64(1); dpid <= 4; dpid++ {
		net.AddSwitch(dpid, nil)
	}
	net.AddTrunk(1, 3, 2, 3, testbedHostLink())
	net.AddTrunk(2, 4, 3, 4, testbedHostLink())
	net.AddTrunk(3, 3, 4, 3, testbedHostLink())
	net.AddHost(HostClient, "cc:cc:cc:cc:cc:01", "10.0.0.1", 1, 1, testbedHostLink())
	net.AddHost(HostAttackerA, "aa:aa:aa:aa:aa:01", "10.0.0.11", 2, 1, testbedHostLink())
	net.AddHost(HostAttackerB, "aa:aa:aa:aa:aa:02", "10.0.0.12", 3, 1, testbedHostLink())
	net.AddHost(HostServer, "cc:cc:cc:cc:cc:02", "10.0.0.2", 4, 1, testbedHostLink(),
		dataplane.WithOpenTCPPorts(80))
	oob := net.AddOOBChannel(OOBLatency())

	ccfg := cluster.DefaultConfig(seed)
	ccfg.Metrics = net.ShardMetrics(0)
	ccfg.Replicate = replicate
	cl := cluster.New(net, ccfg)

	s := &ClusterScenario{Net: net, Cluster: cl, Def: def, OOB: oob}
	for i := 0; i < 2; i++ {
		ctl := net.Controller
		if i > 0 {
			// Extra replicas run on the control kernel and record into the
			// control shard's registry, so merged metrics aggregate the
			// whole control plane and stay byte-identical across shard
			// counts.
			opts := append([]controller.Option{controller.WithMetrics(net.ShardMetrics(0))},
				defenseOptions(def, nil)...)
			ctl = controller.New(net.ControlKernel(), opts...)
		}
		r := cl.AddReplica(ctl)
		m := deployDefenses(ctl, def)
		if m.LLI != nil {
			r.OnCrash(m.LLI.Stop)
			r.OnRestart(m.LLI.Start)
		}
		if m.RateMon != nil {
			r.OnCrash(m.RateMon.Stop)
			r.OnRestart(m.RateMon.Start)
		}
		s.ctls = append(s.ctls, ctl)
		s.mods = append(s.mods, m)
	}
	cl.SetMaster(1, 0)
	cl.SetMaster(2, 0)
	cl.SetMaster(3, 1)
	cl.SetMaster(4, 1)
	return s
}

// Replica returns one replica's controller.
func (s *ClusterScenario) Replica(i int) *controller.Controller { return s.ctls[i] }

// LLI returns one replica's Link Latency Inspector (nil if not deployed).
func (s *ClusterScenario) LLI(i int) *tgplus.LLI { return s.mods[i].LLI }

// Run advances the whole simulation.
func (s *ClusterScenario) Run(d time.Duration) error { return s.Net.Run(d) }

// Close stops every replica's defense tickers and controllers.
func (s *ClusterScenario) Close() {
	for _, m := range s.mods {
		if m.Sphinx != nil {
			m.Sphinx.Stop()
		}
		if m.LLI != nil {
			m.LLI.Stop()
		}
		if m.RateMon != nil {
			m.RateMon.Stop()
		}
	}
	for _, ctl := range s.ctls {
		ctl.Shutdown()
	}
	s.Net.Shutdown()
}

// AlertTotal sums the alerts every replica has raised.
func (s *ClusterScenario) AlertTotal() int {
	total := 0
	for _, ctl := range s.ctls {
		total += len(ctl.Alerts())
	}
	return total
}

// alertReasonCount sums one alert reason across the replicas.
func (s *ClusterScenario) alertReasonCount(reason string) int {
	total := 0
	for _, ctl := range s.ctls {
		total += len(ctl.AlertsByReason(reason))
	}
	return total
}

// detectedBy maps the fired alert reasons to defense names, cluster-wide.
func (s *ClusterScenario) detectedBy() []string {
	var out []string
	add := func(name string, reasons ...string) {
		for _, r := range reasons {
			if s.alertReasonCount(r) > 0 {
				out = append(out, name)
				return
			}
		}
	}
	add("TopoGuard", topoguard.ReasonLLDPFromHost, topoguard.ReasonFirstHopFromSwitch,
		topoguard.ReasonMigrationPre, topoguard.ReasonMigrationPost)
	add("CMM", tgplus.ReasonControlMessage)
	add("LLI", tgplus.ReasonAbnormalDelay)
	add("RATEMON", ratemon.ReasonPortFlood)
	return out
}

// mergedProm renders the deterministic merged metrics snapshot.
func (s *ClusterScenario) mergedProm() (string, error) {
	var b strings.Builder
	if err := s.Net.MergedMetrics().Snapshot().WritePrometheus(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// FailoverResult is one clustered failover run. Every field except the
// embedded wall-free surface is deterministic for a fixed seed and
// byte-identical across shard counts and serial/parallel execution.
type FailoverResult struct {
	Seed     int64 `json:"seed"`
	Shards   int   `json:"shards"`
	Parallel bool  `json:"parallel"`

	// Crash-relative virtual-time offsets of the failover span chain.
	ElectionNs      int64 `json:"election_ns"`
	HandoverNs      int64 `json:"handover_ns"`
	ReconvergenceNs int64 `json:"reconvergence_ns"`
	// BlindWindowNs is the LLI divergence window: crash → the winner
	// holds fresh control-RTT estimates for both re-homed switches and
	// can enforce latency verdicts on their links again.
	BlindWindowNs int64 `json:"lli_blind_window_ns"`

	ReplayedLinks int    `json:"replayed_links"`
	ReplayedHosts int    `json:"replayed_hosts"`
	PendingLeaked int    `json:"pending_leaked"`
	FalseAlerts   int    `json:"false_alerts"`
	Links         int    `json:"directed_links"`
	Events        uint64 `json:"events"`

	Timeline []string `json:"timeline"`

	MetricsProm string `json:"-"`
}

// RunFailover executes the headline failover experiment: warm the
// clustered Figure 9 testbed under full TOPOGUARD+, crash replica 1
// (master of switches 3 and 4), and measure the deterministic
// reconvergence — election, role handover, state replay, rediscovery —
// plus the LLI's post-handover blind window, with zero leaked probes
// and zero spurious defense alerts.
func RunFailover(seed int64, shards int, parallel bool) (*FailoverResult, error) {
	s := NewClusterFig9Scenario(seed, shards, TopoGuardPlus(), true)
	defer s.Close()
	s.Net.SetParallel(parallel)

	// Warm: handshakes, discovery over both masters, LLI control
	// baselines, and one cross-partition ping to populate the HTS.
	if err := s.Run(2 * time.Second); err != nil {
		return nil, err
	}
	var answered atomic.Int64
	s.Net.Host(HostClient).ARPPing(s.Net.Host(HostServer).IP(), 5*time.Second,
		func(r dataplane.ProbeResult) {
			if r.Alive {
				answered.Add(1)
			}
		})
	if err := s.Run(38 * time.Second); err != nil {
		return nil, err
	}
	if n := len(s.Cluster.LiveLinks()); n != 6 {
		return nil, fmt.Errorf("cluster warmup discovered %d directed links, want 6", n)
	}
	alertsBefore := s.AlertTotal()

	res := &FailoverResult{Seed: seed, Shards: shards, Parallel: parallel}
	s.Cluster.Crash(1)

	// Watch in fixed 50ms steps: the first step at which the winner's
	// LLI again holds control estimates for both re-homed switches marks
	// the end of the blind window; the failover timeline completes
	// independently. Fixed-step polling keeps the measurement a pure
	// function of virtual time.
	winnerLLI := s.LLI(0)
	res.BlindWindowNs = -1
	const step = 50 * time.Millisecond
	for waited := time.Duration(0); waited <= 30*time.Second; waited += step {
		if res.BlindWindowNs < 0 {
			_, ok3 := winnerLLI.ControlLatency(3)
			_, ok4 := winnerLLI.ControlLatency(4)
			if ok3 && ok4 {
				res.BlindWindowNs = int64(waited)
			}
		}
		if res.BlindWindowNs >= 0 && len(s.Cluster.Timelines()) > 0 {
			break
		}
		if err := s.Run(step); err != nil {
			return nil, err
		}
	}
	tls := s.Cluster.Timelines()
	if len(tls) != 1 {
		return nil, fmt.Errorf("failover did not reconverge within the horizon (timelines=%d)", len(tls))
	}
	if res.BlindWindowNs < 0 {
		return nil, fmt.Errorf("winner LLI never rebuilt control estimates for the re-homed switches")
	}
	tl := tls[0]
	res.ElectionNs = int64(tl.ElectionAt.Sub(tl.CrashAt))
	res.HandoverNs = int64(tl.HandoverAt.Sub(tl.CrashAt))
	res.ReconvergenceNs = int64(tl.Reconvergence())
	res.ReplayedLinks = tl.ReplayedLinks
	res.ReplayedHosts = tl.ReplayedHosts
	res.Timeline = []string{
		"crash +0s",
		fmt.Sprintf("election.start +%v", tl.ElectionAt.Sub(tl.CrashAt)),
		fmt.Sprintf("role.handover +%v", tl.HandoverAt.Sub(tl.CrashAt)),
		fmt.Sprintf("state.replay %d links, %d hosts", tl.ReplayedLinks, tl.ReplayedHosts),
		fmt.Sprintf("rediscovery.done +%v", tl.Reconvergence()),
		fmt.Sprintf("lli.relearned +%v", time.Duration(res.BlindWindowNs)),
	}

	// Drain off a probe-tick phase (the extra 25ms can never land the
	// clock back on the LLI's 2s cadence), then check the invariants.
	if err := s.Run(time.Second + 25*time.Millisecond); err != nil {
		return nil, err
	}
	res.PendingLeaked = s.Cluster.PendingProbeTotal()
	res.FalseAlerts = s.AlertTotal() - alertsBefore
	res.Links = len(s.Replica(0).Links())
	res.Events = s.Net.Group.Executed()
	var err error
	if res.MetricsProm, err = s.mergedProm(); err != nil {
		return nil, err
	}
	return res, nil
}

// PartitionRow is one attack evaluated against the partitioned control
// plane: the same Figure 9 attack, with the two LLDP directions of the
// fabricated link adjudicated by different masters, under replicated or
// isolated controller views.
type PartitionRow struct {
	Attack     string   `json:"attack"`
	Replicated bool     `json:"replicated"`
	Fabricated bool     `json:"fabricated"`
	DetectedBy []string `json:"detected_by"`
	Verdict    Verdict  `json:"verdict"`
}

// PartitionMatrixResult is the partitioned-view attack matrix.
type PartitionMatrixResult struct {
	Seed     int64          `json:"seed"`
	Shards   int            `json:"shards"`
	Parallel bool           `json:"parallel"`
	Rows     []PartitionRow `json:"rows"`

	// MetricsProm concatenates each row's deterministic merged snapshot
	// in row order — the byte-identity surface for the shard sweep.
	MetricsProm string `json:"-"`
}

// RunPartitionedMatrix evaluates the attack matrix under partitioned
// controller views: OOB and in-band port-amnesia link fabrication and
// the two distributed flood variants, each under replicated and
// isolated modes. Expected shape: the CMM survives partitioning through
// the replicated port-status log (and loses the cross-master evidence
// when isolated), the LLI cannot enforce on cross-master links it has
// no control baselines for, and the rate monitor — purely local to each
// master's ingress ports — is indifferent to partitioning.
func RunPartitionedMatrix(seed int64, shards int, parallel bool) (*PartitionMatrixResult, error) {
	res := &PartitionMatrixResult{Seed: seed, Shards: shards, Parallel: parallel}
	var prom strings.Builder
	type rowSpec struct {
		name string
		run  func(rowSeed int64, replicated bool) (PartitionRow, string, error)
	}
	specs := []rowSpec{
		{"OOB port amnesia + link fabrication", func(rs int64, rep bool) (PartitionRow, string, error) {
			return runClusterFabricationRow(rs, shards, parallel, false, rep)
		}},
		{"in-band port amnesia + link fabrication", func(rs int64, rep bool) (PartitionRow, string, error) {
			return runClusterFabricationRow(rs, shards, parallel, true, rep)
		}},
		{"distributed SYN flood (spoofed sources)", func(rs int64, rep bool) (PartitionRow, string, error) {
			return runClusterDoSRow(rs, shards, parallel, attack.SYNFlood, rep)
		}},
		{"distributed link saturation (UDP)", func(rs int64, rep bool) (PartitionRow, string, error) {
			return runClusterDoSRow(rs, shards, parallel, attack.LinkSaturation, rep)
		}},
	}
	for i, sp := range specs {
		for _, replicated := range []bool{true, false} {
			row, rowProm, err := sp.run(seed+int64(i)*101, replicated)
			if err != nil {
				return nil, fmt.Errorf("%s (replicated=%v): %w", sp.name, replicated, err)
			}
			row.Attack = sp.name
			row.Replicated = replicated
			res.Rows = append(res.Rows, row)
			prom.WriteString(rowProm)
		}
	}
	res.MetricsProm = prom.String()
	return res, nil
}

// runClusterFabricationRow runs one link-fabrication attack against the
// partitioned TOPOGUARD+ control plane.
func runClusterFabricationRow(seed int64, shards int, parallel, inband, replicated bool) (PartitionRow, string, error) {
	s := NewClusterFig9Scenario(seed, shards, TopoGuardPlus(), replicated)
	defer s.Close()
	s.Net.SetParallel(parallel)
	// Each replica watches for the fabricated link committing on ITS
	// side: under partitioned views the two directions land on different
	// masters, so both must be observed.
	recs := make([]*linkSeen, 2)
	for i := range recs {
		recs[i] = &linkSeen{want: FabricatedLinkFig9()}
		s.Replica(i).Register(recs[i])
	}
	if err := s.Run(2 * time.Second); err != nil {
		return PartitionRow{}, "", err
	}
	// HOST-profile the attacker ports, as in Figure 1.
	s.Net.Host(HostAttackerA).ARPPing(s.Net.Host(HostClient).IP(), 300*time.Millisecond, func(dataplane.ProbeResult) {})
	s.Net.Host(HostAttackerB).ARPPing(s.Net.Host(HostServer).IP(), 300*time.Millisecond, func(dataplane.ProbeResult) {})
	// Calibration: LLI control baselines on both masters.
	if err := s.Run(62 * time.Second); err != nil {
		return PartitionRow{}, "", err
	}
	alertsBefore := s.AlertTotal()
	if inband {
		fab := attack.NewInBandFabrication(s.Net.ControlKernel(),
			s.Net.Host(HostAttackerA), s.Net.Host(HostAttackerB), 0)
		fab.Start()
	} else {
		fab := attack.NewOOBFabrication(s.Net.ControlKernel(),
			s.Net.Host(HostAttackerA), s.Net.Host(HostAttackerB), s.OOB,
			attack.FabricationConfig{UseAmnesia: true})
		fab.Start()
	}
	if err := s.Run(50 * time.Second); err != nil {
		return PartitionRow{}, "", err
	}
	fabricated := recs[0].count+recs[1].count > 0
	row := PartitionRow{Fabricated: fabricated, DetectedBy: s.detectedBy()}
	alerted := s.AlertTotal() > alertsBefore
	switch {
	case fabricated && !alerted:
		row.Verdict = Undetected
	case fabricated && alerted:
		row.Verdict = Detected
	case alerted:
		row.Verdict = Blocked
	default:
		row.Verdict = Failed
	}
	prom, err := s.mergedProm()
	return row, prom, err
}

// runClusterDoSRow runs one distributed flood against the partitioned
// full stack (TOPOGUARD+ plus per-replica rate monitors).
func runClusterDoSRow(seed int64, shards int, parallel bool, variant attack.DoSVariant, replicated bool) (PartitionRow, string, error) {
	def := FullStack()
	rcfg := DoSRateMonConfig(variant)
	def.RateMonConfig = &rcfg
	s := NewClusterFig9Scenario(seed, shards, def, replicated)
	defer s.Close()
	s.Net.SetParallel(parallel)
	if err := s.Run(2 * time.Second); err != nil {
		return PartitionRow{}, "", err
	}
	victim := s.Net.Host(HostServer)
	attackers := []*dataplane.Host{s.Net.Host(HostAttackerA), s.Net.Host(HostAttackerB)}
	for _, a := range attackers {
		a.ARPPing(victim.IP(), time.Second, func(dataplane.ProbeResult) {})
	}
	if err := s.Run(2 * time.Second); err != nil {
		return PartitionRow{}, "", err
	}
	cfg := attack.DoSConfig{Variant: variant, Seed: seed}
	if variant == attack.SYNFlood {
		cfg.PacketsPerSec = 2500
	} else {
		cfg.PacketsPerSec = 1000
	}
	flood := attack.NewDoS(attackers, victim.MAC(), victim.IP(), cfg)
	flood.Announce()
	if err := s.Run(time.Second); err != nil {
		return PartitionRow{}, "", err
	}
	rxBefore := victim.RxFrames()
	flood.Start()
	if err := s.Run(8 * time.Second); err != nil {
		return PartitionRow{}, "", err
	}
	flood.Stop()
	if err := s.Run(time.Second); err != nil {
		return PartitionRow{}, "", err
	}
	delivered := float64(victim.RxFrames()-rxBefore) / float64(flood.PacketsSent())
	alerted := s.alertReasonCount(ratemon.ReasonPortFlood) > 0
	row := PartitionRow{Fabricated: false, DetectedBy: s.detectedBy()}
	switch {
	case !alerted && delivered > 0.9:
		row.Verdict = Undetected
	case alerted && delivered < 0.7:
		row.Verdict = Blocked
	case alerted:
		row.Verdict = Detected
	default:
		row.Verdict = Failed
	}
	prom, err := s.mergedProm()
	return row, prom, err
}
