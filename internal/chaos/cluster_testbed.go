package chaos

import (
	"fmt"
	"time"

	"sdntamper/internal/cluster"
	"sdntamper/internal/controller"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/lldp"
	"sdntamper/internal/netsim"
	"sdntamper/internal/obs"
	"sdntamper/internal/sim"
	"sdntamper/internal/tgplus"
	"sdntamper/internal/topoguard"
)

// ClusterTestbed is the chaos testbed for the controller-crash fault
// class: the same Figure 9 line of four switches, but mastered by a
// replicated control plane — switches 1-2 on replica 0, switches 3-4 on
// replica 1 — with the full TopoGuard+ stack deployed independently on
// every replica. The LLIs run with RequireControlEstimates, so the
// post-handover blind window records unenforced passes instead of
// spurious alerts.
type ClusterTestbed struct {
	Net     *netsim.Network
	Cluster *cluster.Cluster

	replicas []clusterReplica
}

// clusterReplica is one replica's controller and defense modules.
type clusterReplica struct {
	ctl *controller.Controller
	lli *tgplus.LLI
}

// NewClusterTestbed assembles the clustered testbed: replicas controller
// replicas over the Figure 9 network, trunk latency as given (nil for
// the bursty default).
func NewClusterTestbed(seed int64, replicas int, trunkLatency sim.Sampler) (*ClusterTestbed, error) {
	if replicas < 2 {
		return nil, fmt.Errorf("chaos: cluster testbed needs >= 2 replicas, got %d", replicas)
	}
	kc, err := lldp.NewKeychain([]byte("controller-lldp-secret"))
	if err != nil {
		return nil, err
	}
	net := netsim.New(seed,
		controller.WithKeychain(kc),
		controller.WithLLDPTimestamps(),
	)
	net.SetAutoAttach(false)
	for dpid := uint64(1); dpid <= 4; dpid++ {
		net.AddSwitch(dpid, nil)
	}
	mkLatency := func() sim.Sampler {
		if trunkLatency == nil {
			return netsim.TestbedTrunkLatency()
		}
		return trunkLatency
	}
	net.AddTrunk(1, 3, 2, 3, mkLatency())
	net.AddTrunk(2, 4, 3, 4, mkLatency())
	net.AddTrunk(3, 3, 4, 3, mkLatency())
	net.AddHost("h1", "cc:cc:cc:cc:cc:01", "10.0.0.1", 1, 1, nil)
	net.AddHost("h2", "cc:cc:cc:cc:cc:02", "10.0.0.2", 4, 1, nil,
		dataplane.WithOpenTCPPorts(80))

	ccfg := cluster.DefaultConfig(seed)
	ccfg.Metrics = net.ShardMetrics(0)
	cl := cluster.New(net, ccfg)

	tb := &ClusterTestbed{Net: net, Cluster: cl}
	for i := 0; i < replicas; i++ {
		ctl := net.Controller
		if i > 0 {
			// Extra replicas share the network's registry so merged
			// metrics aggregate the whole control plane, and the same
			// keychain so every replica verifies every other's LLDP.
			ctl = controller.New(net.ControlKernel(),
				controller.WithMetrics(net.ShardMetrics(0)),
				controller.WithKeychain(kc),
				controller.WithLLDPTimestamps(),
			)
		}
		r := cl.AddReplica(ctl)
		lcfg := tgplus.DefaultLLIConfig()
		lcfg.RequireControlEstimates = true
		lli := tgplus.NewLLI(lcfg)
		ctl.Register(topoguard.New())
		ctl.Register(tgplus.NewCMM(0))
		ctl.Register(lli)
		lli.Start()
		r.OnCrash(lli.Stop)
		r.OnRestart(lli.Start)
		tb.replicas = append(tb.replicas, clusterReplica{ctl: ctl, lli: lli})
	}

	// Mastership splits the line down the middle: the first half of the
	// switches on replica 0, the rest striped across the remaining
	// replicas.
	dpids := net.SwitchIDs()
	for i, dpid := range dpids {
		cl.SetMaster(dpid, i*replicas/len(dpids))
	}
	return tb, nil
}

// AlertTotal sums the alerts every replica has raised.
func (tb *ClusterTestbed) AlertTotal() int {
	total := 0
	for _, r := range tb.replicas {
		total += len(r.ctl.Alerts())
	}
	return total
}

// Close stops every replica's defense tickers and controllers.
func (tb *ClusterTestbed) Close() {
	for _, r := range tb.replicas {
		r.lli.Stop()
		r.ctl.Shutdown()
	}
	tb.Net.Shutdown()
}

// runClusterTrial is runTrial for the controller-crash class: warm a
// clustered testbed, kill a seeded replica, and watch every replica's
// topology view re-verify against the pre-crash baseline after the
// failover and the revival.
func runClusterTrial(s trialSpec, cfg Config) (TrialResult, *obs.Registry, error) {
	tb, err := NewClusterTestbed(s.seed, 2, nil)
	if err != nil {
		return TrialResult{}, nil, err
	}
	defer tb.Close()
	net := tb.Net
	cl := tb.Cluster

	if err := net.Run(2 * time.Second); err != nil {
		return TrialResult{}, nil, err
	}
	net.Host("h1").Ping(net.Host("h2").MAC(), net.Host("h2").IP(),
		2*time.Second, func(dataplane.ProbeResult) {})
	if err := net.Run(cfg.Warmup - 2*time.Second); err != nil {
		return TrialResult{}, nil, err
	}
	baseline := cl.LiveLinks()
	if len(baseline) == 0 {
		return TrialResult{}, nil, fmt.Errorf("chaos: cluster warmup discovered no links (seed %d)", s.seed)
	}
	alertsBefore := tb.AlertTotal()

	inj := NewInjector(net, s.seed)
	inj.BindCluster(cl)
	plan := inj.PlanFor(s.class)
	if len(plan) == 0 {
		return TrialResult{}, nil, fmt.Errorf("chaos: no plan for class %s", s.class)
	}
	inj.Apply(plan)
	res := TrialResult{Class: s.class, Seed: s.seed, FaultSpan: plan.End()}
	if err := net.Run(plan.End()); err != nil {
		return TrialResult{}, nil, err
	}

	// Recovered means the whole control plane healed: the crash's
	// failover reconverged AND the revived slave replayed back to the
	// pre-crash link set on every replica.
	for waited := time.Duration(0); waited < cfg.Horizon; waited += recoveryPollInterval {
		if clusterRecovered(tb, baseline) {
			res.Recovered = true
			res.RecoveryTime = waited
			break
		}
		if err := net.Run(recoveryPollInterval); err != nil {
			return TrialResult{}, nil, err
		}
	}
	res.FalseAlerts = tb.AlertTotal() - alertsBefore

	for _, r := range tb.replicas {
		r.lli.Stop()
	}
	if err := net.Run(10 * time.Second); err != nil {
		return TrialResult{}, nil, err
	}
	res.PendingLeaked = cl.PendingProbeTotal()
	return res, net.MergedMetrics(), nil
}

// clusterRecovered reports whether every replica is alive, at least one
// failover completed, and every replica's link view matches the
// baseline.
func clusterRecovered(tb *ClusterTestbed, baseline []controller.Link) bool {
	if len(tb.Cluster.Timelines()) == 0 {
		return false
	}
	want := make(map[controller.Link]bool, len(baseline))
	for _, l := range baseline {
		want[l] = true
	}
	for _, rep := range tb.Cluster.Replicas() {
		if !rep.Alive() {
			return false
		}
		links := rep.Ctl.Links()
		if len(links) != len(want) {
			return false
		}
		for _, l := range links {
			if !want[l] {
				return false
			}
		}
	}
	return true
}
