package chaos

import (
	"fmt"
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/exp"
	"sdntamper/internal/lldp"
	"sdntamper/internal/netsim"
	"sdntamper/internal/obs"
	"sdntamper/internal/sim"
	"sdntamper/internal/tgplus"
	"sdntamper/internal/topoguard"
)

// Testbed is the chaos evaluation network: the Figure 9 line of four
// switches and three trunks, two end hosts, and the full TopoGuard+
// defense stack (TopoGuard + CMM + LLI) over authenticated, timestamped
// LLDP. No attacker is present: every alert the defenses raise during a
// fault episode is a false positive.
type Testbed struct {
	Net       *netsim.Network
	TopoGuard *topoguard.TopoGuard
	CMM       *tgplus.CMM
	LLI       *tgplus.LLI
}

// NewTestbed assembles the chaos testbed on the given seed with the
// Figure 9 bursty trunk latency — the realistic setting, where the LLI's
// IQR threshold occasionally fires on genuine micro-bursts.
func NewTestbed(seed int64) (*Testbed, error) {
	return NewTestbedWith(seed, nil)
}

// NewTestbedWith assembles the testbed with a specific trunk latency
// sampler (nil for the Figure 9 default). Tests asserting zero spurious
// alerts pass a steady sampler so micro-bursts cannot trip the LLI.
func NewTestbedWith(seed int64, trunkLatency sim.Sampler) (*Testbed, error) {
	kc, err := lldp.NewKeychain([]byte("controller-lldp-secret"))
	if err != nil {
		return nil, err
	}
	net := netsim.New(seed,
		controller.WithKeychain(kc),
		controller.WithLLDPTimestamps(),
	)
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

	tb := &Testbed{
		Net:       net,
		TopoGuard: topoguard.New(),
		CMM:       tgplus.NewCMM(0),
		LLI:       tgplus.NewLLI(tgplus.DefaultLLIConfig()),
	}
	net.Controller.Register(tb.TopoGuard)
	net.Controller.Register(tb.CMM)
	net.Controller.Register(tb.LLI)
	tb.LLI.Start()
	return tb, nil
}

// Close stops background tickers.
func (tb *Testbed) Close() {
	tb.LLI.Stop()
	tb.Net.Shutdown()
}

// Config parameterizes a chaos experiment run.
type Config struct {
	// Classes selects the fault classes to exercise (default: all).
	Classes []Class
	// Trials is the number of seeded trials per class (default 5).
	Trials int
	// Workers shards trials across goroutines (<=0: one per CPU).
	Workers int
	// Seed is the base seed; per-trial seeds derive from it.
	Seed int64
	// Warmup runs before injection so discovery verifies every trunk and
	// the LLI builds its control estimates (default 40s — one Floodlight
	// link timeout plus slack).
	Warmup time.Duration
	// Horizon caps how long after the fault clears a trial waits for the
	// topology to recover (default 120s).
	Horizon time.Duration
}

func (c Config) withDefaults() Config {
	if len(c.Classes) == 0 {
		c.Classes = Classes()
	}
	if c.Trials <= 0 {
		c.Trials = 5
	}
	if c.Warmup <= 0 {
		c.Warmup = 40 * time.Second
	}
	if c.Horizon <= 0 {
		c.Horizon = 120 * time.Second
	}
	return c
}

// recoveryPollInterval is the watcher cadence comparing the live link set
// against the pre-fault baseline.
const recoveryPollInterval = 250 * time.Millisecond

// TrialResult is one trial's outcome.
type TrialResult struct {
	Class Class
	Seed  int64
	// FaultSpan is how long the injected scenario stayed active.
	FaultSpan time.Duration
	// Recovered reports whether the pre-fault link set was fully
	// re-verified within the horizon after the fault cleared.
	Recovered bool
	// RecoveryTime is the time from fault clearing to full recovery.
	RecoveryTime time.Duration
	// FalseAlerts counts defense alerts raised from injection to the end
	// of the watch window. With no attacker present, all are spurious.
	FalseAlerts int
	// PendingLeaked counts probe waiters still outstanding after the
	// trial drained — nonzero means a lifecycle leak.
	PendingLeaked int
}

// ClassResult aggregates one fault class.
type ClassResult struct {
	Class        Class
	Trials       int
	Recovered    int
	MeanRecovery time.Duration
	MaxRecovery  time.Duration
	FalseAlerts  int
}

// Result is a full chaos experiment outcome.
type Result struct {
	Trials  []TrialResult
	Classes []ClassResult
}

// trialSpec is one work item of the class x seed grid.
type trialSpec struct {
	class Class
	seed  int64
}

// Run executes the chaos experiment: per fault class, Trials seeded
// trials, each on a private kernel/registry, merged in item order so the
// combined snapshot is byte-identical for any worker count.
func Run(cfg Config) (*Result, *obs.Registry, error) {
	cfg = cfg.withDefaults()
	specs := make([]trialSpec, 0, len(cfg.Classes)*cfg.Trials)
	for ci, class := range cfg.Classes {
		for t := 0; t < cfg.Trials; t++ {
			specs = append(specs, trialSpec{
				class: class,
				seed:  cfg.Seed + int64(ci)*1_000_003 + int64(t)*7919,
			})
		}
	}
	trials, merged, err := exp.GridInstrumented(specs, cfg.Workers,
		func(s trialSpec) (TrialResult, *obs.Registry, error) {
			if s.class == ClassControllerCrash {
				return runClusterTrial(s, cfg)
			}
			return runTrial(s, cfg)
		})
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Trials: trials}
	for _, class := range cfg.Classes {
		cr := ClassResult{Class: class}
		var sum time.Duration
		for _, t := range trials {
			if t.Class != class {
				continue
			}
			cr.Trials++
			cr.FalseAlerts += t.FalseAlerts
			if t.Recovered {
				cr.Recovered++
				sum += t.RecoveryTime
				if t.RecoveryTime > cr.MaxRecovery {
					cr.MaxRecovery = t.RecoveryTime
				}
			}
		}
		if cr.Recovered > 0 {
			cr.MeanRecovery = sum / time.Duration(cr.Recovered)
		}
		res.Classes = append(res.Classes, cr)
	}
	return res, merged, nil
}

// runTrial warms one testbed, injects a randomized plan of the given
// class, then watches for the pre-fault topology to re-verify.
func runTrial(s trialSpec, cfg Config) (TrialResult, *obs.Registry, error) {
	tb, err := NewTestbed(s.seed)
	if err != nil {
		return TrialResult{}, nil, err
	}
	defer tb.Close()
	net := tb.Net
	ctl := net.Controller

	// Warm: discovery verifies the trunks, the LLI builds control
	// estimates, and one ping populates the host tracking service.
	if err := net.Run(2 * time.Second); err != nil {
		return TrialResult{}, nil, err
	}
	net.Host("h1").Ping(net.Host("h2").MAC(), net.Host("h2").IP(),
		2*time.Second, func(dataplane.ProbeResult) {})
	if err := net.Run(cfg.Warmup - 2*time.Second); err != nil {
		return TrialResult{}, nil, err
	}
	baseline := ctl.Links()
	if len(baseline) == 0 {
		return TrialResult{}, nil, fmt.Errorf("chaos: warmup discovered no links (seed %d)", s.seed)
	}
	alertsBefore := len(ctl.Alerts())

	inj := NewInjector(net, s.seed)
	plan := inj.PlanFor(s.class)
	if len(plan) == 0 {
		return TrialResult{}, nil, fmt.Errorf("chaos: no plan for class %s", s.class)
	}
	inj.Apply(plan)
	res := TrialResult{Class: s.class, Seed: s.seed, FaultSpan: plan.End()}
	if err := net.Run(plan.End()); err != nil {
		return TrialResult{}, nil, err
	}

	// Watch: poll until every baseline link is back, or give up at the
	// horizon. Recovery time runs from the instant the fault cleared.
	for waited := time.Duration(0); waited < cfg.Horizon; waited += recoveryPollInterval {
		if linksEqual(ctl.Links(), baseline) {
			res.Recovered = true
			res.RecoveryTime = waited
			break
		}
		if err := net.Run(recoveryPollInterval); err != nil {
			return TrialResult{}, nil, err
		}
	}
	res.FalseAlerts = len(ctl.Alerts()) - alertsBefore

	// Drain: stop periodic probing, let in-flight probes resolve or time
	// out, then check the pending tables for leaks.
	tb.LLI.Stop()
	if err := net.Run(10 * time.Second); err != nil {
		return TrialResult{}, nil, err
	}
	res.PendingLeaked = ctl.PendingProbes().Total()
	return res, net.MergedMetrics(), nil
}

// linksEqual compares two sorted link snapshots.
func linksEqual(a, b []controller.Link) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
