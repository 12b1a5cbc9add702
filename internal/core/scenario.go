// Package core is the experiment layer of the reproduction: it assembles
// the paper's network scenarios (Figures 1, 2 and 9), deploys the chosen
// defense stack, runs the attacks, and regenerates every table and figure
// of the evaluation as typed rows and series.
package core

import (
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/link"
	"sdntamper/internal/lldp"
	"sdntamper/internal/netsim"
	"sdntamper/internal/ratemon"
	"sdntamper/internal/sim"
	"sdntamper/internal/sphinx"
	"sdntamper/internal/tgplus"
	"sdntamper/internal/topoguard"
)

// Defenses selects which security modules a scenario deploys. The paper's
// TOPOGUARD+ configuration is TopoGuard + CMM + LLI.
type Defenses struct {
	TopoGuard bool
	Sphinx    bool
	CMM       bool
	LLI       bool
	RateMon   bool
	// LLIConfig overrides the Link Latency Inspector configuration
	// (nil uses tgplus.DefaultLLIConfig). Ablation experiments use it to
	// vary the IQR multiplier, window size and control averaging.
	LLIConfig *tgplus.LLIConfig
	// RateMonConfig overrides the rate monitor configuration (nil uses
	// ratemon.DefaultConfig). DoS experiments use it to match the
	// threshold to the modeled access-link bandwidth.
	RateMonConfig *ratemon.Config
}

// NoDefenses deploys a stock controller.
func NoDefenses() Defenses { return Defenses{} }

// TopoGuardOnly deploys the NDSS'15 defense alone.
func TopoGuardOnly() Defenses { return Defenses{TopoGuard: true} }

// SphinxOnly deploys the SPHINX surrogate alone.
func SphinxOnly() Defenses { return Defenses{Sphinx: true} }

// BothBaselines deploys TopoGuard and SPHINX together, the strongest
// pre-existing configuration the paper bypasses.
func BothBaselines() Defenses { return Defenses{TopoGuard: true, Sphinx: true} }

// TopoGuardPlus deploys the paper's full defense.
func TopoGuardPlus() Defenses { return Defenses{TopoGuard: true, CMM: true, LLI: true} }

// RateMonOnly deploys the rate-based DoS monitor alone.
func RateMonOnly() Defenses { return Defenses{RateMon: true} }

// FullStack deploys TOPOGUARD+ plus the rate-based DoS monitor: the
// strongest configuration, covering both topology tampering and
// volumetric flooding.
func FullStack() Defenses {
	return Defenses{TopoGuard: true, CMM: true, LLI: true, RateMon: true}
}

// Scenario is an assembled network with its deployed defense modules.
// The modules are reached through accessors (nil when not deployed).
type Scenario struct {
	Net *netsim.Network
	Def Defenses

	// OOB is the attackers' side channel, when the scenario has one.
	OOB *link.Channel

	modules defenseModules
}

// ShardedScenario is another name for Scenario, used by the perfbench
// module.
type ShardedScenario = Scenario

// Controller is a convenience accessor.
func (s *Scenario) Controller() *controller.Controller { return s.Net.Controller }

// TopoGuard exposes the deployed TopoGuard module.
func (s *Scenario) TopoGuard() *topoguard.TopoGuard { return s.modules.TopoGuard }

// Sphinx exposes the deployed SPHINX module.
func (s *Scenario) Sphinx() *sphinx.Sphinx { return s.modules.Sphinx }

// LLI exposes the deployed Link Latency Inspector.
func (s *Scenario) LLI() *tgplus.LLI { return s.modules.LLI }

// RateMon exposes the deployed rate monitor.
func (s *Scenario) RateMon() *ratemon.Monitor { return s.modules.RateMon }

// Run advances the scenario's virtual clock across all shards.
func (s *Scenario) Run(d time.Duration) error { return s.Net.Run(d) }

// Close stops background tickers.
func (s *Scenario) Close() {
	if s.modules.Sphinx != nil {
		s.modules.Sphinx.Stop()
	}
	if s.modules.LLI != nil {
		s.modules.LLI.Stop()
	}
	if s.modules.RateMon != nil {
		s.modules.RateMon.Stop()
	}
	s.Net.Shutdown()
}

// defenseOptions derives the controller options a defense stack needs
// (LLDP keychain, timestamped probes), shared by every scenario
// constructor.
func defenseOptions(def Defenses, extra []controller.Option) []controller.Option {
	opts := extra
	if def.TopoGuard || def.LLI {
		kc, err := lldp.NewKeychain([]byte("controller-lldp-secret"))
		if err == nil {
			opts = append(opts, controller.WithKeychain(kc))
		}
	}
	if def.LLI {
		opts = append(opts, controller.WithLLDPTimestamps())
	}
	return opts
}

// defenseModules holds the deployed security modules of a scenario.
type defenseModules struct {
	TopoGuard *topoguard.TopoGuard
	Sphinx    *sphinx.Sphinx
	CMM       *tgplus.CMM
	LLI       *tgplus.LLI
	RateMon   *ratemon.Monitor
}

// deployDefenses registers the selected modules on a controller. Call
// after switches are added so module tickers observe a populated network.
func deployDefenses(ctl *controller.Controller, def Defenses) defenseModules {
	var m defenseModules
	if def.TopoGuard {
		m.TopoGuard = topoguard.New()
		ctl.Register(m.TopoGuard)
	}
	if def.CMM {
		m.CMM = tgplus.NewCMM(0)
		ctl.Register(m.CMM)
	}
	if def.LLI {
		cfg := tgplus.DefaultLLIConfig()
		if def.LLIConfig != nil {
			cfg = *def.LLIConfig
		}
		m.LLI = tgplus.NewLLI(cfg)
		ctl.Register(m.LLI)
		m.LLI.Start()
	}
	if def.Sphinx {
		m.Sphinx = sphinx.New(sphinx.DefaultConfig())
		ctl.Register(m.Sphinx)
		m.Sphinx.Start()
	}
	if def.RateMon {
		cfg := ratemon.DefaultConfig()
		if def.RateMonConfig != nil {
			cfg = *def.RateMonConfig
		}
		m.RateMon = ratemon.New(cfg)
		ctl.Register(m.RateMon)
		m.RateMon.Start()
	}
	return m
}

// newScenario creates a one-shard network with the defense stack's
// controller options applied.
func newScenario(seed int64, def Defenses, extra ...controller.Option) *Scenario {
	return &Scenario{Net: netsim.New(seed, defenseOptions(def, extra)...), Def: def}
}

// deploy registers the selected modules. Call after switches are added so
// module tickers observe a populated network.
func (s *Scenario) deploy() { s.modules = deployDefenses(s.Net.Controller, s.Def) }

// Host link latency used in the evaluation testbed (all dataplane links
// are 5 ms in Figure 9).
func testbedHostLink() sim.Sampler {
	return sim.Normal{Mean: 5 * time.Millisecond, Std: 200 * time.Microsecond, Min: 4 * time.Millisecond}
}

// OOBLatency is the attackers' side-channel latency in Figure 9 (10 ms).
func OOBLatency() sim.Sampler {
	return sim.Normal{Mean: 10 * time.Millisecond, Std: 500 * time.Microsecond, Min: 8 * time.Millisecond}
}

// Fig1 well-known element names.
const (
	HostAttackerA = "attackerA"
	HostAttackerB = "attackerB"
	HostClient    = "client"
	HostServer    = "server"
	HostVictim    = "victim"
	HostZombie    = "zombie"
)

// NewFig1Scenario builds the Figure 1 link-fabrication setting: two
// switches with no physical trunk; the colluding hosts' fabricated link
// would be the only switch-switch path. A client and server provide
// victim traffic to man-in-the-middle.
//
// Layout: s0x1[p1=attackerA p2=client], s0x2[p1=attackerB p2=server],
// out-of-band channel attackerA <-> attackerB.
func NewFig1Scenario(seed int64, def Defenses, ctlOpts ...controller.Option) *Scenario {
	s := newScenario(seed, def, ctlOpts...)
	s.Net.AddSwitch(0x1, nil)
	s.Net.AddSwitch(0x2, nil)
	s.Net.AddHost(HostAttackerA, "aa:aa:aa:aa:aa:01", "10.0.0.11", 0x1, 1, testbedHostLink())
	s.Net.AddHost(HostClient, "cc:cc:cc:cc:cc:01", "10.0.0.1", 0x1, 2, testbedHostLink())
	s.Net.AddHost(HostAttackerB, "aa:aa:aa:aa:aa:02", "10.0.0.12", 0x2, 1, testbedHostLink())
	s.Net.AddHost(HostServer, "cc:cc:cc:cc:cc:02", "10.0.0.2", 0x2, 2, testbedHostLink(),
		dataplane.WithOpenTCPPorts(80))
	s.OOB = s.Net.AddOOBChannel(OOBLatency())
	s.deploy()
	return s
}

// FabricatedLinkAB is the link the Figure 1 attack fabricates (A-side
// port of switch 1 toward B-side port of switch 2).
func FabricatedLinkAB() controller.Link {
	return controller.Link{
		Src: controller.PortRef{DPID: 0x1, Port: 1},
		Dst: controller.PortRef{DPID: 0x2, Port: 1},
	}
}

// NewFig2Scenario builds the Figure 2 host-location hijacking setting:
// two switches joined by a trunk; the victim sits on switch 1 and will
// migrate to switch 2 port 4; the attacker sits on switch 2 port 5.
func NewFig2Scenario(seed int64, def Defenses, ctlOpts ...controller.Option) *Scenario {
	s := newScenario(seed, def, ctlOpts...)
	s.Net.AddSwitch(0x1, nil)
	s.Net.AddSwitch(0x2, nil)
	// A steady trunk: the paper's hijack analysis assumes minimal RTT
	// variance (micro-bursts are a property of the Figure 9 testbed).
	s.Net.AddTrunk(0x1, 3, 0x2, 3, sim.Normal{Mean: 5 * time.Millisecond, Std: 200 * time.Microsecond, Min: 4 * time.Millisecond})
	s.Net.AddHost(HostVictim, "aa:aa:aa:aa:aa:aa", "10.0.0.1", 0x1, 2, testbedHostLink(),
		dataplane.WithOpenTCPPorts(80))
	s.Net.AddHost(HostAttackerA, "bb:bb:bb:bb:bb:bb", "10.0.0.2", 0x2, 5, testbedHostLink())
	s.Net.AddHost(HostClient, "cc:cc:cc:cc:cc:01", "10.0.0.3", 0x1, 4, testbedHostLink())
	s.deploy()
	return s
}

// AttackerLocFig2 is the attacker's port in the Figure 2 scenario.
func AttackerLocFig2() controller.PortRef { return controller.PortRef{DPID: 0x2, Port: 5} }

// VictimNewLocFig2 is where the victim re-joins after migration.
func VictimNewLocFig2() controller.PortRef { return controller.PortRef{DPID: 0x2, Port: 4} }

// NewFig9Testbed builds the evaluation testbed of Figure 9: four switches
// in a line with 5 ms dataplane links, colluding hosts on the middle
// switches joined by a 10 ms out-of-band channel, and client/server
// endpoints on the outer switches.
func NewFig9Testbed(seed int64, def Defenses, ctlOpts ...controller.Option) *Scenario {
	s := newScenario(seed, def, ctlOpts...)
	for dpid := uint64(1); dpid <= 4; dpid++ {
		s.Net.AddSwitch(dpid, nil)
	}
	s.Net.AddTrunk(1, 3, 2, 3, netsim.TestbedTrunkLatency())
	s.Net.AddTrunk(2, 4, 3, 4, netsim.TestbedTrunkLatency())
	s.Net.AddTrunk(3, 3, 4, 3, netsim.TestbedTrunkLatency())
	s.Net.AddHost(HostClient, "cc:cc:cc:cc:cc:01", "10.0.0.1", 1, 1, testbedHostLink())
	s.Net.AddHost(HostAttackerA, "aa:aa:aa:aa:aa:01", "10.0.0.11", 2, 1, testbedHostLink())
	s.Net.AddHost(HostAttackerB, "aa:aa:aa:aa:aa:02", "10.0.0.12", 3, 1, testbedHostLink())
	s.Net.AddHost(HostServer, "cc:cc:cc:cc:cc:02", "10.0.0.2", 4, 1, testbedHostLink(),
		dataplane.WithOpenTCPPorts(80))
	s.OOB = s.Net.AddOOBChannel(OOBLatency())
	s.deploy()
	return s
}

// FabricatedLinkFig9 is the link fabricated between the colluding hosts'
// ports in the Figure 9 testbed.
func FabricatedLinkFig9() controller.Link {
	return controller.Link{
		Src: controller.PortRef{DPID: 2, Port: 1},
		Dst: controller.PortRef{DPID: 3, Port: 1},
	}
}

// NewShardedFatTreeScenario builds a k-ary fat-tree data center
// (Al-Fares et al.) under the selected defenses, with testbed-grade trunk
// and host link latencies: the scale setting for benchmarking discovery,
// reactive forwarding and defense overhead on topologies far larger than
// the paper's four-switch testbed (k=4 yields 20 switches and 16 hosts,
// k=8 yields 80 switches and 128 hosts). The controller and core tier sit
// on shard 0 and the pods are dealt round-robin over the remaining
// shards; every shard count produces the same simulation (see
// TestShardedByteIdentical).
func NewShardedFatTreeScenario(seed int64, k, shards int, def Defenses, ctlOpts ...controller.Option) (*Scenario, *netsim.FatTreeTopology) {
	s := &Scenario{Net: netsim.NewSharded(seed, shards, netsim.FatTreePartition(k, shards), defenseOptions(def, ctlOpts)...), Def: def}
	topo := netsim.BuildFatTreeOn(s.Net, k, netsim.TestbedTrunkLatency(), testbedHostLink())
	s.deploy()
	return s, topo
}
