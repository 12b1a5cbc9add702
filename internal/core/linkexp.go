package core

import (
	"fmt"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/controller"
	"sdntamper/internal/lldp"
	"sdntamper/internal/stats"
	"sdntamper/internal/tgplus"
)

// RunFig10 regenerates Figure 10: the Link Latency Inspector's
// measurements of the testbed's real switch links. It runs the Figure 9
// testbed with TopoGuard+ until every trunk direction has at least
// samplesPerLink measurements (the paper records 100 per link) and
// returns the per-link series.
func RunFig10(seed int64, samplesPerLink int) (map[controller.Link]*stats.DurationSeries, error) {
	if samplesPerLink <= 0 {
		samplesPerLink = 100
	}
	s := NewFig9Testbed(seed, TopoGuardPlus())
	defer s.Close()

	trunks := []controller.Link{
		{Src: controller.PortRef{DPID: 1, Port: 3}, Dst: controller.PortRef{DPID: 2, Port: 3}},
		{Src: controller.PortRef{DPID: 2, Port: 4}, Dst: controller.PortRef{DPID: 3, Port: 4}},
		{Src: controller.PortRef{DPID: 3, Port: 3}, Dst: controller.PortRef{DPID: 4, Port: 3}},
	}
	need := func() bool {
		for _, l := range trunks {
			if len(s.LLI().SamplesForLink(l)) < samplesPerLink {
				return true
			}
		}
		return false
	}
	deadline := 400 * samplesPerLink // seconds; 15s per probe round plus slack
	for i := 0; need() && i < deadline; i++ {
		if err := s.Run(15 * time.Second); err != nil {
			return nil, err
		}
	}
	out := make(map[controller.Link]*stats.DurationSeries, len(trunks))
	for _, l := range trunks {
		series := &stats.DurationSeries{}
		for i, sample := range s.LLI().SamplesForLink(l) {
			if i >= samplesPerLink {
				break
			}
			series.Add(sample.Latency)
		}
		out[l] = series
	}
	return out, nil
}

// Fig11Point is one LLI observation over time: the measured latency, the
// threshold in force, and whether the measurement was flagged.
type Fig11Point struct {
	At        time.Duration // since scenario start
	Link      controller.Link
	Latency   time.Duration
	Threshold time.Duration
	Flagged   bool
}

// Fig11Result carries the Figure 11/13 series and the alerts raised.
type Fig11Result struct {
	Points []Fig11Point
	Alerts []controller.Alert
	// FabricatedBlocked reports whether the fabricated link was kept out
	// of the topology at the end of the run.
	FabricatedBlocked bool
}

// RunFig11 regenerates Figure 11 (threshold distribution vs measured link
// latencies) and Figure 13 (the alerts for the fabricated link): the
// Figure 9 testbed runs with TopoGuard+ for the given duration, and the
// colluding hosts start an out-of-band fabrication attack one minute
// after bootstrap, exactly as in the paper's evaluation.
func RunFig11(seed int64, total time.Duration) (*Fig11Result, error) {
	if total <= 0 {
		total = 5 * time.Minute
	}
	s := NewFig9Testbed(seed, TopoGuardPlus())
	defer s.Close()
	start := s.Net.ControlKernel().Now()

	if err := s.Run(time.Minute); err != nil {
		return nil, err
	}
	fab := attack.NewOOBFabrication(s.Net.ControlKernel(),
		s.Net.Host(HostAttackerA), s.Net.Host(HostAttackerB), s.OOB,
		attack.FabricationConfig{UseAmnesia: true})
	fab.Start()
	if err := s.Run(total - time.Minute); err != nil {
		return nil, err
	}

	res := &Fig11Result{
		Alerts: s.Controller().AlertsByReason(tgplus.ReasonAbnormalDelay),
		FabricatedBlocked: !s.Controller().HasLink(FabricatedLinkFig9()) &&
			!s.Controller().HasLink(FabricatedLinkFig9().Reverse()),
	}
	for _, sample := range s.LLI().Samples() {
		res.Points = append(res.Points, Fig11Point{
			At:        sample.At.Sub(start),
			Link:      sample.Link,
			Latency:   sample.Latency,
			Threshold: sample.Threshold,
			Flagged:   sample.Flagged,
		})
	}
	return res, nil
}

// RunFig12 regenerates Figure 12: the CMM alert log produced by an
// in-band port amnesia attack against TopoGuard+.
func RunFig12(seed int64, total time.Duration) ([]controller.Alert, error) {
	if total <= 0 {
		total = 2 * time.Minute
	}
	s := NewFig9Testbed(seed, TopoGuardPlus())
	defer s.Close()
	if err := s.Run(2 * time.Second); err != nil {
		return nil, err
	}
	fab := attack.NewInBandFabrication(s.Net.ControlKernel(),
		s.Net.Host(HostAttackerA), s.Net.Host(HostAttackerB), 0)
	fab.Start()
	if err := s.Run(total); err != nil {
		return nil, err
	}
	return s.Controller().AlertsByReason(tgplus.ReasonControlMessage), nil
}

// RunFig13 regenerates Figure 13: the LLI alert log produced by an
// out-of-band fabricated link against TopoGuard+.
func RunFig13(seed int64, total time.Duration) ([]controller.Alert, error) {
	res, err := RunFig11(seed, total)
	if err != nil {
		return nil, err
	}
	return res.Alerts, nil
}

// InBandLatencyResult compares propagation latency of real trunks against
// the in-band fabricated link (Section V-A: each context switch adds at
// least the 16 ms link-pulse interval to the relay).
type InBandLatencyResult struct {
	RealTrunk  stats.DurationSeries
	Fabricated stats.DurationSeries
	CyclesA    int
	CyclesB    int
}

// propagationRecorder measures raw LLDP propagation (receive - send) per
// link on an undefended controller.
type propagationRecorder struct {
	fabricated controller.Link
	real       stats.DurationSeries
	fab        stats.DurationSeries
}

func (r *propagationRecorder) ModuleName() string { return "experiment/propagation-recorder" }

func (r *propagationRecorder) ObserveLink(ev *controller.LinkEvent) {
	d := ev.ReceivedAt.Sub(ev.SentAt)
	if ev.Link == r.fabricated || ev.Link == r.fabricated.Reverse() {
		r.fab.Add(d)
		return
	}
	r.real.Add(d)
}

// RunInBandLatency measures the latency penalty of the in-band fabricated
// link on an undefended Figure 9 testbed.
func RunInBandLatency(seed int64, total time.Duration) (*InBandLatencyResult, error) {
	if total <= 0 {
		total = 3 * time.Minute
	}
	// Timestamped (but unenforced) LLDP: propagation is measured from
	// each frame's own sealed departure time, so a relayed frame reports
	// its true delay even when the controller has since emitted fresher
	// probes for the same origin port.
	kc, err := lldp.NewKeychain([]byte("measurement-keys"))
	if err != nil {
		return nil, err
	}
	s := NewFig9Testbed(seed, NoDefenses(),
		controller.WithKeychain(kc), controller.WithLLDPTimestamps())
	defer s.Close()
	rec := &propagationRecorder{fabricated: FabricatedLinkFig9()}
	s.Controller().Register(rec)
	if err := s.Run(2 * time.Second); err != nil {
		return nil, err
	}
	fab := attack.NewInBandFabrication(s.Net.ControlKernel(),
		s.Net.Host(HostAttackerA), s.Net.Host(HostAttackerB), 0)
	fab.Start()
	if err := s.Run(total); err != nil {
		return nil, err
	}
	if rec.fab.N() == 0 {
		return nil, fmt.Errorf("in-band attack produced no fabricated-link observations")
	}
	a, b := fab.Cycles()
	return &InBandLatencyResult{RealTrunk: rec.real, Fabricated: rec.fab, CyclesA: a, CyclesB: b}, nil
}
