package core

import (
	"fmt"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/stats"
)

// TimelineEvent is one labeled point on the Figure 3 hijack timeline,
// expressed as an offset from the victim going down.
type TimelineEvent struct {
	Name   string
	Offset time.Duration
}

// HijackDistributions aggregates the measurement points of Figures 5-8
// over many attack runs, each offset from the victim-down instant:
//
//	Fig 7: victim down -> start of the attacker's final (unanswered) ping
//	Fig 8: victim down -> that ping's timeout (attacker knows)
//	Fig 5: victim down -> attacker interface up as the victim
//	Fig 6: victim down -> controller Packet-In binding the identity
//
// plus the ifconfig identity-change durations (Figure 4 samples observed
// in situ).
type HijackDistributions struct {
	LastPingStart  stats.DurationSeries // Figure 7
	KnownOffline   stats.DurationSeries // Figure 8
	AttackerUp     stats.DurationSeries // Figure 5
	ControllerAck  stats.DurationSeries // Figure 6
	IdentityChange stats.DurationSeries // Figure 4 (in-attack samples)
	ProbeTimeouts  stats.DurationSeries // calibrated timeouts in use
	Failed         int
}

// hijackSeedStride spaces per-run kernel seeds; a prime keeps derived
// seeds from colliding across experiments that offset the base seed by
// small integers.
const hijackSeedStride = 7919

// merge folds one completed (or failed) run into the aggregate series.
// Trials must be merged in seed order so the aggregates are deterministic.
func (d *HijackDistributions) merge(o hijackOutcome) {
	if o.run == nil {
		d.Failed++
		return
	}
	down := o.run.victimDown
	d.LastPingStart.Add(o.run.timeline.LastPingStart.Sub(down))
	d.KnownOffline.Add(o.run.timeline.KnownOffline.Sub(down))
	d.AttackerUp.Add(o.run.timeline.IdentityChanged.Sub(down))
	d.ControllerAck.Add(o.run.timeline.ControllerAck.Sub(down))
	d.IdentityChange.Add(o.run.timeline.IdentityChangeTook)
	d.ProbeTimeouts.Add(o.timeout)
}

// RunHijackDistributions executes the port-probing hijack in fresh
// Figure 2 scenarios (TopoGuard and SPHINX both deployed, as in the
// paper's runs) and collects the timing distributions. withToolOverhead
// selects between the nmap-cost model (Table I's 133.5 ms ARP scan) and
// the mechanism-only measurement. Runs execute serially on the calling
// goroutine; RunHijackDistributionsParallel shards them across workers
// with bit-for-bit identical output.
func RunHijackDistributions(seed int64, runs int, withToolOverhead bool) (*HijackDistributions, error) {
	return RunHijackDistributionsParallel(seed, runs, withToolOverhead, 1)
}

type hijackRun struct {
	timeline   attack.Timeline
	victimDown time.Time
}

// runOneHijack executes one full port-probing hijack and returns its
// timeline, or nil if the attack did not complete in time.
func runOneHijack(seed int64, withToolOverhead bool) (*hijackRun, time.Duration, error) {
	s := NewFig2Scenario(seed, BothBaselines())
	defer s.Close()
	if err := s.Run(2 * time.Second); err != nil {
		return nil, 0, err
	}
	victim := s.Net.Host(HostVictim)
	attacker := s.Net.Host(HostAttackerA)
	client := s.Net.Host(HostClient)
	client.ARPPing(victim.IP(), time.Second, func(dataplane.ProbeResult) {})
	if err := s.Run(2 * time.Second); err != nil {
		return nil, 0, err
	}

	cfg := attack.DefaultHijackConfig(AttackerLocFig2())
	if !withToolOverhead {
		cfg.ToolOverhead = nil
	}
	hj := attack.NewHijack(s.Net.ControlKernel(), attacker, victim.IP(), cfg)
	s.Controller().Register(hj)
	var result *hijackRun
	hj.Start(func(tl attack.Timeline) {
		result = &hijackRun{timeline: tl}
	})
	// Let calibration and steady-state scanning establish, then take the
	// victim down at a random phase within the scan cycle so the
	// distributions sample the attacker's cadence uniformly.
	if err := s.Run(3 * time.Second); err != nil {
		return nil, 0, err
	}
	phase := time.Duration(s.Net.ControlKernel().Rand().Int63n(int64(cfg.ScanInterval)))
	if err := s.Run(phase); err != nil {
		return nil, 0, err
	}
	victimDown := s.Net.ControlKernel().Now()
	victim.InterfaceDown()
	if err := s.Run(10 * time.Second); err != nil {
		return nil, 0, err
	}
	if result == nil {
		return nil, 0, nil
	}
	result.victimDown = victimDown
	return result, hj.ProbeTimeout(), nil
}

// RunFig3Timeline runs one hijack and renders the Figure 3 event sequence
// as offsets from the victim going down.
func RunFig3Timeline(seed int64, withToolOverhead bool) ([]TimelineEvent, error) {
	run, timeout, err := runOneHijack(seed, withToolOverhead)
	if err != nil {
		return nil, err
	}
	if run == nil {
		return nil, fmt.Errorf("hijack did not complete")
	}
	tl := run.timeline
	return []TimelineEvent{
		{Name: "victim interface down", Offset: 0},
		{Name: "attacker's final (unanswered) probe starts", Offset: tl.LastPingStart.Sub(run.victimDown)},
		{Name: fmt.Sprintf("probe timeout (%s): attacker knows victim is gone", timeout), Offset: tl.KnownOffline.Sub(run.victimDown)},
		{Name: "attacker interface up with victim identity (ifconfig)", Offset: tl.IdentityChanged.Sub(run.victimDown)},
		{Name: "attacker originates traffic as victim", Offset: tl.TrafficSent.Sub(run.victimDown)},
		{Name: "controller Packet-In: HTS binds victim identity to attacker port", Offset: tl.ControllerAck.Sub(run.victimDown)},
	}, nil
}

// RunFig4 regenerates Figure 4: the distribution of ifconfig
// identity-change times over the given number of trials.
func RunFig4(seed int64, trials int) *stats.DurationSeries {
	if trials <= 0 {
		trials = 1000
	}
	s := NewFig2Scenario(seed, NoDefenses())
	defer s.Close()
	sampler := dataplane.DefaultIdentityChange()
	var series stats.DurationSeries
	for i := 0; i < trials; i++ {
		series.Add(sampler.Sample(s.Net.ControlKernel().Rand()))
	}
	return &series
}
