package core

import (
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/ids"
	"sdntamper/internal/probe"
	"sdntamper/internal/sim"
)

// ScanDetectionRow is one row of the Section V-B2 scan-rate sweep: a
// probe type run at a fixed rate against a victim whose link a Snort
// surrogate monitors.
type ScanDetectionRow struct {
	Probe      string
	RatePerSec float64
	Scans      int
	IDSAlerts  int
	Detected   bool
}

// RunScanDetection reproduces the Section V-B2 result: TCP SYN scans
// trigger the ET ruleset above 2 scans per second, while ARP probes pass
// undetected even at the paper's 1-per-50ms attack rate.
func RunScanDetection(seed int64, duration time.Duration) ([]ScanDetectionRow, error) {
	if duration <= 0 {
		duration = 30 * time.Second
	}
	var rows []ScanDetectionRow
	synRates := []float64{0.5, 1, 2, 4, 8}
	for i, rate := range synRates {
		row, err := runScanAtRate(seed+int64(i), probe.TCPSYN, rate, duration)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	arpRow, err := runScanAtRate(seed+100, probe.ARPPing, 20, duration) // 1 per 50ms
	if err != nil {
		return nil, err
	}
	rows = append(rows, arpRow)
	return rows, nil
}

func runScanAtRate(seed int64, typ probe.Type, ratePerSec float64, duration time.Duration) (ScanDetectionRow, error) {
	row := ScanDetectionRow{Probe: typ.String(), RatePerSec: ratePerSec}
	s := NewFig2Scenario(seed, NoDefenses())
	defer s.Close()
	if err := s.Run(2 * time.Second); err != nil {
		return row, err
	}
	victim := s.Net.Host(HostVictim)
	attacker := s.Net.Host(HostAttackerA)

	sensor := ids.NewSensor(s.Net.ControlKernel())
	sensor.TapHost(victim)

	p := probe.New(s.Net.ControlKernel(), attacker, typ, probe.WithOverhead(sim.Const(0)))
	target := probe.Target{MAC: victim.MAC(), IP: victim.IP(), Port: 80}
	interval := time.Duration(float64(time.Second) / ratePerSec)
	scans := 0
	ticker := s.Net.ControlKernel().NewTicker(interval, func() {
		scans++
		_ = p.Probe(target, 200*time.Millisecond, func(probe.Result) {})
	})
	if err := s.Run(duration); err != nil {
		return row, err
	}
	ticker.Stop()
	if err := s.Run(time.Second); err != nil {
		return row, err
	}

	row.Scans = scans
	row.IDSAlerts = len(sensor.Alerts())
	row.Detected = row.IDSAlerts > 0
	return row, nil
}

// ProbeTimeoutDerivation carries the Section V-B1 numbers: the RTT model,
// the derived quantile timeout, the paper's rounded choice, and the
// simulated false-positive rate at each.
type ProbeTimeoutDerivation struct {
	RTTMeanMillis    float64
	RTTStdMillis     float64
	DerivedTimeout   time.Duration
	PaperTimeout     time.Duration
	FPRAtDerived     float64
	FPRAtPaperChoice float64
}

// RunProbeTimeoutDerivation reproduces the Section V-B1 computation.
func RunProbeTimeoutDerivation(seed int64) ProbeTimeoutDerivation {
	model := probe.PaperRTTModel()
	derived := probe.DeriveTimeout(model, 0.01, 100000, seed)
	return ProbeTimeoutDerivation{
		RTTMeanMillis:    20,
		RTTStdMillis:     5,
		DerivedTimeout:   derived,
		PaperTimeout:     probe.PaperTimeout,
		FPRAtDerived:     probe.FalsePositiveRate(model, derived, 100000, seed+1),
		FPRAtPaperChoice: probe.FalsePositiveRate(model, probe.PaperTimeout, 100000, seed+2),
	}
}

// AlertFloodResult summarizes the alert-flood experiment.
type AlertFloodResult struct {
	DurationSecs   float64
	SpoofedFrames  int
	AlertsRaised   int
	AlertsPerSec   float64
	BindingsMoved  int
	VictimBindings int
}

// RunAlertFlood measures how fast a single spoofing host can generate
// defense alerts, and confirms the alerts change no controller state
// (Section IV-B, "Alert Floods").
func RunAlertFlood(seed int64, duration time.Duration) (*AlertFloodResult, error) {
	if duration <= 0 {
		duration = 10 * time.Second
	}
	s := NewFig2Scenario(seed, BothBaselines())
	defer s.Close()
	if err := seedFig2Bindings(s); err != nil {
		return nil, err
	}
	victim := s.Net.Host(HostVictim)
	client := s.Net.Host(HostClient)
	attacker := s.Net.Host(HostAttackerA)
	victimLoc := s.Net.HostLocation(HostVictim)
	clientLoc := s.Net.HostLocation(HostClient)

	baseline := len(s.Controller().Alerts())
	victims := []attack.SpoofTarget{
		{MAC: victim.MAC(), IP: victim.IP()},
		{MAC: client.MAC(), IP: client.IP()},
	}
	flood := attack.NewAlertFlood(s.Net.ControlKernel(), []*dataplane.Host{attacker}, victims, 10*time.Millisecond)
	flood.Start()
	if err := s.Run(duration); err != nil {
		return nil, err
	}
	flood.Stop()

	res := &AlertFloodResult{
		DurationSecs:  duration.Seconds(),
		SpoofedFrames: flood.Sent(),
		AlertsRaised:  len(s.Controller().Alerts()) - baseline,
	}
	res.AlertsPerSec = float64(res.AlertsRaised) / duration.Seconds()
	if e, ok := s.Controller().HostByMAC(victim.MAC()); !ok || e.Loc != victimLoc {
		res.BindingsMoved++
	}
	if e, ok := s.Controller().HostByMAC(client.MAC()); !ok || e.Loc != clientLoc {
		res.BindingsMoved++
	}
	res.VictimBindings = 2
	return res, nil
}
