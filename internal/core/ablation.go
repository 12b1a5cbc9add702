package core

import (
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/controller"
	"sdntamper/internal/exp"
	"sdntamper/internal/stats"
	"sdntamper/internal/tgplus"
)

// LLIAblationRow reports one Link Latency Inspector configuration's
// behaviour on the Figure 9 testbed with an out-of-band attack starting
// at t=60s: how many benign-link measurements were falsely flagged, and
// whether (and how fast) the fabricated link was caught.
type LLIAblationRow struct {
	IQRMultiplier  float64
	WindowSize     int
	FalsePositives int
	BenignSamples  int
	Detected       bool
	// DetectionDelay is from attack start to the first alert.
	DetectionDelay time.Duration
	// BenignLinksIntact reports whether all real trunks survived in the
	// topology despite any false positives (the §VIII-A tolerance).
	BenignLinksIntact bool
}

// RunLLIAblation sweeps the outlier multiplier k in Q3 + k*IQR (the paper
// uses 3; 1.5 is Tukey's classical fence) and the store size, exposing
// the false-positive/detection-speed trade-off discussed in §VIII-A.
func RunLLIAblation(seed int64, multipliers []float64, windowSizes []int, runFor time.Duration) ([]LLIAblationRow, error) {
	if len(multipliers) == 0 {
		multipliers = []float64{1.5, 3, 6}
	}
	if len(windowSizes) == 0 {
		windowSizes = []int{100}
	}
	if runFor <= 0 {
		runFor = 4 * time.Minute
	}
	type lliConfig struct {
		k float64
		w int
	}
	configs := make([]lliConfig, 0, len(multipliers)*len(windowSizes))
	for _, k := range multipliers {
		for _, w := range windowSizes {
			configs = append(configs, lliConfig{k: k, w: w})
		}
	}
	// Each configuration owns a fresh scenario and kernel, so the sweep
	// shards cleanly across workers; the executor keeps grid order.
	return exp.Grid(configs, 0, func(cfg lliConfig) (LLIAblationRow, error) {
		return runOneLLIAblation(seed, cfg.k, cfg.w, runFor)
	})
}

func runOneLLIAblation(seed int64, k float64, window int, runFor time.Duration) (LLIAblationRow, error) {
	row := LLIAblationRow{IQRMultiplier: k, WindowSize: window}
	cfg := tgplus.DefaultLLIConfig()
	cfg.IQRMultiplier = k
	cfg.WindowSize = window
	def := TopoGuardPlus()
	def.LLIConfig = &cfg
	s := NewFig9Testbed(seed, def)
	defer s.Close()

	if err := s.Run(time.Minute); err != nil {
		return row, err
	}
	attackStart := s.Net.ControlKernel().Now()
	fab := attack.NewOOBFabrication(s.Net.ControlKernel(),
		s.Net.Host(HostAttackerA), s.Net.Host(HostAttackerB), s.OOB,
		attack.FabricationConfig{UseAmnesia: true})
	fab.Start()
	if err := s.Run(runFor - time.Minute); err != nil {
		return row, err
	}

	fabLink := FabricatedLinkFig9()
	for _, sample := range s.LLI().Samples() {
		isFab := sample.Link == fabLink || sample.Link == fabLink.Reverse()
		if isFab {
			if sample.Flagged && !row.Detected {
				row.Detected = true
				row.DetectionDelay = sample.At.Sub(attackStart)
			}
			continue
		}
		row.BenignSamples++
		if sample.Flagged {
			row.FalsePositives++
		}
	}
	row.BenignLinksIntact = true
	trunkPorts := map[uint64][2]uint32{1: {3, 3}, 2: {4, 4}, 3: {3, 3}}
	for dpid := uint64(1); dpid < 4; dpid++ {
		p := trunkPorts[dpid]
		l := controller.Link{
			Src: controller.PortRef{DPID: dpid, Port: p[0]},
			Dst: controller.PortRef{DPID: dpid + 1, Port: p[1]},
		}
		if !s.Controller().HasLink(l) {
			row.BenignLinksIntact = false
		}
	}
	return row, nil
}

// ControlAveragingRow reports the spread of inferred link latencies under
// one control-RTT averaging depth: more averaging lowers estimator
// variance, which is why §VI-D takes the mean of the latest three.
type ControlAveragingRow struct {
	ControlSamples int
	LatencyMean    time.Duration
	LatencyStd     time.Duration
}

// RunControlAveragingAblation compares 1-sample vs 3-sample (and more)
// control-link averaging by the spread of the benign-link latency
// estimates it produces.
func RunControlAveragingAblation(seed int64, depths []int, runFor time.Duration) ([]ControlAveragingRow, error) {
	if len(depths) == 0 {
		depths = []int{1, 3, 9}
	}
	if runFor <= 0 {
		runFor = 3 * time.Minute
	}
	return exp.Grid(depths, 0, func(n int) (ControlAveragingRow, error) {
		cfg := tgplus.DefaultLLIConfig()
		cfg.ControlSamples = n
		def := TopoGuardPlus()
		def.LLIConfig = &cfg
		s := NewFig9Testbed(seed, def)
		defer s.Close()
		if err := s.Run(runFor); err != nil {
			return ControlAveragingRow{}, err
		}
		var series stats.DurationSeries
		for _, sample := range s.LLI().Samples() {
			series.Add(sample.Latency)
		}
		return ControlAveragingRow{
			ControlSamples: n,
			LatencyMean:    series.Mean(),
			LatencyStd:     series.Std(),
		}, nil
	})
}
