package core

import (
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/controller"
	"sdntamper/internal/exp"
)

// DowntimeWindowRow reports, for one victim-downtime duration, how often
// the port-probing hijack completes inside the window and how much of
// the window remains for the attacker to exploit (Section IV-B2's
// analysis: seconds-scale live-migration windows vs minutes-to-hours
// maintenance windows).
type DowntimeWindowRow struct {
	Window         time.Duration
	Runs           int
	CompletedIn    int
	SuccessRate    float64
	MeanUsable     time.Duration // window minus completion time, successful runs
	UsableFraction float64
}

// RunDowntimeWindows post-processes hijack completion times against
// candidate migration windows. withToolOverhead selects the attack cost
// model as in RunHijackDistributions.
func RunDowntimeWindows(seed int64, runs int, withToolOverhead bool, windows []time.Duration) ([]DowntimeWindowRow, error) {
	if len(windows) == 0 {
		windows = []time.Duration{500 * time.Millisecond, time.Second, 3 * time.Second, 10 * time.Second, time.Minute}
	}
	d, err := RunHijackDistributionsParallel(seed, runs, withToolOverhead, 0)
	if err != nil {
		return nil, err
	}
	completions := d.ControllerAck.Samples()
	rows := make([]DowntimeWindowRow, 0, len(windows))
	for _, w := range windows {
		row := DowntimeWindowRow{Window: w, Runs: len(completions) + d.Failed}
		var usable time.Duration
		for _, c := range completions {
			if c <= w {
				row.CompletedIn++
				usable += w - c
			}
		}
		if row.Runs > 0 {
			row.SuccessRate = float64(row.CompletedIn) / float64(row.Runs)
		}
		if row.CompletedIn > 0 {
			row.MeanUsable = usable / time.Duration(row.CompletedIn)
			row.UsableFraction = float64(row.MeanUsable) / float64(w)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ProfileSweepRow reports how one controller profile's timing constants
// (Table III) shape the fabrication attack: how quickly a relayed link
// enters the topology, and how long a dead one lingers.
type ProfileSweepRow struct {
	Controller string
	// TimeToFabricate is from relay start to the link entering topology.
	TimeToFabricate time.Duration
	// LingerAfterStop is from relay stop to the link's eviction.
	LingerAfterStop time.Duration
}

// RunProfileSweep runs the OOB fabrication attack under each controller
// profile from Table III. Shorter discovery intervals hand the attacker a
// fresher relay supply (faster fabrication) but also evict the forged
// link sooner once relaying stops. Profiles run as independent trials on
// the executor; row order follows Table III regardless of scheduling.
func RunProfileSweep(seed int64) ([]ProfileSweepRow, error) {
	return exp.Grid(controller.Profiles(), 0, func(prof controller.Profile) (ProfileSweepRow, error) {
		return runOneProfile(seed, prof)
	})
}

func runOneProfile(seed int64, prof controller.Profile) (ProfileSweepRow, error) {
	row := ProfileSweepRow{Controller: prof.Name}
	s := NewFig9Testbed(seed, NoDefenses(), controller.WithProfile(prof))
	defer s.Close()
	if err := s.Run(2 * time.Second); err != nil {
		return row, err
	}
	a := s.Net.Host(HostAttackerA)
	b := s.Net.Host(HostAttackerB)
	fab := attack.NewOOBFabrication(s.Net.ControlKernel(), a, b, s.OOB,
		attack.FabricationConfig{UseAmnesia: true, SettleDelay: 100 * time.Millisecond})
	start := s.Net.ControlKernel().Now()
	fab.Start()

	fabricatedAt, err := runUntil(s, 3*prof.DiscoveryInterval+5*time.Second, func() bool {
		return s.Controller().HasLink(FabricatedLinkFig9())
	})
	if err != nil {
		return row, err
	}
	if fabricatedAt.IsZero() {
		row.TimeToFabricate = -1
		return row, nil
	}
	row.TimeToFabricate = fabricatedAt.Sub(start)

	// Stand down and watch the link age out.
	a.OnFrame = nil
	b.OnFrame = nil
	stopAt := s.Net.ControlKernel().Now()
	evictedAt, err := runUntil(s, prof.LinkTimeout+prof.DiscoveryInterval+5*time.Second, func() bool {
		return !s.Controller().HasLink(FabricatedLinkFig9()) &&
			!s.Controller().HasLink(FabricatedLinkFig9().Reverse())
	})
	if err != nil {
		return row, err
	}
	if evictedAt.IsZero() {
		row.LingerAfterStop = -1
		return row, nil
	}
	row.LingerAfterStop = evictedAt.Sub(stopAt)
	return row, nil
}

// runUntil advances the scenario in small steps until cond holds or the
// budget is exhausted, returning the virtual time at which cond first
// held (zero if never).
func runUntil(s *Scenario, budget time.Duration, cond func() bool) (time.Time, error) {
	const step = 250 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < budget; elapsed += step {
		if cond() {
			return s.Net.ControlKernel().Now(), nil
		}
		if err := s.Run(step); err != nil {
			return time.Time{}, err
		}
	}
	if cond() {
		return s.Net.ControlKernel().Now(), nil
	}
	return time.Time{}, nil
}
