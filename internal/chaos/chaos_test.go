package chaos

import (
	"strings"
	"testing"
	"time"

	"sdntamper/internal/link"
	"sdntamper/internal/obs/trace"
	"sdntamper/internal/sim"
	"sdntamper/internal/tgplus"
	"sdntamper/internal/topoguard"
)

// runTB advances a testbed's clock, failing the test on kernel errors.
func runTB(t *testing.T, tb *Testbed, d time.Duration) {
	t.Helper()
	if err := tb.Net.Run(d); err != nil {
		t.Fatal(err)
	}
}

func newTB(t *testing.T, seed int64) *Testbed {
	t.Helper()
	tb, err := NewTestbed(seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return tb
}

// alertReasonsAfter renders the distinct alert reasons raised after the
// given index, for failure messages.
func alertReasonsAfter(tb *Testbed, n int) string {
	var reasons []string
	for _, a := range tb.Net.Controller.Alerts()[n:] {
		reasons = append(reasons, a.Module+"/"+a.Reason)
	}
	return strings.Join(reasons, ", ")
}

// TestLLDPLossAgesOutLinkAndReverifies pins the paper's Table III timeout
// behavior under injected trunk loss: with every LLDP probe on one trunk
// dropped, the link survives until the 35 s Floodlight timeout, ages out,
// and — once the loss clears — re-verifies on a later discovery round.
// The episode must not trip the defenses: lost probes are silence, not
// evidence of tampering.
func TestLLDPLossAgesOutLinkAndReverifies(t *testing.T) {
	// Steady trunk latency: the Figure 9 micro-bursts can legitimately
	// trip the LLI, which would muddy the zero-spurious-alert assertion.
	tb, err := NewTestbedWith(11, sim.Normal{
		Mean: 5 * time.Millisecond, Std: 200 * time.Microsecond, Min: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	ctl := tb.Net.Controller
	runTB(t, tb, 40*time.Second)
	if got := len(ctl.Links()); got != 6 {
		t.Fatalf("warmed-up links = %d, want 3 trunks both ways", got)
	}
	baseline := ctl.Links()
	alertsBefore := len(ctl.Alerts())

	// Total loss on the first trunk (switch 1 <-> 2), long enough that
	// the last pre-loss refresh ages past the 35 s link timeout.
	inj := NewInjector(tb.Net, 11)
	trunk := tb.Net.Trunks()[0]
	inj.Inject(0, &LossEpisode{
		Targets: []LossyPath{trunk},
		Rate:    1.0,
		Length:  60 * time.Second,
	})

	// The last successful refresh was the t=30s discovery round, so the
	// 35 s timeout evicts at t=65s — 25 s into the loss episode.
	runTB(t, tb, 20*time.Second)
	if got := len(ctl.Links()); got != 6 {
		t.Fatalf("links dropped before the timeout horizon: %d", got)
	}
	runTB(t, tb, 30*time.Second) // t=90s: well past eviction
	links := ctl.Links()
	for _, l := range links {
		if (l.Src.DPID == 1 && l.Dst.DPID == 2) || (l.Src.DPID == 2 && l.Dst.DPID == 1) {
			t.Fatalf("lossy trunk's link %s survived past the link timeout", l)
		}
	}
	if got := len(links); got != 4 {
		t.Fatalf("links under loss = %d, want 4 (only the lossy trunk evicted)", got)
	}
	if trunk.Dropped() == 0 {
		t.Fatal("loss episode dropped nothing")
	}

	// Loss clears at t=60s; the next discovery round re-verifies.
	runTB(t, tb, 40*time.Second)
	if !linksEqual(ctl.Links(), baseline) {
		t.Fatalf("topology did not recover after loss cleared: %v", ctl.Links())
	}

	// Silence is not tampering: no defense module may have alerted.
	if got := len(ctl.Alerts()); got != alertsBefore {
		t.Fatalf("loss episode raised %d spurious alerts: %s",
			got-alertsBefore, alertReasonsAfter(tb, alertsBefore))
	}
}

// TestFlapStormEvictsAndRecovers drives a trunk's carrier down and up
// repeatedly: each down edge must evict the trunk's links via Port-Down,
// and after the storm the topology must fully re-verify.
func TestFlapStormEvictsAndRecovers(t *testing.T) {
	tb := newTB(t, 23)
	ctl := tb.Net.Controller
	runTB(t, tb, 40*time.Second)
	baseline := ctl.Links()

	inj := NewInjector(tb.Net, 23)
	inj.Inject(0, &FlapStorm{
		Target: tb.Net.Trunks()[1],
		End:    link.EndA,
		Flaps:  4,
		Down:   time.Second,
		Up:     2 * time.Second,
	})
	runTB(t, tb, 500*time.Millisecond) // mid first down-phase
	for _, l := range ctl.Links() {
		if (l.Src.DPID == 2 && l.Dst.DPID == 3) || (l.Src.DPID == 3 && l.Dst.DPID == 2) {
			t.Fatalf("flapped trunk's link %s survived a carrier-down", l)
		}
	}
	runTB(t, tb, 12*time.Second+20*time.Second) // storm over + rediscovery
	if !linksEqual(ctl.Links(), baseline) {
		t.Fatalf("topology did not recover after flap storm: %v", ctl.Links())
	}
	if got := tb.Net.MergedMetrics().Counter("chaos_carrier_flaps_total").Value(); got != 4 {
		t.Fatalf("flap counter = %d, want 4", got)
	}
}

// TestLatencySpikeRestoresSampler verifies the spike wraps and restores
// the trunk sampler, and that a hard spike trips the LLI (which is the
// defense doing its job — the experiment counts it as a false positive
// because no attacker is present).
func TestLatencySpikeRestoresSampler(t *testing.T) {
	tb := newTB(t, 31)
	runTB(t, tb, 40*time.Second)
	trunk := tb.Net.Trunks()[0]
	before := trunk.Latency()

	inj := NewInjector(tb.Net, 31)
	inj.Inject(0, &LatencySpike{
		Targets: []LatencyPath{trunk},
		Factor:  10,
		Length:  10 * time.Second,
	})
	runTB(t, tb, time.Second)
	if trunk.Latency() == before {
		t.Fatal("spike did not swap the sampler")
	}
	runTB(t, tb, 15*time.Second)
	if trunk.Latency() != before {
		t.Fatal("sampler not restored after the spike")
	}
}

// TestDisconnectFaultDrainsPendingProbes reconnects a switch after a
// blackout and requires the pending-probe tables to drain to zero: the
// regression this package exists to catch is a waiter leaked (or a
// timeout left uncancelled) across the disconnect.
func TestDisconnectFaultDrainsPendingProbes(t *testing.T) {
	tb := newTB(t, 47)
	ctl := tb.Net.Controller
	runTB(t, tb, 40*time.Second)

	inj := NewInjector(tb.Net, 47)
	inj.Inject(0, &Disconnect{DPID: 2, Down: 10 * time.Second})
	runTB(t, tb, 100*time.Millisecond)
	if got := len(ctl.Switches()); got != 3 {
		t.Fatalf("connected switches during blackout = %d", got)
	}
	// The LLI keeps probing the dead switch's neighbors throughout; its
	// probes to 2 were failed fast at disconnect.
	runTB(t, tb, 30*time.Second)
	if got := len(ctl.Switches()); got != 4 {
		t.Fatalf("switch did not reconnect: %d connected", got)
	}
	tb.LLI.Stop()
	runTB(t, tb, 10*time.Second)
	if got := ctl.PendingProbes(); got.Total() != 0 {
		t.Fatalf("pending probes leaked across disconnect: %+v", got)
	}
}

// TestInjectorPlansDeterministic pins that a (network, seed) pair always
// draws the same randomized plan.
func TestInjectorPlansDeterministic(t *testing.T) {
	for _, class := range Classes() {
		mk := func() Plan {
			if class == ClassControllerCrash {
				// The crash class draws against a clustered control plane.
				ctb, err := NewClusterTestbed(5, 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer ctb.Close()
				inj := NewInjector(ctb.Net, 99)
				inj.BindCluster(ctb.Cluster)
				return inj.PlanFor(class)
			}
			tb := newTB(t, 5)
			return NewInjector(tb.Net, 99).PlanFor(class)
		}
		a, b := mk(), mk()
		if len(a) != len(b) || len(a) == 0 {
			t.Fatalf("%s: plan lengths differ or empty: %d vs %d", class, len(a), len(b))
		}
		for i := range a {
			if a[i].After != b[i].After || a[i].Fault.Duration() != b[i].Fault.Duration() {
				t.Fatalf("%s: plans diverged at fault %d", class, i)
			}
		}
	}
}

func TestParseClasses(t *testing.T) {
	got, err := ParseClasses([]string{"flap-storm", "disconnect"})
	if err != nil || len(got) != 2 || got[0] != ClassFlapStorm || got[1] != ClassDisconnect {
		t.Fatalf("ParseClasses = %v, %v", got, err)
	}
	if _, err := ParseClasses([]string{"meteor-strike"}); err == nil {
		t.Fatal("unknown class accepted")
	}
}

// TestExperimentRunsAndChecksInvariants runs a small experiment end to
// end: every trial must recover, leak nothing, and the per-class rows
// must aggregate the trials.
func TestExperimentRunsAndChecksInvariants(t *testing.T) {
	res, reg, err := Run(Config{
		Classes: []Class{ClassFlapStorm, ClassDisconnect},
		Trials:  2,
		Workers: 2,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 4 || len(res.Classes) != 2 {
		t.Fatalf("result shape: %d trials, %d classes", len(res.Trials), len(res.Classes))
	}
	for _, tr := range res.Trials {
		if !tr.Recovered {
			t.Errorf("%s seed %d: topology never recovered", tr.Class, tr.Seed)
		}
		if tr.PendingLeaked != 0 {
			t.Errorf("%s seed %d: %d pending probes leaked", tr.Class, tr.Seed, tr.PendingLeaked)
		}
	}
	if reg == nil {
		t.Fatal("no merged registry")
	}
	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`chaos_faults_total{class="flap-storm"}`,
		`chaos_faults_total{class="disconnect"}`,
		"controller_switch_disconnect_total",
		"controller_switch_reconnect_total",
		"controller_probe_failed_total",
	} {
		if !strings.Contains(b.String(), series) {
			t.Fatalf("merged snapshot missing %s", series)
		}
	}
}

// TestChaosSnapshotByteIdentical is the determinism pin: one chaos
// experiment, rendered as Prometheus text, must be byte-for-byte
// identical between a serial run and an 8-worker run.
func TestChaosSnapshotByteIdentical(t *testing.T) {
	render := func(workers int) string {
		_, merged, err := Run(Config{
			Classes: []Class{ClassFlapStorm, ClassLossEpisode, ClassDisconnect},
			Trials:  2,
			Workers: workers,
			Seed:    3,
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := merged.Snapshot().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := render(1)
	if got := render(8); got != want {
		t.Fatalf("workers=8 chaos snapshot diverged from serial:\n--- serial ---\n%.2000s\n--- parallel ---\n%.2000s", want, got)
	}
}

// Interface satisfaction pins for the defense stack the testbed deploys.
var (
	_ = (*topoguard.TopoGuard)(nil)
	_ = (*tgplus.CMM)(nil)
)

// TestInjectEmitsOneFaultSpan pins the fault record of a traced run:
// every Inject yields exactly one chaos.fault span, stamped when the
// fault takes effect (not when it was armed), and the controller's
// reaction to a disconnect hangs under it.
func TestInjectEmitsOneFaultSpan(t *testing.T) {
	tb := newTB(t, 47)
	tb.Net.EnableTrace(0)
	runTB(t, tb, 40*time.Second)
	armed := tb.Net.ControlKernel().Elapsed()

	inj := NewInjector(tb.Net, 47)
	inj.Inject(0, &LatencySpike{Targets: []LatencyPath{tb.Net.Trunks()[0]}, Factor: 2, Length: 10 * time.Second})
	inj.Inject(3*time.Second, &Disconnect{DPID: 2, Down: 5 * time.Second})
	runTB(t, tb, 20*time.Second)

	spans := tb.Net.MergedSpans()
	faults := trace.FindByName(spans, "chaos.fault")
	want := []struct {
		detail string
		at     time.Duration
	}{
		{"#1 latency-spike for 10s", armed},
		{"#2 disconnect for 5s", armed + 3*time.Second},
	}
	if len(faults) != len(want) {
		t.Fatalf("%d chaos.fault spans, want %d: %+v", len(faults), len(want), faults)
	}
	for i, w := range want {
		f := faults[i]
		if f.Detail != w.detail || f.Start != int64(w.at) || f.End != f.Start {
			t.Errorf("fault %d = %q at [%d, %d], want %q at %d", i, f.Detail, f.Start, f.End, w.detail, int64(w.at))
		}
	}
	down := trace.FindByName(spans, "switch.disconnected")
	if len(down) != 1 || down[0].Entity != 2 {
		t.Fatalf("switch.disconnected spans = %+v, want one for switch 2", down)
	}
	chain := trace.Chain(spans, down[0].ID)
	if len(chain) < 2 || chain[len(chain)-2].ID != faults[1].ID {
		t.Fatalf("switch.disconnected does not hang under its fault: chain %+v", chain)
	}
}
