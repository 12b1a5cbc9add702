package chaos_test

import (
	"testing"
	"time"

	"sdntamper/internal/chaos"
	"sdntamper/internal/cluster"
	"sdntamper/internal/sim"
)

// steadyTrunk is a jitter-free-enough trunk sampler: micro-burst-free,
// so any defense alert in these tests is a genuine false positive.
func steadyTrunk() sim.Sampler {
	return sim.Normal{Mean: 5 * time.Millisecond, Std: 200 * time.Microsecond, Min: 4 * time.Millisecond}
}

// warmCluster assembles a clustered testbed and runs warmup: discovery
// verifies the trunks on both masters and one ping populates the HTS.
func warmCluster(t *testing.T, seed int64) *chaos.ClusterTestbed {
	t.Helper()
	tb, err := chaos.NewClusterTestbed(seed, 2, steadyTrunk())
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Net.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestClusterWarmupSplitMastership: the partitioned control plane
// discovers the full Figure 9 topology — including the trunks whose two
// LLDP directions land on different replicas — and the replicated store
// gives every replica the global view.
func TestClusterWarmupSplitMastership(t *testing.T) {
	tb := warmCluster(t, 11)
	defer tb.Close()
	if m, _ := tb.Cluster.MasterOf(2); m != 0 {
		t.Fatalf("switch 2 master = %d, want 0", m)
	}
	if m, _ := tb.Cluster.MasterOf(3); m != 1 {
		t.Fatalf("switch 3 master = %d, want 1", m)
	}
	// 3 trunks x 2 directions.
	if n := len(tb.Cluster.LiveLinks()); n != 6 {
		t.Fatalf("replicated store has %d links, want 6", n)
	}
	for _, r := range tb.Cluster.Replicas() {
		if n := len(r.Ctl.Links()); n != 6 {
			t.Fatalf("replica %d sees %d links, want 6 (replication)", r.ID, n)
		}
		if n := len(r.Ctl.Switches()); n != 2 {
			t.Fatalf("replica %d masters %d switches, want 2", r.ID, n)
		}
	}
	if n := tb.AlertTotal(); n != 0 {
		t.Fatalf("%d spurious alerts during clustered warmup", n)
	}
}

// TestFailoverReconverges: crashing replica 1 hands its switches to
// replica 0 after the deterministic election, the replayed state plus
// fresh LLDP reconverges the survivor, no probe leaks, no false alerts.
func TestFailoverReconverges(t *testing.T) {
	tb := warmCluster(t, 12)
	defer tb.Close()
	cl := tb.Cluster
	alertsBefore := tb.AlertTotal()

	if !cl.Crash(1) {
		t.Fatal("Crash(1) reported no-op")
	}
	if err := tb.Net.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	tls := cl.Timelines()
	if len(tls) != 1 {
		t.Fatalf("timelines = %d, want 1 completed failover", len(tls))
	}
	tl := tls[0]
	if tl.CrashedReplica != 1 || tl.Winner != 0 {
		t.Fatalf("failover %d -> %d, want 1 -> 0", tl.CrashedReplica, tl.Winner)
	}
	if len(tl.Orphans) != 2 || tl.Orphans[0] != 3 || tl.Orphans[1] != 4 {
		t.Fatalf("orphans = %v, want [3 4]", tl.Orphans)
	}
	if !tl.ElectionAt.After(tl.CrashAt) || !tl.HandoverAt.After(tl.ElectionAt) || !tl.ReconvergedAt.After(tl.HandoverAt) {
		t.Fatalf("timeline out of order: %+v", tl)
	}
	if d := tl.Reconvergence(); d <= 0 || d > 3*time.Second {
		t.Fatalf("reconvergence = %v, want bounded (0, 3s]", d)
	}
	// The winner now masters everything and re-verified every link.
	if n := len(cl.Replica(0).Ctl.Switches()); n != 4 {
		t.Fatalf("winner masters %d switches, want 4", n)
	}
	for _, dpid := range []uint64{3, 4} {
		if m, _ := cl.MasterOf(dpid); m != 0 {
			t.Fatalf("switch %d master = %d, want 0 after handover", dpid, m)
		}
	}
	if n := len(cl.Replica(0).Ctl.Links()); n != 6 {
		t.Fatalf("winner sees %d links, want 6", n)
	}
	// Zero leaked probes on every replica, zero spurious verdicts.
	if n := cl.PendingProbeTotal(); n != 0 {
		t.Fatalf("leaked pending probes: %d", n)
	}
	if n := tb.AlertTotal() - alertsBefore; n != 0 {
		t.Fatalf("%d spurious alerts during failover", n)
	}
	// The histogram observed exactly this failover.
	hist := tb.Net.MergedMetrics().Histogram(cluster.MetricFailover)
	if hist.Count() != 1 {
		t.Fatalf("cluster_failover_ns count = %d, want 1", hist.Count())
	}
}

// TestFailoverSpanTimeline: the failover records the causal span chain
// election.start -> role.handover -> state.replay -> rediscovery.done.
func TestFailoverSpanTimeline(t *testing.T) {
	tb, err := chaos.NewClusterTestbed(13, 2, steadyTrunk())
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.Net.EnableTrace(0)
	tr := tb.Net.ShardTracer(0)
	tb.Cluster.SetTracer(tr)
	if err := tb.Net.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	tb.Cluster.Crash(1)
	if err := tb.Net.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	byName := map[string]uint64{} // name -> span ID
	parent := map[string]uint64{} // name -> parent ID
	for _, s := range tr.Spans() {
		switch s.Name {
		case "election.start", "role.handover", "state.replay", "rediscovery.done":
			byName[s.Name] = s.ID
			parent[s.Name] = s.Parent
		}
	}
	for _, name := range []string{"election.start", "role.handover", "state.replay", "rediscovery.done"} {
		if byName[name] == 0 {
			t.Fatalf("missing span %s (got %v)", name, byName)
		}
	}
	if parent["role.handover"] != byName["election.start"] {
		t.Fatal("role.handover not chained under election.start")
	}
	if parent["state.replay"] != byName["role.handover"] {
		t.Fatal("state.replay not chained under role.handover")
	}
	if parent["rediscovery.done"] != byName["state.replay"] {
		t.Fatal("rediscovery.done not chained under state.replay")
	}
}

// TestRestartRejoinsAsSlave: a revived replica replays the store, holds
// no mastership, and keeps its view current through replication.
func TestRestartRejoinsAsSlave(t *testing.T) {
	tb := warmCluster(t, 14)
	defer tb.Close()
	cl := tb.Cluster
	cl.Crash(0)
	if err := tb.Net.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !cl.Restart(0) {
		t.Fatal("Restart(0) reported no-op")
	}
	if err := tb.Net.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	r0 := cl.Replica(0)
	if !r0.Alive() {
		t.Fatal("replica 0 not alive after restart")
	}
	if n := len(r0.Ctl.Switches()); n != 0 {
		t.Fatalf("revived slave masters %d switches, want 0", n)
	}
	for dpid := uint64(1); dpid <= 4; dpid++ {
		if m, _ := cl.MasterOf(dpid); m != 1 {
			t.Fatalf("switch %d master = %d, want 1", dpid, m)
		}
	}
	// The replayed + replicated view matches the store, and stays fresh
	// (the slave's sweep must not evict links it never probes itself).
	if n := len(r0.Ctl.Links()); n != 6 {
		t.Fatalf("revived slave sees %d links, want 6", n)
	}
	// The extra 500ms parks the clock between LLI probe ticks, so the
	// pending check sees drained tables rather than probes legitimately
	// in flight at a tick boundary.
	if err := tb.Net.Run(40*time.Second + 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n := len(r0.Ctl.Links()); n != 6 {
		t.Fatalf("revived slave's view decayed to %d links (replication not refreshing)", n)
	}
	if n := cl.PendingProbeTotal(); n != 0 {
		t.Fatalf("leaked pending probes: %d", n)
	}
}

// TestFailoverDeterminism: identical seeds replay the identical failover
// timeline, different seeds may draw different election timings.
func TestFailoverDeterminism(t *testing.T) {
	run := func(seed int64) (chaosTimeline [3]int64, winner int) {
		tb := warmCluster(t, seed)
		defer tb.Close()
		tb.Cluster.Crash(1)
		if err := tb.Net.Run(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		tls := tb.Cluster.Timelines()
		if len(tls) != 1 {
			t.Fatalf("timelines = %d", len(tls))
		}
		tl := tls[0]
		return [3]int64{
			int64(tl.ElectionAt.Sub(tl.CrashAt)),
			int64(tl.HandoverAt.Sub(tl.CrashAt)),
			int64(tl.ReconvergedAt.Sub(tl.CrashAt)),
		}, tl.Winner
	}
	a1, w1 := run(99)
	a2, w2 := run(99)
	if a1 != a2 || w1 != w2 {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", a1, w1, a2, w2)
	}
}

// TestControllerCrashExperiment drives the crash class through the full
// chaos.Run grid: every trial must hold the failover invariants — full
// recovery, zero leaked probes — under parallel workers.
func TestControllerCrashExperiment(t *testing.T) {
	res, _, err := chaos.Run(chaos.Config{
		Classes: []chaos.Class{chaos.ClassControllerCrash},
		Trials:  2,
		Workers: 2,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 2 {
		t.Fatalf("trials = %d", len(res.Trials))
	}
	for _, tr := range res.Trials {
		if !tr.Recovered {
			t.Errorf("seed %d: cluster did not recover", tr.Seed)
		}
		if tr.PendingLeaked != 0 {
			t.Errorf("seed %d: %d pending probes leaked", tr.Seed, tr.PendingLeaked)
		}
	}
}

// TestControllerCrashPlan: the randomized plan for the crash class is
// seeded and inert without a bound cluster.
func TestControllerCrashPlan(t *testing.T) {
	tb := warmCluster(t, 15)
	defer tb.Close()
	inj := chaos.NewInjector(tb.Net, 15)
	if p := inj.PlanFor(chaos.ClassControllerCrash); p != nil {
		t.Fatalf("unbound injector drew a crash plan: %v", p)
	}
	inj.BindCluster(tb.Cluster)
	p := inj.PlanFor(chaos.ClassControllerCrash)
	if len(p) != 1 {
		t.Fatalf("plan = %v", p)
	}
	f, ok := p[0].Fault.(*chaos.ControllerCrash)
	if !ok {
		t.Fatalf("fault = %T", p[0].Fault)
	}
	if f.Replica < 0 || f.Replica >= 2 {
		t.Fatalf("replica draw = %d", f.Replica)
	}
	if f.Down < 10*time.Second || f.Down >= 30*time.Second {
		t.Fatalf("down draw = %v", f.Down)
	}
}
