package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"sdntamper/internal/dataplane"
	"sdntamper/internal/obs/trace"
	"sdntamper/internal/tgplus"
)

// ShardedScaleResult summarizes one sharded fat-tree scale run. All
// fields except Wall and ShardEvents are deterministic for a fixed seed
// and identical across shard counts and serial/parallel execution;
// ShardEvents is deterministic per shard count (execution geometry), and
// Wall is the only wall-clock quantity.
type ShardedScaleResult struct {
	K             int
	Shards        int
	Parallel      bool
	Switches      int
	Hosts         int
	Trunks        int
	CrossTrunks   int           // trunks paying the cross-shard mailbox path
	Lookahead     time.Duration // conservative epoch stride
	DirectedLinks int
	LLIAlerts     int // abnormal-delay false positives (IQR fence tail, grows with k)
	PingsSent     int
	PingsAnswered int
	Rounds        int
	Events        uint64        // total executed events (shard-count invariant)
	ShardEvents   []uint64      // per-shard executed events (geometry)
	VirtualTime   time.Duration // simulated span
	Wall          time.Duration // host wall-clock cost (non-deterministic)
	MetricsProm   string        // merged per-shard registries, Prometheus text
	HealthProm    string        // per-shard execution-geometry gauges (NOT shard-count invariant)

	// Trace capture (only under RunShardedScaleTraced; zero otherwise).
	// Spans is the canonical merged stream; SpansDropped counts ring
	// overwrites, which must be zero for the stream to be shard-count
	// invariant; ShardSpans counts the spans each shard's own recorder
	// retained (execution geometry, like ShardEvents).
	Spans        []trace.Span
	SpansDropped uint64
	ShardSpans   []int
}

// RunShardedScale builds a k-ary fat-tree under TOPOGUARD+ on the given
// shard count, lets discovery converge, warms cross-pod paths with ARP
// pings from every even-indexed host, then runs `rounds` unicast ping
// rounds one virtual second apart — inside the controller's 5 s flow
// idle timeout, so warmed rounds ride installed flows entirely on the
// dataplane (pod shards), the workload the sharded kernel parallelizes.
func RunShardedScale(seed int64, k, shards int, parallel bool, rounds int) (*ShardedScaleResult, error) {
	return runShardedScale(seed, k, shards, parallel, rounds, false)
}

// RunShardedScaleTraced is RunShardedScale with per-shard span flight
// recorders enabled for the whole run; the result carries the merged
// canonical span stream, which is byte-identical across shard counts as
// long as SpansDropped is zero.
func RunShardedScaleTraced(seed int64, k, shards int, parallel bool, rounds int) (*ShardedScaleResult, error) {
	return runShardedScale(seed, k, shards, parallel, rounds, true)
}

func runShardedScale(seed int64, k, shards int, parallel bool, rounds int, traced bool) (*ShardedScaleResult, error) {
	wallStart := time.Now()
	s, topo := NewShardedFatTreeScenario(seed, k, shards, TopoGuardPlus())
	defer s.Close()
	s.Net.SetParallel(parallel)
	if traced {
		s.Net.EnableTrace(0)
	}

	res := &ShardedScaleResult{
		K:           k,
		Shards:      shards,
		Parallel:    parallel,
		Switches:    topo.Switches(),
		Hosts:       topo.Hosts(),
		Trunks:      len(s.Net.Trunks()),
		CrossTrunks: s.Net.CrossShardTrunks(),
		Lookahead:   s.Net.Group.Lookahead(),
		Rounds:      rounds,
	}

	// Let handshakes, discovery rounds and LLI baselines settle.
	if err := s.Run(30 * time.Second); err != nil {
		return nil, err
	}

	// Warm round: cross-pod ARP resolution installs reactive flows.
	// Probe callbacks fire on the destination host's shard goroutine
	// under parallel execution, so the tally must be atomic.
	var answered atomic.Int64
	onProbe := func(r dataplane.ProbeResult) {
		if r.Alive {
			answered.Add(1)
		}
	}
	hosts := topo.HostNames
	pair := func(i int) (*dataplane.Host, *dataplane.Host) {
		return s.Net.Host(hosts[i]), s.Net.Host(hosts[(i+len(hosts)/2)%len(hosts)])
	}
	for i := 0; i < len(hosts); i += 2 {
		src, dst := pair(i)
		res.PingsSent++
		src.ARPPing(dst.IP(), 5*time.Second, onProbe)
	}
	if err := s.Run(10 * time.Second); err != nil {
		return nil, err
	}

	// Steady-state rounds: unicast pings on installed flows.
	for round := 0; round < rounds; round++ {
		for i := 0; i < len(hosts); i += 2 {
			src, dst := pair(i)
			res.PingsSent++
			src.Ping(dst.MAC(), dst.IP(), 5*time.Second, onProbe)
		}
		if err := s.Run(time.Second); err != nil {
			return nil, err
		}
	}
	// Drain the final round's probes.
	if err := s.Run(10 * time.Second); err != nil {
		return nil, err
	}

	res.PingsAnswered = int(answered.Load())
	res.DirectedLinks = len(s.Net.Controller.Links())
	res.LLIAlerts = len(s.Net.Controller.AlertsByReason(tgplus.ReasonAbnormalDelay))
	// Complete discovery, modulo the LLI's IQR fence: at thousands of
	// burst-latency measurements per round the fence's tail guarantees a
	// few false positives, each of which blocks one link refresh and is
	// recorded as an alert. Every missing directed link must be accounted
	// for by such an alert; an unexplained gap is a real discovery failure.
	if want := 2 * res.Trunks; want-res.DirectedLinks > res.LLIAlerts {
		return nil, fmt.Errorf("k=%d shards=%d: discovered %d directed links, want %d (only %d LLI alerts)",
			k, shards, res.DirectedLinks, want, res.LLIAlerts)
	}
	res.Events = s.Net.Group.Executed()
	for i := 0; i < shards; i++ {
		res.ShardEvents = append(res.ShardEvents, s.Net.ShardExecuted(i))
	}
	res.VirtualTime = 50*time.Second + time.Duration(rounds)*time.Second
	res.Wall = time.Since(wallStart)

	var b strings.Builder
	if err := s.Net.MergedMetrics().Snapshot().WritePrometheus(&b); err != nil {
		return nil, err
	}
	res.MetricsProm = b.String()
	var hb strings.Builder
	if err := s.Net.HealthMetrics().Snapshot().WritePrometheus(&hb); err != nil {
		return nil, err
	}
	res.HealthProm = hb.String()
	if traced {
		res.Spans = s.Net.MergedSpans()
		for i := 0; i < shards; i++ {
			tr := s.Net.ShardTracer(i)
			res.SpansDropped += tr.Dropped()
			res.ShardSpans = append(res.ShardSpans, len(tr.Spans()))
		}
	}
	return res, nil
}
