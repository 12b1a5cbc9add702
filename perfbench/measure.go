package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/obs"
	"sdntamper/internal/obs/trace"
)

// rep is everything one run of a workload measured.
type rep struct {
	// setup and run are in reference seconds (see calib.go), setupHost
	// and runHost as the host's clock read them.
	setup, run         time.Duration
	setupHost, runHost time.Duration
	speed              float64       // reference seconds per host second during the run
	calibration        time.Duration // median calibration time during the run
	runCPU             time.Duration // process CPU time (all threads) during the run
	wall               time.Duration // set-up, run, checks and forced GCs

	allocMB, liveHeapMB, heapSysMB float64
	mallocs                        uint64
	gcCPUFrac                      float64
	gcCycles                       uint64

	fp     fingerprint
	out    outcome
	phases []phaseStat
	layer  map[string]float64 // per-layer counts, end of run

	// Traced runs only: span counts by name and spans the per-step
	// reader could not collect before the ring overwrote them.
	spans        map[string]uint64
	spansDropped uint64
}

type phaseStat struct {
	name     string
	run      time.Duration // reference seconds, like rep.run
	events   uint64
	packetIn uint64
}

// runtimeSample reads the Go runtime counters a run is charged with.
type runtimeSample struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), gcCycles: s[2].Value.Uint64()}
}

const mb = 1 << 20

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRep sets up one scenario, runs its script and checks it. With
// traced set, the program's span recorder is on and every span is
// counted by name as the run goes.
func runRep(w *workload, seed int64, traced bool, log *spanLog, parent uint64) (*rep, error) {
	r := &rep{}
	runtime.GC()
	wall0 := time.Now()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)

	setupSpan := log.begin("bench.setup", parent)
	var e *env
	var err error
	r.setupHost, r.setup, err = timeScaled(func() { e = w.build(w, seed) })
	log.end(setupSpan)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			e.s.Close()
		}
	}()

	var drain func()
	if traced {
		drain = traceCounter(e, r)
	}
	ctl := e.s.Net.Controller
	packetIn := ctl.Metrics().Counter(controller.MetricPacketIn)

	hs, err := newHostSpeed()
	if err != nil {
		return nil, err
	}
	hs.attach(e.s.Net.ControlKernel())

	runtime.ReadMemStats(&m1)
	rt0 := readRuntime()
	cpu0 := processCPU()
	paused0 := hs.paused
	t1 := time.Now()
	for _, ph := range e.phases {
		span := log.begin("bench.phase."+ph.name, parent)
		ps := phaseStat{name: ph.name}
		ev0, pk0, pt, pp := e.s.Net.Group.Executed(), packetIn.Value(), time.Now(), hs.paused
		for _, sg := range ph.segs {
			if sg.before != nil {
				sg.before()
			}
			for left := sg.d; left > 0; left -= step {
				if err := e.s.Run(min(step, left)); err != nil {
					return nil, fmt.Errorf("%s phase %s: %w", w.name, ph.name, err)
				}
			}
		}
		ps.run = time.Since(pt) - (hs.paused - pp)
		ps.events = e.s.Net.Group.Executed() - ev0
		ps.packetIn = packetIn.Value() - pk0
		r.phases = append(r.phases, ps)
		log.end(span)
	}
	if e.finish != nil {
		e.finish()
	}
	r.runHost = time.Since(t1) - (hs.paused - paused0)
	r.runCPU = processCPU() - cpu0 // the calibrations ran in another process
	rt1 := readRuntime()
	hs.point()
	if r.speed, err = hs.factor(); err != nil {
		return nil, err
	}
	r.calibration = time.Duration(float64(refCalibration) / r.speed)
	r.run = time.Duration(float64(r.runHost) * r.speed)
	for i := range r.phases {
		r.phases[i].run = time.Duration(float64(r.phases[i].run) * r.speed)
	}
	runtime.ReadMemStats(&m2)

	r.allocMB = float64(m2.TotalAlloc-m0.TotalAlloc) / mb
	r.heapSysMB = float64(m2.HeapSys) / mb
	r.mallocs = m2.Mallocs - m1.Mallocs
	r.gcCycles = rt1.gcCycles - rt0.gcCycles
	if d := rt1.totalCPU - rt0.totalCPU - (hs.paused - paused0).Seconds(); d > 0 {
		r.gcCPUFrac = (rt1.gcCPU - rt0.gcCPU) / d
	}
	if traced {
		drain()
	}

	snap := e.s.Net.MergedMetrics().Snapshot()
	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		return nil, err
	}
	r.fp = fingerprint{events: e.s.Net.Group.Executed(), prom: b.String()}
	r.layer = layerCounts(snap, ctl)
	if err := e.outcome(&r.out); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}

	runtime.GC()
	var m3 runtime.MemStats
	runtime.ReadMemStats(&m3)
	r.liveHeapMB = float64(m3.HeapAlloc) / mb
	closed = true
	if err := e.closeAndDrain(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	r.wall = time.Since(wall0)
	return r, nil
}

// traceCounter turns on the program's span recorder and counts its spans
// by name. A step hook reads the ring whenever it is half full, so no
// span is overwritten unread; the returned func reads the rest and
// records how many were lost.
func traceCounter(e *env, r *rep) (drain func()) {
	e.s.Net.EnableTrace(0)
	tracer := e.s.Net.ShardTracer(0)
	r.spans = make(map[string]uint64)
	var cursor, read uint64
	drain = func() {
		var spans []trace.Span
		spans, cursor = tracer.SpansSince(cursor)
		for _, s := range spans {
			r.spans[s.Name]++
		}
		read += uint64(len(spans))
		r.spansDropped = tracer.Total() - read
	}
	k := e.s.Net.ControlKernel()
	prev := k.StepHook()
	k.SetStepHook(func() {
		if prev != nil {
			prev()
		}
		if tracer.Total()-cursor >= trace.DefaultCapacity/2 {
			drain()
		}
	})
	return drain
}

// layerCounts reads the per-layer counters a run ends with from the
// merged registry snapshot and the controller's tables.
func layerCounts(snap *obs.Snapshot, ctl *controller.Controller) map[string]float64 {
	sum := map[string]float64{}
	for _, c := range snap.Counters {
		base, labels, _ := strings.Cut(c.Name, "{")
		sum[base] += float64(c.Value)
		if base == "defense_verdicts_total" {
			if _, v, ok := strings.Cut(labels, `verdict="`); ok {
				v, _, _ = strings.Cut(v, `"`)
				sum["verdict."+v] += float64(c.Value)
			}
		}
	}
	for _, g := range snap.Gauges {
		base, _, _ := strings.Cut(g.Name, "{")
		sum[base] += float64(g.Value)
	}
	for _, h := range snap.Histograms {
		if h.Name == "lli_link_latency_seconds" {
			sum["lli_samples"] = float64(h.Count)
		}
	}
	hits, misses := sum[controller.MetricTopoHits], sum[controller.MetricTopoMisses]
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	return map[string]float64{
		"sim.events":                      sum["sim_events_executed_total"],
		"dataplane.rx_frames":             sum["dataplane_rx_frames_total"],
		"dataplane.tx_frames":             sum["dataplane_tx_frames_total"],
		"dataplane.drop_frames":           sum["dataplane_dropped_frames_total"],
		"controller.packetin":             sum[controller.MetricPacketIn],
		"controller.packetin_lldp":        sum[controller.MetricPacketInLLDP],
		"controller.flood":                sum[controller.MetricFloods],
		"controller.flowmod":              sum[controller.MetricFlowMods],
		"controller.packetout":            sum[controller.MetricPacketOuts],
		"controller.topo_cache_hit_ratio": ratio,
		"controller.hosts":                float64(len(ctl.Hosts())),
		"controller.flowmod_log":          float64(len(ctl.FlowModLog())),
		"controller.alerts":               float64(len(ctl.Alerts())),
		"defense.verdicts.pass":           sum["verdict.pass"],
		"defense.verdicts.block":          sum["verdict.block"],
		"defense.verdicts.flag":           sum["verdict.flag"],
		"lli.samples":                     sum["lli_samples"],
		"ratemon.blocks":                  sum["ratemon_blocks_total"],
		"ratemon.unblocks":                sum["ratemon_unblocks_total"],
		"ratemon.poll_failures":           sum["ratemon_poll_failures_total"],
		"discovery.probes":                sum[controller.MetricDiscoveryProbes],
		"discovery.bytes":                 sum[controller.MetricDiscoveryBytes],
		"softdp.bfd_sessions":             sum[controller.MetricBFDSessions],
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median of one field across reps.
func medianOf(reps []*rep, f func(*rep) float64) float64 {
	return median(field(reps, f))
}
