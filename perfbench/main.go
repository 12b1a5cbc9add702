// Command perfbench is the repository benchmark. It drives four fat-tree
// workloads through the simulator's public internal/ packages, checks
// every run's invariants and deterministic fingerprint, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: the end-to-end metrics of BENCHMARK.json with -trace 0,
// its per-layer metrics with -trace 1.
//
// Run it through run.py from the repository root, which builds it:
//
//	python3 perfbench/run.py --workload fattree16 --seed 1 --seconds 25 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

func main() {
	if os.Getenv(calibratorEnv) != "" {
		if err := serveCalibrations(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench calibrator:", err)
			os.Exit(1)
		}
		return
	}
	err := run(os.Args[1:], os.Stdout)
	if cerr := stopCalibrator(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchmarkSpec is the part of BENCHMARK.json that selects what the last
// line reports.
type benchmarkSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
}

func run(args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: fattree16, synflood, saturation or softdp32")
	fs.Int64Var(&o.seed, "seed", 1, "scenario seed")
	fs.Float64Var(&o.seconds, "seconds", 25, "host seconds to measure for (untraced runs)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	outDir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(filepath.Join(outDir, "fingerprints"), 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, o.trace))

	rp := &report{w: stdout}
	fmt.Fprintf(stdout, "perfbench workload=%s k=%d seed=%d trace=%d\n", w.name, w.k, o.seed, o.trace)
	var attempted int
	if o.trace == 0 {
		attempted, err = measure(w, o, rp)
	} else {
		attempted, err = traced(w, o, rp, base)
	}
	if err == nil {
		err = checkFingerprint(outDir, w.name, o.seed, rp.fp)
	}
	want := spec.EndToEnd
	if o.trace == 1 {
		want = spec.PerLayer
	}
	last := result{Correct: err == nil, Attempted: attempted, Metrics: map[string]metricValue{}}
	if err != nil {
		last.Failed = 1
		fmt.Fprintln(stdout, "FAILED:", err)
	} else {
		for _, m := range want {
			v, ok := rp.get(m.Name)
			if !ok || v.Unit != m.Unit {
				err = fmt.Errorf("metric %s %s named in BENCHMARK.json was not measured in that unit", m.Name, m.Unit)
				last.Correct, last.Failed = false, 1
				break
			}
			last.Metrics[m.Name] = v
		}
	}
	if werr := rp.writeJSON(base + ".report.json"); werr != nil && err == nil {
		err = werr
	}
	line, jerr := json.Marshal(last)
	if jerr != nil {
		return jerr
	}
	fmt.Fprintln(stdout, string(line))
	return err
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints each metric as it is measured and keeps it for the
// last line and the report file. A metric that does not apply to the
// workload is printed as n/a and never reported as a number.
type report struct {
	w       io.Writer
	names   []string
	metrics map[string]metricValue
	fp      fingerprint
}

func (r *report) add(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metricValue{}
	}
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "metric %-34s %16.6f %s\n", name, v, unit)
}

func (r *report) na(name, unit string) {
	fmt.Fprintf(r.w, "metric %-34s %16s %s\n", name, "n/a", unit)
}

func (r *report) get(name string) (metricValue, bool) {
	v, ok := r.metrics[name]
	return v, ok
}

func (r *report) writeJSON(path string) error {
	type entry struct {
		Name string `json:"name"`
		metricValue
	}
	out := struct {
		Fingerprint string  `json:"fingerprint"`
		Metrics     []entry `json:"metrics"`
	}{Fingerprint: r.fp.String()}
	for _, n := range r.names {
		out.Metrics = append(out.Metrics, entry{n, r.metrics[n]})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// minSetups is how many set-ups a run times at least; setup_s is their
// median.
const minSetups = 5

// hostRep pairs one run's reference-second figure with the host's.
type hostRep struct{ ref, host float64 }

// measure is the untraced run: first an untimed warm-up run of the
// workload's k=4 variant, so that no timed run is the process's first;
// then whole runs of the workload while the next one still fits in the
// measuring time (always at least one), then extra set-ups up to
// minSetups. Host-time and memory metrics are medians over the runs,
// leaving out the first whenever there is another: it alone pays for
// growing the process heap to the workload's size.
func measure(w *workload, o options, rp *report) (int, error) {
	warmup, t := w.reduced(), time.Now()
	if _, err := runRep(warmup, o.seed, false, nil, 0); err != nil {
		return 1, fmt.Errorf("warm-up: %w", err)
	}
	fmt.Fprintf(rp.w, "warm-up %s wall_s=%.4f (untimed)\n", warmup.name, time.Since(t).Seconds())
	start := time.Now()
	var reps []*rep
	var setups []hostRep
	for {
		r, err := runRep(w, o.seed, false, nil, 0)
		if err != nil {
			return len(reps) + 1, err
		}
		if len(reps) > 0 && r.fp != reps[0].fp {
			return len(reps) + 1, fmt.Errorf("fingerprint changed between runs of one seed: %s then %s", reps[0].fp, r.fp)
		}
		reps = append(reps, r)
		fmt.Fprintf(rp.w, "rep %d setup_s=%.4f run_s=%.4f run_host_s=%.4f run_cpu_s=%.4f calibration_ms=%.3f wall_s=%.4f\n",
			len(reps), r.setup.Seconds(), r.run.Seconds(), r.runHost.Seconds(), r.runCPU.Seconds(),
			r.calibration.Seconds()*1e3, r.wall.Seconds())
		setups = append(setups, hostRep{r.setup.Seconds(), r.setupHost.Seconds()})
		next := medianOf(reps, func(r *rep) float64 { return r.wall.Seconds() })
		extraSetups := float64(max(minSetups-len(setups), 0)) * setups[0].host
		if time.Since(start).Seconds()+next+extraSetups > o.seconds {
			break
		}
	}
	for len(setups) < minSetups {
		s, err := timeSetup(w, o.seed)
		if err != nil {
			return len(reps), err
		}
		setups = append(setups, s)
	}
	fmt.Fprintf(rp.w, "runs=%d setups=%d measured_s=%.3f\n", len(reps), len(setups), time.Since(start).Seconds())
	rp.fp = reps[0].fp
	fmt.Fprintf(rp.w, "fingerprint %s\n", rp.fp)
	warm := reps
	if len(reps) >= 2 {
		warm = reps[1:]
	}
	rp.add("run_s", "s", medianOf(warm, func(r *rep) float64 { return r.run.Seconds() }))
	rp.add("run_host_s", "s", medianOf(warm, func(r *rep) float64 { return r.runHost.Seconds() }))
	rp.add("run_cpu_s", "s", medianOf(warm, func(r *rep) float64 { return r.runCPU.Seconds() }))
	rp.add("host.calibration_ms", "ms", medianOf(warm, func(r *rep) float64 { return r.calibration.Seconds() * 1e3 }))
	rp.add("events_per_s", "1/s", medianOf(warm, eventsPerSecond))
	rp.add("setup_s", "s", median(field(setups, func(s hostRep) float64 { return s.ref })))
	rp.add("setup_host_s", "s", median(field(setups, func(s hostRep) float64 { return s.host })))
	rp.add("alloc_mb", "MB", medianOf(warm, func(r *rep) float64 { return r.allocMB }))
	rp.add("live_heap_mb", "MB", medianOf(warm, func(r *rep) float64 { return r.liveHeapMB }))
	reportOutcome(rp, reps[0])
	return len(reps), nil
}

// eventsPerSecond is the simulator's throughput in one run: kernel events
// executed per reference second. It is the bounded end-to-end time figure
// because synflood's work varies with the seed (its run_s spread 0.22
// over ten seeds on a steady host). It reads a change right only if the
// change keeps each seed's event count: one that cuts events must be
// judged by run_s and sim.events, which are printed too.
func eventsPerSecond(r *rep) float64 { return float64(r.fp.events) / r.run.Seconds() }

// timeSetup builds the scenario once, after a forced GC, and closes it.
func timeSetup(w *workload, seed int64) (hostRep, error) {
	runtime.GC()
	var e *env
	host, ref, err := timeScaled(func() { e = w.build(w, seed) })
	if e != nil {
		e.s.Close()
	}
	return hostRep{ref.Seconds(), host.Seconds()}, err
}

func field[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// reportOutcome prints the modelled-network metrics, exact for a seed.
func reportOutcome(rp *report, r *rep) {
	o := r.out
	rp.add("ops", "count", float64(o.ops))
	rp.add("ops_failed", "count", float64(o.opsFailed))
	rp.add("fail_frac", "ratio", float64(o.opsFailed)/float64(o.ops))
	rp.add("converge_ms", "ms", o.convergeMs)
	if o.detectMs >= 0 {
		rp.add("detect_ms", "ms", o.detectMs)
	} else {
		rp.na("detect_ms", "ms")
	}
	rp.add("false_alerts", "count", float64(o.falseAlerts))
	rp.add("probes_per_vs", "1/s", o.probesPerVS)
}

// traced is the per-layer run: micro-benchmarks, one untraced run for the
// host-time layer figures, one run with the program's span recorder on,
// and the equivalence reference under the CPU profiler.
func traced(w *workload, o options, rp *report, base string) (int, error) {
	log := newSpanLog()
	micros, err := runMicros(log, 0)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(rp.w, "micro-benchmarks (the same operations for every workload; differences between workloads are host noise)")
	for _, m := range micros {
		rp.add(m.name, m.unit, m.value)
	}

	span := log.begin("bench.run.untraced", 0)
	a, err := runRep(w, o.seed, false, log, span)
	log.end(span)
	if err != nil {
		return 1, err
	}
	span = log.begin("bench.run.traced", 0)
	b, err := runRep(w, o.seed, true, log, span)
	log.end(span)
	if err != nil {
		return 2, err
	}
	if b.fp != a.fp {
		return 2, fmt.Errorf("tracing changed the run: %s untraced, %s traced", a.fp, b.fp)
	}
	span = log.begin("bench.run.reference", 0)
	ref, err := profiled(base+".cpu.pprof", func() (fingerprint, error) {
		if w.reference != nil {
			return w.reference(w, o.seed)
		}
		r, err := runRep(w, o.seed, false, nil, 0)
		if err != nil {
			return fingerprint{}, err
		}
		return r.fp, nil
	})
	log.end(span)
	if err != nil {
		return 3, err
	}
	if ref != a.fp {
		return 3, fmt.Errorf("stepped script diverges from its reference run: %s stepped, %s reference", a.fp, ref)
	}
	rp.fp = a.fp
	fmt.Fprintf(rp.w, "fingerprint %s (traced and reference runs identical)\n", a.fp)

	events := float64(a.fp.events)
	runNs := float64(a.run.Nanoseconds())
	rp.add("run_host_s", "s", a.runHost.Seconds())
	rp.add("host.calibration_ms", "ms", a.calibration.Seconds()*1e3)
	rp.add("sim.events", "count", events)
	rp.add("sim.ns_per_event", "ns", runNs/events)
	rp.add("sim.allocs_per_event", "count", float64(a.mallocs)/events)
	rp.add("gc.cpu_frac", "ratio", a.gcCPUFrac)
	rp.add("gc.cycles", "count", float64(a.gcCycles))
	rp.add("heap.sys_mb", "MB", a.heapSysMB)
	for _, name := range sortedKeys(a.layer) {
		if name == "sim.events" {
			continue
		}
		rp.add(name, layerUnit(name), a.layer[name])
	}
	rp.add("controller.ns_per_packetin", "ns", runNs/a.layer["controller.packetin"])
	rp.add("traffic.legit_packets", "count", float64(a.out.trafficLegit))
	rp.add("traffic.attack_packets", "count", float64(a.out.trafficAttack))
	for _, p := range a.phases {
		pre := "phase." + p.name
		rp.add(pre+".s", "s", p.run.Seconds())
		rp.add(pre+".events", "count", float64(p.events))
		rp.add(pre+".ns_per_event", "ns", float64(p.run.Nanoseconds())/float64(max(p.events, 1)))
		if p.packetIn > 0 {
			rp.add(pre+".ns_per_packetin", "ns", float64(p.run.Nanoseconds())/float64(p.packetIn))
		} else {
			rp.na(pre+".ns_per_packetin", "ns")
		}
	}
	reportOutcome(rp, a)
	rp.add("events_per_s", "1/s", eventsPerSecond(a))
	rp.add("run_s", "s", a.run.Seconds())
	rp.add("setup_s", "s", a.setup.Seconds())
	rp.add("setup_host_s", "s", a.setupHost.Seconds())
	rp.add("alloc_mb", "MB", a.allocMB)
	rp.add("live_heap_mb", "MB", a.liveHeapMB)

	spans := b.spans
	for name, n := range log.counts() {
		spans[name] += n
	}
	for _, name := range sortedKeys(spans) {
		rp.add("trace.spans."+name, "count", float64(spans[name]))
	}
	rp.add("trace.dropped", "count", float64(b.spansDropped))
	rp.add("trace.overhead_frac", "ratio", b.run.Seconds()/a.run.Seconds()-1)
	if err := log.writeJSONL(base + ".spans.jsonl"); err != nil {
		return 3, err
	}
	fmt.Fprintf(rp.w, "artifacts %s.report.json %s.spans.jsonl %s.cpu.pprof\n", base, base, base)
	return 3, nil
}

func layerUnit(name string) string {
	switch name {
	case "controller.topo_cache_hit_ratio":
		return "ratio"
	case "discovery.bytes":
		return "B"
	}
	return "count"
}

// profiled runs fn under the CPU profiler, writing the profile to path.
func profiled(path string, fn func() (fingerprint, error)) (fingerprint, error) {
	f, err := os.Create(path)
	if err != nil {
		return fingerprint{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fingerprint{}, err
	}
	fp, err := fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return fp, err
}

// checkFingerprint compares a run's fingerprint with the one an earlier
// run of this binary and seed recorded, and records it if none did.
func checkFingerprint(dir, workload string, seed int64, fp fingerprint) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(self)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(dir, "fingerprints", fmt.Sprintf("%s-%s-seed%d", hex.EncodeToString(sum[:8]), workload, seed))
	want := fp.String()
	prev, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(path, []byte(want), 0o644)
	case err != nil:
		return err
	case string(prev) != want:
		return fmt.Errorf("fingerprint %s differs from an earlier run of this binary and seed: %s", want, prev)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
