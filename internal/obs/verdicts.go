package obs

import (
	"fmt"

	"sdntamper/internal/obs/trace"
)

// MetricDefenseVerdicts is the shared base name for per-module defense
// verdict counters. Every defense stack records its pass/flag/block
// decisions under this family, labeled with the module name, the verdict
// and (for non-pass verdicts) the reason code, so one Prometheus query
// compares detection behavior across TopoGuard, SPHINX, TopoGuard+ and
// SecBind.
const MetricDefenseVerdicts = "defense_verdicts_total"

// Verdicts tracks one defense module's per-reason verdict counters with
// resolved handles, so the per-packet pass path costs a single increment.
type Verdicts struct {
	reg     *Registry
	module  string
	pass    *Counter
	reasons map[verdictKey]*Counter

	// moduleTag is the module name folded into span-ID tags; seq numbers
	// the module's verdicts so every defense_verdicts_total increment
	// owns a distinct, shard-invariant span identity.
	moduleTag uint64
	seq       uint64
}

// NewVerdicts creates the verdict family for module in reg. The pass
// counter is registered eagerly so snapshots show an explicit zero for
// modules that never passed anything.
func NewVerdicts(reg *Registry, module string) *Verdicts {
	return &Verdicts{
		reg:       reg,
		module:    module,
		pass:      reg.Counter(fmt.Sprintf("%s{module=%q,verdict=\"pass\"}", MetricDefenseVerdicts, module)),
		reasons:   make(map[verdictKey]*Counter),
		moduleTag: hashTag(module),
	}
}

// hashTag folds a module name into a span-ID tag (FNV-1a).
func hashTag(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Pass records one approved event.
func (v *Verdicts) Pass() {
	v.pass.Inc()
	v.emitSpan("verdict.pass", "")
}

// Block records one vetoed event with its reason code.
func (v *Verdicts) Block(reason string) {
	v.counter("block", reason).Inc()
	v.emitSpan("verdict.block", reason)
}

// Flag records one event that was reported but not vetoed (e.g. LLI in
// alert-only mode).
func (v *Verdicts) Flag(reason string) {
	v.counter("flag", reason).Inc()
	v.emitSpan("verdict.flag", reason)
}

// emitSpan closes the forensic timeline of one verdict: a leaf span
// parented on whatever chain is current (the LLDP flight under
// adjudication, a host-move check, ...), so every verdict counter
// increment can be expanded into its full probe-sent → hops → received
// → score → verdict record. Reads the registry tracer at call time —
// tracing is enabled after the defenses bind.
func (v *Verdicts) emitSpan(name, reason string) {
	tr := v.reg.tracer
	if tr == nil {
		return
	}
	v.seq++
	now := tr.Now()
	detail := v.module
	if reason != "" {
		detail = v.module + ": " + reason
	}
	tr.Emit(trace.Span{
		ID:     trace.MixID(uint64(trace.KindDefense), v.moduleTag, v.seq),
		Parent: tr.Current(),
		Start:  now, End: now,
		Kind: trace.KindDefense, Name: name,
		Entity: v.moduleTag, Detail: detail,
	})
}

// verdictKey keys the labeled verdict counters without string
// concatenation, so a repeated Block or Flag allocates nothing.
type verdictKey struct {
	verdict string
	reason  string
}

func (v *Verdicts) counter(verdict, reason string) *Counter {
	key := verdictKey{verdict: verdict, reason: reason}
	if c, ok := v.reasons[key]; ok {
		return c
	}
	c := v.reg.Counter(fmt.Sprintf("%s{module=%q,verdict=%q,reason=%q}",
		MetricDefenseVerdicts, v.module, verdict, reason))
	v.reasons[key] = c
	return c
}
