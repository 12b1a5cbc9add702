package core

import (
	"strings"
	"testing"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/obs/trace"
	"sdntamper/internal/tgplus"
)

// TestTraceByteIdentical is the determinism gate for the span flight
// recorder: the same k=4 fat-tree trial under TOPOGUARD+ must produce a
// byte-identical canonical span stream (JSONL rendering of the merged
// per-shard recorders) at 1 shard, 2 shards, 5 shards, and with
// parallel epoch execution — the trace counterpart of
// TestShardedByteIdentical's metrics discipline.
func TestTraceByteIdentical(t *testing.T) {
	const seed, k, rounds = 424242, 4, 2

	type config struct {
		name     string
		shards   int
		parallel bool
	}
	configs := []config{
		{"serial-1shard", 1, false},
		{"2shards", 2, false},
		{"5shards", 5, false},
		{"5shards-parallel", 5, true},
	}

	render := func(spans []trace.Span) string {
		var sb strings.Builder
		if err := trace.WriteJSONL(&sb, spans); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	var ref string
	var refSpans []trace.Span
	for _, cfg := range configs {
		res, err := RunShardedScaleTraced(seed, k, cfg.shards, cfg.parallel, rounds)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if res.SpansDropped != 0 {
			t.Fatalf("%s: %d spans dropped from the ring — stream is no longer shard-count invariant", cfg.name, res.SpansDropped)
		}
		if len(res.Spans) == 0 {
			t.Fatalf("%s: traced run recorded no spans", cfg.name)
		}
		if cfg.shards > 1 {
			// The invariance must be earned: every shard's own recorder
			// captured part of the causal stream, so chains really cross
			// the mailbox boundary before merging back byte-identical.
			for i, n := range res.ShardSpans {
				if n == 0 {
					t.Fatalf("%s: shard %d recorded no spans", cfg.name, i)
				}
			}
		}
		got := render(res.Spans)
		if ref == "" {
			ref, refSpans = got, res.Spans
			continue
		}
		if got != ref {
			t.Errorf("%s: span stream diverges from serial reference (%d vs %d bytes)",
				cfg.name, len(got), len(ref))
			diffFirstLine(t, ref, got)
		}
	}

	// The reference stream must contain reconstructable probe flights:
	// root emission, control hop, wire hop, dataplane hop, packet-in,
	// flight — in causal order.
	flights := trace.FindByName(refSpans, "lldp.flight")
	if len(flights) == 0 {
		t.Fatal("reference stream has no lldp.flight spans")
	}
	chain := trace.Chain(refSpans, flights[0].ID)
	names := make([]string, len(chain))
	for i, s := range chain {
		names[i] = s.Name
	}
	want := []string{"lldp.emit", "chan.msg", "port.tx", "link.frame", "port.rx", "chan.msg", "packet-in", "lldp.flight"}
	if len(names) != len(want) {
		t.Fatalf("flight chain = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("flight chain = %v, want %v", names, want)
		}
	}
	if n := len(trace.FindByName(refSpans, "lli.score")); n == 0 {
		t.Error("reference stream has no lli.score spans")
	}
	if n := len(trace.FindByName(refSpans, "verdict.pass")); n == 0 {
		t.Error("reference stream has no verdict.pass spans")
	}

	// Topology changes are instant spans in the same stream, so the
	// shard-count gate above covers them; a new link must hang under
	// the probe flight that proved it.
	if n := len(trace.FindByName(refSpans, "host.joined")); n == 0 {
		t.Error("reference stream has no host.joined spans")
	}
	added := trace.FindByName(refSpans, "link.added")
	if len(added) == 0 {
		t.Fatal("reference stream has no link.added spans")
	}
	chain = trace.Chain(refSpans, added[0].ID)
	inFlight := false
	for _, s := range chain {
		inFlight = inFlight || s.Name == "lldp.flight"
	}
	if !inFlight {
		t.Errorf("link.added chain has no lldp.flight: %+v", chain)
	}
}

// TestCMMForensicTimeline drives the in-band port-amnesia attack of
// Figure 12 with the flight recorder on and reconstructs the forensic
// timeline of the first CMM detection: the exact causal chain from the
// controller's probe emission, across the control channel and the wire,
// back through the packet-in to the propagation-window annotation and
// the blocking verdict.
func TestCMMForensicTimeline(t *testing.T) {
	s := NewFig9Testbed(1, TopoGuardPlus())
	defer s.Close()
	s.Net.EnableTrace(1 << 18)
	rec := s.Net.ShardTracer(0)
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	fab := attack.NewInBandFabrication(s.Net.ControlKernel(),
		s.Net.Host(HostAttackerA), s.Net.Host(HostAttackerB), 0)
	fab.Start()
	if err := s.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(s.Controller().AlertsByReason(tgplus.ReasonControlMessage)) == 0 {
		t.Fatal("attack raised no CMM alerts")
	}
	if rec.Dropped() != 0 {
		t.Fatalf("%d spans dropped; raise the ring capacity", rec.Dropped())
	}

	spans := trace.Merge(rec)
	var verdict trace.Span
	for _, v := range trace.FindByName(spans, "verdict.block") {
		if strings.HasPrefix(v.Detail, "TopoGuard+/CMM") {
			verdict = v
			break
		}
	}
	if verdict.ID == 0 {
		t.Fatal("no CMM verdict.block span recorded")
	}

	chain := trace.Chain(spans, verdict.ID)
	names := make([]string, len(chain))
	for i, sp := range chain {
		names[i] = sp.Name
	}
	if names[0] != "lldp.emit" {
		t.Fatalf("chain does not start at the probe emission: %v", names)
	}
	wantTail := []string{"chan.msg", "packet-in", "lldp.flight", "verdict.block"}
	if len(names) < len(wantTail)+4 {
		t.Fatalf("chain too short to cross the dataplane: %v", names)
	}
	tail := names[len(names)-len(wantTail):]
	for i := range wantTail {
		if tail[i] != wantTail[i] {
			t.Fatalf("chain tail = %v, want %v (full chain %v)", tail, wantTail, names)
		}
	}
	for _, hop := range []string{"port.tx", "link.frame", "port.rx"} {
		found := false
		for _, n := range names {
			if n == hop {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("chain has no %s hop: %v", hop, names)
		}
	}
	// Virtual-time monotonicity along the chain: every hop starts no
	// earlier than its parent — except the flight span, which stretches
	// back to the emission instant to cover the probe's whole lifetime.
	for i := 1; i < len(chain); i++ {
		if chain[i].Name == "lldp.flight" {
			if chain[i].Start != chain[0].Start {
				t.Fatalf("lldp.flight starts at %d, want the emission instant %d", chain[i].Start, chain[0].Start)
			}
			continue
		}
		if chain[i].Start < chain[i-1].Start {
			t.Fatalf("chain hop %d (%s) starts before its parent", i, chain[i].Name)
		}
	}

	// The propagation-window annotation is a sibling of the verdict
	// under the same flight, and its interval covers probe send to the
	// interfering port event.
	flight := chain[len(chain)-2]
	var window trace.Span
	for _, w := range trace.FindByName(trace.Timeline(spans, verdict.ID), "cmm.window") {
		if w.Parent == flight.ID {
			window = w
			break
		}
	}
	if window.ID == 0 {
		t.Fatal("no cmm.window annotation under the detection's flight span")
	}
	if window.Start < chain[0].Start || window.End > flight.End {
		t.Fatalf("cmm.window [%d,%d] outside probe lifetime [%d,%d]",
			window.Start, window.End, chain[0].Start, flight.End)
	}
	if !strings.Contains(window.Detail, "propagation window") {
		t.Fatalf("cmm.window detail = %q", window.Detail)
	}
}
