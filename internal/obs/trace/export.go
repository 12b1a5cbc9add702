package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Merge gathers the retained spans of the given recorders (nil entries
// skipped) and sorts them into the canonical export order: by start
// time, then end time, then span ID. Every sort key is shard-count
// invariant, so merging per-shard recorders yields the same byte
// stream no matter how the simulation was partitioned — the trace
// counterpart of obs.MergeAll's registry discipline.
func Merge(recs ...*Recorder) []Span {
	var total int
	for _, r := range recs {
		if r != nil {
			total += r.n
		}
	}
	out := make([]Span, 0, total)
	for _, r := range recs {
		if r != nil {
			out = r.appendRetained(out)
		}
	}
	sortSpans(out)
	return out
}

// sortSpans orders spans by (Start, End, ID) — a strict total order,
// since IDs are unique within a run.
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.ID < b.ID
	})
}

// WriteJSONL renders spans one JSON object per line, in the order
// given. Field order and number formatting are fixed, so the output of
// a sorted span set is byte-identical across runs of the same seed.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(bw, `{"id":"%016x","parent":"%016x","start":%d,"end":%d,"kind":%q,"name":%q,"entity":"0x%x","port":%d,"detail":%s}`,
			s.ID, s.Parent, s.Start, s.End, s.Kind, s.Name, s.Entity, s.Port, strconv.Quote(s.Detail))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteChrome renders spans as a Chrome trace_event JSON document
// (complete "X" events), viewable in chrome://tracing or Perfetto.
// Timestamps are microseconds with nanosecond precision; each layer
// (Kind) renders as its own thread track, and the causal chain is
// carried in args so a verdict's ancestry can be read off in the
// viewer.
func WriteChrome(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i := range spans {
		s := &spans[i]
		if i > 0 {
			bw.WriteByte(',')
		}
		ts := float64(s.Start) / 1e3
		dur := float64(s.End-s.Start) / 1e3
		if dur < 0 {
			dur = 0
		}
		fmt.Fprintf(bw, "\n"+`{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"id":"%016x","parent":"%016x","entity":"0x%x","port":%d,"detail":%s}}`,
			s.Name, s.Kind, ts, dur, s.Kind, s.ID, s.Parent, s.Entity, s.Port, strconv.Quote(s.Detail))
	}
	// Name the per-layer tracks.
	for k := KindKernel; k <= KindDefense; k++ {
		fmt.Fprintf(bw, ",\n"+`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, k, k.String())
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
