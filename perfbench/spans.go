package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// spanLog records the benchmark's own spans (set-ups, phases, micro-
// benchmarks) on the host clock. It is kept in memory and written out
// when the run ends. A nil *spanLog records nothing, so untraced runs
// pay no bookkeeping.
type spanLog struct {
	origin time.Time
	spans  []benchSpan
}

type benchSpan struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its ID (0 on a nil log).
func (l *spanLog) begin(name string, parent uint64) uint64 {
	if l == nil {
		return 0
	}
	id := uint64(len(l.spans) + 1)
	now := int64(time.Since(l.origin))
	l.spans = append(l.spans, benchSpan{ID: id, Parent: parent, Name: name, StartNs: now, EndNs: now})
	return id
}

func (l *spanLog) end(id uint64) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].EndNs = int64(time.Since(l.origin))
}

// counts tallies spans by name.
func (l *spanLog) counts() map[string]uint64 {
	out := map[string]uint64{}
	if l != nil {
		for _, s := range l.spans {
			out[s.Name]++
		}
	}
	return out
}

func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
