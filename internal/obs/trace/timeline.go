package trace

// Timeline reconstructs the forensic story of one span — typically a
// defense verdict: the chain of ancestors from the root probe emission
// down to the span itself, followed by every other descendant of that
// root (the probe's hops across links, ports and the control channel),
// all in canonical (Start, End, ID) order. This is the "probe sent →
// hops → received → latency score → alert/pass" record the paper's
// defenses reason about implicitly and the flight recorder makes
// explicit.
func Timeline(spans []Span, id uint64) []Span {
	byID := make(map[uint64]*Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	root := rootOf(byID, id)
	if root == 0 {
		return nil
	}
	var out []Span
	for i := range spans {
		if rootOf(byID, spans[i].ID) == root {
			out = append(out, spans[i])
		}
	}
	sortSpans(out)
	return out
}

// Chain returns the ancestor path of a span, root first, ending with
// the span itself. A dangling parent reference (the ancestor dropped
// from the ring) truncates the chain at the oldest retained span.
func Chain(spans []Span, id uint64) []Span {
	byID := make(map[uint64]*Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	var rev []Span
	for id != 0 {
		s, ok := byID[id]
		if !ok || len(rev) > len(spans) { // dangling or cyclic: stop
			break
		}
		rev = append(rev, *s)
		id = s.Parent
	}
	out := make([]Span, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// rootOf walks parents to the chain root, returning 0 for an unknown
// span. Walks are bounded by the map size so a (never expected) parent
// cycle cannot hang the caller.
func rootOf(byID map[uint64]*Span, id uint64) uint64 {
	steps := 0
	for {
		s, ok := byID[id]
		if !ok {
			return 0
		}
		if s.Parent == 0 {
			return s.ID
		}
		if _, ok := byID[s.Parent]; !ok {
			// Dangling parent: treat this span as the effective root.
			return s.ID
		}
		id = s.Parent
		steps++
		if steps > len(byID) {
			return 0
		}
	}
}

// FindByName returns the retained spans with the given name, in the
// order given (tests use it to locate a verdict span to reconstruct).
func FindByName(spans []Span, name string) []Span {
	var out []Span
	for i := range spans {
		if spans[i].Name == name {
			out = append(out, spans[i])
		}
	}
	return out
}
