package controller

import (
	"sort"

	"sdntamper/internal/obs/trace"
	"sdntamper/internal/openflow"
)

// topoCache holds incrementally maintained derived views of the link
// topology so the reactive-forwarding hot path does not rebuild them per
// Packet-In: the BFS adjacency map, memoized per-(src,dst) shortest
// paths, and the selected egress port per adjacent switch pair. The
// views are dropped wholesale whenever the link set (or a link's birth
// time, which drives parallel-link tie-breaking) changes — link adds,
// timeout sweeps, Port-Down evictions — and rebuilt lazily on the next
// query; a plain LLDP refresh of an existing link leaves them intact.
//
// Two further views have their own lazy slots, rebuilt on first use
// rather than in ensureTopo (so they never tick the rebuild counter): the
// link-port set, which is replaced on invalidation and never mutated,
// and the flood plan, which also depends on the connection and port
// tables and is dropped whenever either changes.
type topoCache struct {
	valid  bool
	adj    map[uint64][]uint64      // switch -> neighbor DPIDs, ascending
	paths  map[switchPair][]uint64  // memoized BFS results; nil = no path
	egress map[switchPair]egressSel // memoized egress-port selections

	linkPorts  map[PortRef]bool // link endpoints; nil = not built
	flood      []floodTarget    // per-switch flood actions, ascending DPID
	floodValid bool
}

// floodTarget is one switch's share of a flood: an output action for
// every up port that is not a link endpoint, in ascending port order.
type floodTarget struct {
	conn    *Conn
	actions []openflow.Action
}

// switchPair keys the per-(src,dst) caches.
type switchPair struct {
	src uint64
	dst uint64
}

// egressSel is one cached egressPort answer.
type egressSel struct {
	port  uint32
	found bool
}

// invalidateTopo drops every derived topology view; the next forwarding
// query rebuilds them from c.links.
func (c *Controller) invalidateTopo() {
	c.topo.valid = false
	c.topo.linkPorts = nil
	c.invalidateFloodPlan()
}

// invalidateFloodPlan drops the flood plan alone, for connection and
// port-table changes that leave the link set as it was.
func (c *Controller) invalidateFloodPlan() {
	c.topo.flood, c.topo.floodValid = nil, false
}

// floodPlan returns the per-switch flood actions, building them on first
// use after an invalidation. Switches are in ascending DPID order and
// ports in ascending number, so flood emissions (and the RNG draws
// downstream of them) do not depend on map iteration; switches with no
// floodable port are left out.
func (c *Controller) floodPlan() []floodTarget {
	t := &c.topo
	if t.floodValid {
		return t.flood
	}
	linkPorts := c.LinkPorts()
	plan := make([]floodTarget, 0, len(c.conns))
	for _, dpid := range c.Switches() {
		conn := c.conns[dpid]
		var actions []openflow.Action
		for _, no := range c.sortedPortsInto(conn.ports) {
			if conn.ports[no].Up && !linkPorts[PortRef{DPID: dpid, Port: no}] {
				actions = append(actions, openflow.Output(no))
			}
		}
		if len(actions) > 0 {
			plan = append(plan, floodTarget{conn: conn, actions: actions})
		}
	}
	t.flood, t.floodValid = plan, true
	return plan
}

// sortLinks orders links by (Src, Dst) so every bulk operation over the
// link map — snapshots, evictions — runs in a reproducible order.
func sortLinks(ls []Link) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Src != ls[j].Src {
			return ls[i].Src.DPID < ls[j].Src.DPID ||
				(ls[i].Src.DPID == ls[j].Src.DPID && ls[i].Src.Port < ls[j].Src.Port)
		}
		return ls[i].Dst.DPID < ls[j].Dst.DPID ||
			(ls[i].Dst.DPID == ls[j].Dst.DPID && ls[i].Dst.Port < ls[j].Dst.Port)
	})
}

// removeLinksMatching evicts every link the predicate selects, emitting
// one link.removed span per eviction in sorted link order (span and
// observer order must not depend on map iteration), and reports how many
// links left the topology.
func (c *Controller) removeLinksMatching(pred func(Link) bool, reason string) int {
	doomed := make([]Link, 0, len(c.links))
	for l := range c.links {
		if pred(l) {
			doomed = append(doomed, l)
		}
	}
	sortLinks(doomed)
	for _, l := range doomed {
		delete(c.links, l)
		delete(c.linkBorn, l)
		c.m.linksRemoved.Inc()
		if tr := c.tracer; tr != nil {
			c.instant(tr, traceSiteLinkRemoved, trace.KindControl, "link.removed", l.Src, reason+" "+l.String())
		}
		for _, o := range c.removalObservers {
			o.ObserveLinkRemoved(l, reason)
		}
		c.discovery.linkRemoved(l, reason)
	}
	if len(doomed) > 0 {
		c.invalidateTopo()
	}
	return len(doomed)
}

// ensureTopo rebuilds the derived views after an invalidation and returns
// the cache. The adjacency lists are deduplicated (parallel links collapse
// to one neighbor entry) and sorted ascending, so BFS tie-breaking is
// deterministic rather than at the mercy of map iteration order.
func (c *Controller) ensureTopo() *topoCache {
	t := &c.topo
	if t.valid {
		return t
	}
	c.m.topoRebuilds.Inc()
	adj := make(map[uint64][]uint64)
	seen := make(map[switchPair]bool, len(c.links))
	for l := range c.links {
		p := switchPair{src: l.Src.DPID, dst: l.Dst.DPID}
		if seen[p] {
			continue
		}
		seen[p] = true
		adj[p.src] = append(adj[p.src], p.dst)
	}
	for _, neighbors := range adj {
		sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
	}
	t.adj = adj
	t.paths = make(map[switchPair][]uint64)
	t.egress = make(map[switchPair]egressSel)
	t.valid = true
	return t
}

// bfsPath runs breadth-first search over the adjacency map, returning the
// switch sequence from src to dst inclusive, or nil when unreachable.
func bfsPath(adj map[uint64][]uint64, src, dst uint64) []uint64 {
	prev := map[uint64]uint64{src: src}
	queue := []uint64{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if _, visited := prev[next]; visited {
				continue
			}
			prev[next] = cur
			if next == dst {
				var path []uint64
				for at := dst; ; at = prev[at] {
					path = append([]uint64{at}, path...)
					if at == src {
						return path
					}
				}
			}
			queue = append(queue, next)
		}
	}
	return nil
}
