// Package softdp implements the event-driven half of sOFTDP-style link
// discovery (Azzouni et al., arXiv 1705.04527): instead of sweeping every
// switch port with an LLDP Packet-Out per discovery interval, the
// controller probes a port only when a topology event suggests its link
// state may have changed — port-up, switch-connect, a one-sided link
// discovery, or a BFD path-state transition — and maintains each
// discovered link with a lightweight per-link session whose liveness
// replaces the periodic link-timeout sweep.
//
// The package is deliberately free of controller types: the Manager
// works in terms of (DPID, port) endpoints and delegates every side
// effect — scheduling, probe emission, link eviction, path-state
// queries — to the Hooks the embedding controller supplies. That keeps
// the protocol logic unit-testable and breaks the import cycle the
// controller's discovery strategy would otherwise create.
//
// Determinism: every timer the Manager arms is jittered from
// sim.MixSeed over the trial seed and the session's or port's identity,
// never from a kernel RNG, so firing times depend only on the entity and
// how many timers it has armed — not on shard placement or event
// interleaving. Sharded sOFTDP scenarios are byte-identical across shard
// counts for the same reason per-link RNG streams make frame latencies
// so.
//
// BFD modeling: per-link BFD sessions are not simulated hello by hello —
// at data-center scale the hellos would cost more kernel events than the
// OFDP sweeps they replace. Instead, exactly as dataplane.Port abstracts
// 802.3 link pulses into a detection-delay event, a session reacts to
// its underlying path's fault transitions (Manager.PathState) with a
// detection timer drawn from the configured BFD timing; the declared
// outcome — sub-second failure detection, immediate reconvergence on
// recovery — matches what a real BFD session at those timers produces.
// Links with no physical anchor (a fabricated link has no trunk to run
// BFD over) fall back to refresh-timeout eviction: the slow
// authenticated-LLDP refresh doubles as the liveness probe an attacker
// relay must keep answering.
package softdp

import (
	"fmt"
	"sort"
	"time"

	"sdntamper/internal/sim"
)

// Port names one switch port.
type Port struct {
	DPID uint64
	No   uint32
}

// String renders the port as dpid:port.
func (p Port) String() string { return fmt.Sprintf("0x%x:%d", p.DPID, p.No) }

// Link is a directed switch-to-switch link, mirroring the controller's
// link identity.
type Link struct {
	Src, Dst Port
}

// Reverse returns the link with endpoints swapped.
func (l Link) Reverse() Link { return Link{Src: l.Dst, Dst: l.Src} }

// String renders the link for logs and eviction reasons.
func (l Link) String() string { return l.Src.String() + "->" + l.Dst.String() }

// Config holds the protocol timing constants.
type Config struct {
	// ProbeDebounce delays a port-event-triggered probe so a flapping
	// port collapses into one emission: each new event while the timer is
	// pending re-arms it instead of scheduling a second probe.
	ProbeDebounce time.Duration
	// RefreshBase is a fresh session's first refresh interval. Early
	// refreshes run fast so latency inspectors (LLI) collect calibration
	// samples, then back off.
	RefreshBase time.Duration
	// RefreshMax caps the exponential backoff: the steady-state per-link
	// refresh cadence, and the knob that sets steady-state discovery
	// load (directed links / RefreshMax probes per second).
	RefreshMax time.Duration
	// RefreshBackoff multiplies the interval after each refresh until
	// RefreshMax is reached.
	RefreshBackoff float64
	// DetectMult is the unanchored-link detection multiplier: a session
	// with no BFD path anchor is evicted when no refresh has been
	// confirmed for DetectMult consecutive intervals.
	DetectMult int
	// BFDDetect is the time between a path fault notification and the
	// session declaring the link down (TxInterval x DetectMult of the
	// modeled BFD session).
	BFDDetect time.Duration
	// JitterFrac spreads every timer by +/- this fraction of its nominal
	// duration, derived deterministically from the session identity, so
	// sessions created in one burst do not re-fire in one burst.
	JitterFrac float64
}

// DefaultConfig returns the reference sOFTDP timing: 100 ms debounce,
// refresh backoff 15 s -> 150 s (x2), 3-interval unanchored timeout,
// 300 ms BFD detection, 20 % timer jitter.
func DefaultConfig() Config {
	return Config{
		ProbeDebounce:  100 * time.Millisecond,
		RefreshBase:    15 * time.Second,
		RefreshMax:     150 * time.Second,
		RefreshBackoff: 2,
		DetectMult:     3,
		BFDDetect:      300 * time.Millisecond,
		JitterFrac:     0.2,
	}
}

// Hooks are the side effects the Manager delegates to its embedder.
// Schedule, EmitProbe and Evict must be non-nil; the rest may be nil.
type Hooks struct {
	// Schedule runs fn after d on the controller's kernel.
	Schedule func(d time.Duration, fn func()) sim.Event
	// EmitProbe sends one LLDP probe out of the port. The embedder is
	// expected to drop the emission if the port is gone or down.
	EmitProbe func(p Port)
	// Evict removes a link the protocol has declared dead, with the
	// given reason ("bfd-down" or "refresh-timeout").
	Evict func(l Link, reason string)
	// PathState reports the last-known liveness of the physical path
	// under a link and whether the link has a path anchor at all
	// (anchored == false for fabricated links, which have no trunk to
	// run a BFD session over).
	PathState func(l Link) (alive, anchored bool)
	// Sessions is called with the live session count after every change,
	// for gauge upkeep.
	Sessions func(n int)
	// Logf receives protocol log lines.
	Logf func(format string, args ...any)
}

// session is the per-directed-link protocol state.
type session struct {
	link      Link
	interval  time.Duration // current refresh interval (pre-jitter)
	refresh   sim.Event     // next refresh emission
	deadline  sim.Event     // unanchored refresh-timeout eviction
	detect    sim.Event     // armed BFD down-confirmation
	jitterSeq uint64
}

// Manager runs the sOFTDP state machines for one controller.
type Manager struct {
	seed  int64
	cfg   Config
	hooks Hooks

	sessions map[Link]*session
	// pending maps ports with an armed debounce timer to the timer, so a
	// flap re-arms instead of duplicating.
	pending map[Port]sim.Event
	// probeSeq counts debounce arms per port for jitter derivation.
	probeSeq map[Port]uint64

	stopped bool
}

// Jitter-derivation tags: which timer class a MixSeed draw feeds.
const (
	jitterTagRefresh uint64 = iota + 1
	jitterTagDetect
	jitterTagProbe
)

// NewManager creates a Manager with the given trial seed, timing and
// hooks. Zero-valued Config fields are filled from DefaultConfig.
func NewManager(seed int64, cfg Config, hooks Hooks) *Manager {
	def := DefaultConfig()
	if cfg.ProbeDebounce <= 0 {
		cfg.ProbeDebounce = def.ProbeDebounce
	}
	if cfg.RefreshBase <= 0 {
		cfg.RefreshBase = def.RefreshBase
	}
	if cfg.RefreshMax <= 0 {
		cfg.RefreshMax = def.RefreshMax
	}
	if cfg.RefreshBackoff < 1 {
		cfg.RefreshBackoff = def.RefreshBackoff
	}
	if cfg.DetectMult <= 0 {
		cfg.DetectMult = def.DetectMult
	}
	if cfg.BFDDetect <= 0 {
		cfg.BFDDetect = def.BFDDetect
	}
	if cfg.JitterFrac < 0 || cfg.JitterFrac >= 1 {
		cfg.JitterFrac = def.JitterFrac
	}
	if hooks.Logf == nil {
		hooks.Logf = func(string, ...any) {}
	}
	return &Manager{
		seed:     seed,
		cfg:      cfg,
		hooks:    hooks,
		sessions: make(map[Link]*session),
		pending:  make(map[Port]sim.Event),
		probeSeq: make(map[Port]uint64),
	}
}

// Config reports the manager's effective timing.
func (m *Manager) Config() Config { return m.cfg }

// jitter spreads d by +/- JitterFrac, deterministically from the tagged
// identity and a per-entity sequence number.
func (m *Manager) jitter(d time.Duration, tag uint64, seq uint64, ids ...uint64) time.Duration {
	if m.cfg.JitterFrac == 0 || d <= 0 {
		return d
	}
	mix := sim.MixSeed(m.seed, append(append([]uint64{tag}, ids...), seq)...)
	// Uniform in [-JitterFrac, +JitterFrac) from the top 53 bits.
	frac := float64(uint64(mix)>>11) / float64(1<<53) // [0,1)
	scale := 1 + m.cfg.JitterFrac*(2*frac-1)
	out := time.Duration(float64(d) * scale)
	if out <= 0 {
		out = 1
	}
	return out
}

func linkIDs(l Link) []uint64 {
	return []uint64{l.Src.DPID, uint64(l.Src.No), l.Dst.DPID, uint64(l.Dst.No)}
}

// PortEvent notes a port that just became (or re-became) a candidate
// link endpoint — port-up, path recovery, or a one-sided discovery — and
// schedules one debounced probe for it. A port already holding a pending
// probe has its timer re-armed: a flap storm collapses into the single
// probe that follows the last event.
func (m *Manager) PortEvent(p Port) {
	if m.stopped {
		return
	}
	if ev, ok := m.pending[p]; ok {
		ev.Cancel()
	}
	m.probeSeq[p]++
	d := m.jitter(m.cfg.ProbeDebounce, jitterTagProbe, m.probeSeq[p], p.DPID, uint64(p.No))
	m.pending[p] = m.hooks.Schedule(d, func() {
		delete(m.pending, p)
		m.hooks.EmitProbe(p)
	})
}

// PortDown cancels any pending probe for the port. Session teardown is
// not its job: the controller evicts the port's links on Port-Down and
// those evictions arrive via LinkRemoved.
func (m *Manager) PortDown(p Port) {
	if ev, ok := m.pending[p]; ok {
		ev.Cancel()
		delete(m.pending, p)
	}
}

// SwitchGone drops every pending probe and session touching the switch,
// canceling their timers. The controller's Disconnect path evicts the
// switch's links itself; this keeps the protocol tables leak-free even
// when those eviction notifications are suppressed.
func (m *Manager) SwitchGone(dpid uint64) {
	ports := make([]Port, 0, 4)
	for p := range m.pending {
		if p.DPID == dpid {
			ports = append(ports, p)
		}
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i].No < ports[j].No })
	for _, p := range ports {
		m.pending[p].Cancel()
		delete(m.pending, p)
	}
	doomed := make([]Link, 0, 4)
	for l := range m.sessions {
		if l.Src.DPID == dpid || l.Dst.DPID == dpid {
			doomed = append(doomed, l)
		}
	}
	sortLinks(doomed)
	for _, l := range doomed {
		m.dropSession(l)
	}
}

// LinkSeen records a confirmed link observation: a fresh discovery opens
// a session, a refresh receipt re-arms the session's liveness deadline
// and backs off its refresh cadence. When the reverse direction has no
// session yet (a switch that reconnected is only probed from its own
// side), the destination port is scheduled for a probe so the pair
// converges — the "topology change" probe trigger.
func (m *Manager) LinkSeen(l Link, isNew bool) {
	if m.stopped {
		return
	}
	s, ok := m.sessions[l]
	if !ok {
		s = &session{link: l, interval: m.cfg.RefreshBase}
		m.sessions[l] = s
		m.noteSessions()
		m.armRefresh(s)
		m.armDeadline(s)
	} else {
		// Confirmed alive: back off and push the deadline out.
		next := time.Duration(float64(s.interval) * m.cfg.RefreshBackoff)
		if next > m.cfg.RefreshMax {
			next = m.cfg.RefreshMax
		}
		s.interval = next
		m.armDeadline(s)
	}
	if _, rev := m.sessions[l.Reverse()]; !rev {
		m.PortEvent(l.Dst)
	}
}

// LinkRemoved mirrors an external eviction (port-down, switch-down, a
// defense's RemoveLink): the session and its timers go away without a
// second eviction.
func (m *Manager) LinkRemoved(l Link) {
	m.dropSession(l)
}

// PathState delivers a BFD path-state transition for the (unordered)
// port pair. On a fault each direction's session arms its detection
// timer; if the path is still dead when it fires, the link is evicted
// with reason "bfd-down". On recovery pending detections cancel, and
// endpoints whose sessions were already evicted are re-probed so the
// links re-enter the topology.
func (m *Manager) PathState(a, b Port, alive bool) {
	if m.stopped {
		return
	}
	fwd, rev := Link{Src: a, Dst: b}, Link{Src: b, Dst: a}
	if alive {
		revived := false
		for _, l := range [2]Link{fwd, rev} {
			if s, ok := m.sessions[l]; ok {
				if s.detect.Scheduled() {
					s.detect.Cancel()
				}
			} else {
				revived = true
			}
		}
		if revived {
			m.PortEvent(a)
			m.PortEvent(b)
		}
		return
	}
	for _, l := range [2]Link{fwd, rev} {
		if s, ok := m.sessions[l]; ok && !s.detect.Scheduled() {
			m.armDetect(s)
		}
	}
}

// armRefresh schedules the session's next refresh probe.
func (m *Manager) armRefresh(s *session) {
	s.jitterSeq++
	d := m.jitter(s.interval, jitterTagRefresh, s.jitterSeq, linkIDs(s.link)...)
	s.refresh = m.hooks.Schedule(d, func() {
		if m.sessions[s.link] != s {
			return
		}
		m.hooks.EmitProbe(s.link.Src)
		m.armRefresh(s)
	})
}

// armDeadline re-arms the unanchored liveness deadline: DetectMult
// refresh intervals (at the current cadence) with no confirmed receipt.
// Anchored sessions keep the deadline armed but it is a no-op when it
// fires with the BFD path still alive — the anchor is authoritative, so
// partial loss eating refresh probes never evicts a healthy link.
func (m *Manager) armDeadline(s *session) {
	if s.deadline.Scheduled() {
		s.deadline.Cancel()
	}
	wait := time.Duration(m.cfg.DetectMult) * s.interval
	s.jitterSeq++
	d := m.jitter(wait, jitterTagRefresh, s.jitterSeq, linkIDs(s.link)...)
	s.deadline = m.hooks.Schedule(d, func() {
		if m.sessions[s.link] != s {
			return
		}
		if m.hooks.PathState != nil {
			if alive, anchored := m.hooks.PathState(s.link); anchored && alive {
				// BFD vouches for the path; keep the session and try again.
				m.armDeadline(s)
				return
			}
		}
		m.evict(s.link, "refresh-timeout")
	})
}

// armDetect schedules the BFD down-confirmation for a suspected session.
func (m *Manager) armDetect(s *session) {
	s.jitterSeq++
	d := m.jitter(m.cfg.BFDDetect, jitterTagDetect, s.jitterSeq, linkIDs(s.link)...)
	s.detect = m.hooks.Schedule(d, func() {
		if m.sessions[s.link] != s {
			return
		}
		if m.hooks.PathState != nil {
			if alive, _ := m.hooks.PathState(s.link); alive {
				return // flap recovered inside the detection window
			}
		}
		m.evict(s.link, "bfd-down")
	})
}

// evict tears the session down and reports the eviction.
func (m *Manager) evict(l Link, reason string) {
	m.dropSession(l)
	m.hooks.Logf("softdp: link %s declared down (%s)", l, reason)
	m.hooks.Evict(l, reason)
}

func (m *Manager) dropSession(l Link) {
	s, ok := m.sessions[l]
	if !ok {
		return
	}
	s.refresh.Cancel()
	s.deadline.Cancel()
	s.detect.Cancel()
	delete(m.sessions, l)
	m.noteSessions()
}

func (m *Manager) noteSessions() {
	if m.hooks.Sessions != nil {
		m.hooks.Sessions(len(m.sessions))
	}
}

// Stop cancels every timer the manager owns — sessions and pending
// probes — for a controller Shutdown. Session state is retained so a
// Resume can re-arm it.
func (m *Manager) Stop() {
	if m.stopped {
		return
	}
	m.stopped = true
	for _, ev := range m.pending {
		ev.Cancel()
	}
	m.pending = make(map[Port]sim.Event)
	for _, s := range m.sessions {
		s.refresh.Cancel()
		s.deadline.Cancel()
		s.detect.Cancel()
	}
}

// Resume re-arms the refresh and liveness timers of every retained
// session after a Stop, in sorted link order so timer sequence numbers
// are reproducible.
func (m *Manager) Resume() {
	if !m.stopped {
		return
	}
	m.stopped = false
	links := make([]Link, 0, len(m.sessions))
	for l := range m.sessions {
		links = append(links, l)
	}
	sortLinks(links)
	for _, l := range links {
		s := m.sessions[l]
		m.armRefresh(s)
		m.armDeadline(s)
	}
}

// SessionCount reports the number of live sessions.
func (m *Manager) SessionCount() int { return len(m.sessions) }

// PendingProbes reports the number of armed debounce timers — the
// zero-leak invariant extends over these: after every fault episode
// drains, the count must return to zero.
func (m *Manager) PendingProbes() int { return len(m.pending) }

func sortLinks(ls []Link) {
	sort.Slice(ls, func(i, j int) bool {
		a, b := ls[i], ls[j]
		if a.Src.DPID != b.Src.DPID {
			return a.Src.DPID < b.Src.DPID
		}
		if a.Src.No != b.Src.No {
			return a.Src.No < b.Src.No
		}
		if a.Dst.DPID != b.Dst.DPID {
			return a.Dst.DPID < b.Dst.DPID
		}
		return a.Dst.No < b.Dst.No
	})
}
