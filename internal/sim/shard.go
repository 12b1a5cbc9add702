package sim

import (
	"fmt"
	"sync"
	"time"
)

// ShardGroup coordinates several Kernels as one logical simulation,
// synchronized conservatively: virtual time advances in epochs no longer
// than the group lookahead — the minimum guaranteed latency of any
// cross-shard link — and cross-shard deliveries staged with Post are
// exchanged at the epoch boundaries. A message sent during epoch
// [T, T+L) on a link with minimum latency ≥ L is due no earlier than
// T+L, so flushing staged messages when every shard has reached T+L can
// never deliver into a shard's past; each shard's interior is therefore
// free to run without further coordination, serially or on its own
// goroutine.
//
// Determinism: staged messages are flushed in (source shard ID, send
// order) order, so the schedule a destination kernel observes is a pure
// function of the simulation state, not of goroutine interleaving.
// Parallel and serial epoch execution are bit-for-bit identical.
type ShardGroup struct {
	kernels  []*Kernel
	lookNs   int64 // conservative epoch stride; 0 until a link registers
	pending  [][]crossMsg
	parallel bool
	firstErr error
	health   []ShardHealth
}

// crossMsg is one staged cross-shard delivery: fn(arg) runs on the
// destination kernel at absolute virtual offset dueNs. span is the
// trace context captured on the source shard at Post time, stamped
// onto the destination event at flush so a causal chain crosses the
// epoch boundary with its parent intact.
type crossMsg struct {
	dst   int
	dueNs int64
	fn    func(any)
	arg   any
	span  uint64
}

// ShardHealth is one shard's execution-geometry gauges: how deep its
// event queue ran, how long it waited at epoch barriers, and how many
// cross-shard messages it staged. All three describe HOW the work was
// partitioned, not WHAT was simulated — queue depth and mailbox
// backlog vary with shard count and the stall is wall-clock — so they
// are exported through a separate health registry, never the merged
// deterministic snapshot.
type ShardHealth struct {
	// QueueDepth is the shard's pending-event count at the last epoch
	// boundary.
	QueueDepth int
	// QueuePeak is the highest boundary queue depth seen.
	QueuePeak int
	// EpochStallNs is the cumulative wall nanoseconds this shard's
	// worker spent finished-and-waiting at the epoch barrier for the
	// slowest shard (zero under serial execution, which has no barrier).
	EpochStallNs int64
	// MailboxPeak is the most cross-shard deliveries this shard ever
	// had staged at one flush.
	MailboxPeak int
}

// NewShardGroup builds a group over the given kernels, which must all
// share the same start clock. Shard IDs are the kernel indices.
func NewShardGroup(kernels ...*Kernel) *ShardGroup {
	if len(kernels) == 0 {
		panic("sim: shard group needs at least one kernel")
	}
	for _, k := range kernels[1:] {
		if k.nowNs != kernels[0].nowNs {
			panic("sim: shard kernels must share a clock")
		}
	}
	return &ShardGroup{
		kernels: kernels,
		pending: make([][]crossMsg, len(kernels)),
		health:  make([]ShardHealth, len(kernels)),
	}
}

// Health reports shard i's execution-geometry gauges.
func (g *ShardGroup) Health(i int) ShardHealth { return g.health[i] }

// Shards reports the number of kernels in the group.
func (g *ShardGroup) Shards() int { return len(g.kernels) }

// Kernel returns the kernel of shard i.
func (g *ShardGroup) Kernel(i int) *Kernel { return g.kernels[i] }

// SetParallel selects whether RunFor executes shard epochs on one worker
// goroutine per shard (true) or in shard-ID order on the calling
// goroutine (false, the default). The two modes produce identical
// simulations; parallel only changes wall-clock behavior.
func (g *ShardGroup) SetParallel(p bool) { g.parallel = p }

// RegisterCrossLatency narrows the group lookahead to min if it is
// smaller than the current value. Every cross-shard link must register
// its guaranteed minimum latency before the group runs; a link whose
// samples could undercut the registered bound would corrupt causality,
// which RunFor reports as a lookahead violation.
func (g *ShardGroup) RegisterCrossLatency(min time.Duration) {
	if min <= 0 {
		panic("sim: cross-shard lookahead must be positive")
	}
	if g.lookNs == 0 || int64(min) < g.lookNs {
		g.lookNs = int64(min)
	}
}

// Lookahead reports the group's epoch stride (zero until a cross-shard
// link registers).
func (g *ShardGroup) Lookahead() time.Duration { return time.Duration(g.lookNs) }

// Post stages fn(arg) for the kernel of shard dst at virtual delay d from
// shard src's current instant. It must be called from within src's event
// execution (each source shard owns its staging buffer, so concurrent
// epochs never contend). The delivery is scheduled on dst at the next
// epoch boundary, preserving the exact virtual due time.
func (g *ShardGroup) Post(src, dst int, d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	var span uint64
	if tr := g.kernels[src].tracer; tr != nil {
		span = tr.Current()
	}
	g.pending[src] = append(g.pending[src], crossMsg{
		dst:   dst,
		dueNs: g.kernels[src].nowNs + int64(d),
		fn:    fn,
		arg:   arg,
		span:  span,
	})
}

// flush drains every staging buffer into the destination kernels, in
// ascending source-shard order and send order within a source — the
// deterministic discipline that keeps destination schedules independent
// of goroutine interleaving. A message due before its destination's
// clock is a lookahead violation: it is delivered at the current instant
// (never into the past) and the first such violation is reported by
// RunFor.
func (g *ShardGroup) flush() {
	for src := range g.pending {
		buf := g.pending[src]
		if n := len(buf); n > g.health[src].MailboxPeak {
			g.health[src].MailboxPeak = n
		}
		for i := range buf {
			m := &buf[i]
			dst := g.kernels[m.dst]
			at := m.dueNs
			if at < dst.nowNs {
				if g.firstErr == nil {
					g.firstErr = fmt.Errorf("sim: lookahead violation: shard %d message due %v before shard %d clock %v",
						src, time.Duration(m.dueNs), m.dst, time.Duration(dst.nowNs))
				}
				at = dst.nowNs
			}
			dst.scheduleNsCtx(at, nil, m.fn, m.arg, m.span)
			m.fn = nil
			m.arg = nil
		}
		g.pending[src] = buf[:0]
	}
	for i, k := range g.kernels {
		d := k.Pending()
		g.health[i].QueueDepth = d
		if d > g.health[i].QueuePeak {
			g.health[i].QueuePeak = d
		}
	}
}

// RunFor advances every shard by virtual duration d, exchanging staged
// cross-shard messages at each lookahead boundary. With no registered
// cross latency the shards are assumed independent and run the span in
// one epoch. The first kernel error (event limit) or lookahead violation
// is returned after all shards stop at a common clock.
func (g *ShardGroup) RunFor(d time.Duration) error {
	if d < 0 {
		d = 0
	}
	start := g.kernels[0].nowNs
	end := start + int64(d)
	stride := g.lookNs
	if stride <= 0 {
		stride = int64(d)
	}
	var workers *shardWorkers
	if g.parallel && len(g.kernels) > 1 {
		workers = startShardWorkers(g.kernels)
		defer workers.stop()
	}
	for now := start; now < end || now == start; {
		deadline := now + stride
		if deadline > end || stride == 0 {
			deadline = end
		}
		if workers != nil {
			workers.runEpoch(deadline)
			var latest time.Time
			for _, f := range workers.finish {
				if f.After(latest) {
					latest = f
				}
			}
			for i, f := range workers.finish {
				g.health[i].EpochStallNs += latest.Sub(f).Nanoseconds()
			}
			for _, err := range workers.errs {
				if err != nil && g.firstErr == nil {
					g.firstErr = err
				}
			}
		} else {
			for _, k := range g.kernels {
				if err := k.runUntilNs(deadline); err != nil && g.firstErr == nil {
					g.firstErr = err
				}
			}
		}
		g.flush()
		if now == deadline { // d == 0: single degenerate epoch
			break
		}
		now = deadline
	}
	err := g.firstErr
	g.firstErr = nil
	return err
}

// Executed reports the total events run across all shards. Each frame or
// message send produces exactly one delivery event regardless of which
// shard executes it, so the sum is invariant across shard counts.
func (g *ShardGroup) Executed() uint64 {
	var total uint64
	for _, k := range g.kernels {
		total += k.executed
	}
	return total
}

// ShardExecuted reports the events run by shard i alone — execution
// geometry, useful for load-balance diagnostics, not shard-count
// invariant.
func (g *ShardGroup) ShardExecuted(i int) uint64 { return g.kernels[i].executed }

// shardWorkers runs one persistent goroutine per shard for the duration
// of a RunFor call, so the ~10⁵ epochs of a long run do not each pay a
// goroutine spawn.
type shardWorkers struct {
	kernels  []*Kernel
	deadline int64
	errs     []error
	finish   []time.Time // wall instant each worker reached the barrier
	start    []chan struct{}
	wg       sync.WaitGroup
}

func startShardWorkers(kernels []*Kernel) *shardWorkers {
	w := &shardWorkers{
		kernels: kernels,
		errs:    make([]error, len(kernels)),
		finish:  make([]time.Time, len(kernels)),
		start:   make([]chan struct{}, len(kernels)),
	}
	for i := range kernels {
		w.start[i] = make(chan struct{})
		go func(i int) {
			for range w.start[i] {
				if err := w.kernels[i].runUntilNs(w.deadline); err != nil && w.errs[i] == nil {
					w.errs[i] = err
				}
				w.finish[i] = time.Now()
				w.wg.Done()
			}
		}(i)
	}
	return w
}

// runEpoch releases every worker to run until deadline and blocks until
// all have reached it.
func (w *shardWorkers) runEpoch(deadline int64) {
	w.deadline = deadline
	w.wg.Add(len(w.kernels))
	for _, c := range w.start {
		c <- struct{}{}
	}
	w.wg.Wait()
}

func (w *shardWorkers) stop() {
	for _, c := range w.start {
		close(c)
	}
}

// MixSeed derives a deterministic sub-seed from a base seed and a list of
// identity tags (shard IDs, DPIDs, port numbers) using splitmix64 steps.
// netsim.Network uses it to give every shard — and every cross-visible
// random stream — a seed that depends only on the trial seed and the
// entity's identity, never on shard placement.
func MixSeed(base int64, tags ...uint64) int64 {
	x := uint64(base)
	mix := func(v uint64) {
		x += 0x9e3779b97f4a7c15 + v
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	mix(0)
	for _, t := range tags {
		mix(t)
	}
	return int64(x)
}
