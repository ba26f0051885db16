package mely

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/obs"
	"github.com/melyruntime/mely/internal/spillq"
)

// ErrOverloaded is returned by Post, PostContext, and PostBatch when a
// configured queue bound (Config.MaxQueuedEvents /
// Config.MaxQueuedPerColor) is exceeded under OverloadReject. Test with
// errors.Is; producers typically shed the request (respond 503, drop
// the sample) rather than retry immediately — the bound exists because
// the runtime is already behind.
var ErrOverloaded = errors.New("mely: queue bound exceeded (overloaded)")

// OverloadPolicy selects what posting does once a queue bound is hit.
// It only matters when Config.MaxQueuedEvents or MaxQueuedPerColor is
// set; without bounds queues grow without limit (the pre-overload
// behavior).
//
// The decision table:
//
//	policy          external Post            handler/timer posts
//	--------------  -----------------------  ----------------------
//	OverloadReject  ErrOverloaded            admitted (never fail)
//	OverloadBlock   waits (ctx-cancelable)   admitted (never block)
//	OverloadSpill   tail spills to disk      tail spills to disk
//
// External posts are Post/PostContext/PostBatch from outside a
// handler; posts from handler context (Ctx.Post and friends) and timer
// firings are internal continuations — failing or blocking them would
// deadlock the workers, so under Reject and Block they are always
// admitted (the bound is then enforced at the edge, which is where
// load enters). OverloadSpill applies to every post: a saturated
// color's tail moves to disk segments (internal/spillq) and reloads in
// FIFO order as the color drains below its low-water mark, so memory
// stays bounded no matter who posts.
type OverloadPolicy int

const (
	// OverloadReject fails external posts with ErrOverloaded once a
	// bound is hit (the default when bounds are configured).
	OverloadReject OverloadPolicy = iota
	// OverloadBlock makes external posts wait until the queues drain
	// below the bound; PostContext waits are cancelable. Runtime stop
	// releases every waiter with ErrStopped.
	OverloadBlock
	// OverloadSpill moves saturated colors' queue tails to disk
	// (Config.SpillDir) and reloads them as the colors drain: posting
	// never fails and in-memory queues stay within the bound.
	OverloadSpill
)

func (p OverloadPolicy) String() string {
	switch p {
	case OverloadReject:
		return "reject"
	case OverloadBlock:
		return "block"
	case OverloadSpill:
		return "spill"
	default:
		return fmt.Sprintf("OverloadPolicy(%d)", int(p))
	}
}

// ParseOverloadPolicy parses an overload policy name
// (reject|block|spill).
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	switch strings.ToLower(s) {
	case "reject", "":
		return OverloadReject, nil
	case "block":
		return OverloadBlock, nil
	case "spill":
		return OverloadSpill, nil
	default:
		return 0, fmt.Errorf("mely: unknown overload policy %q (reject|block|spill)", s)
	}
}

// SpillSyncPolicy selects when spilled records reach stable storage
// (Config.SpillSync): the loss-on-crash vs append-throughput dial of
// the spill store. Irrelevant without Config.SpillRecover in the sense
// that a non-recovering runtime deletes its segments anyway — but the
// syncs still happen as configured, so measure with the policy you
// deploy.
type SpillSyncPolicy int

const (
	// SpillSyncNone (the default) syncs only when a segment fills and
	// seals: a crash can lose each spilling color's open tail, up to
	// ~SpillSegmentBytes of records per color.
	SpillSyncNone SpillSyncPolicy = iota
	// SpillSyncInterval additionally syncs the open tail at most once
	// per Config.SpillSyncEvery: a crash loses at most one interval's
	// appends per color.
	SpillSyncInterval
	// SpillSyncAlways syncs every spilled batch before the append
	// returns: zero loss window — a record accepted onto disk survives
	// any crash — at a large throughput cost (one msync per append;
	// see BenchmarkSpillAppend and the README's tuning table).
	SpillSyncAlways
)

func (p SpillSyncPolicy) String() string {
	switch p {
	case SpillSyncNone:
		return "none"
	case SpillSyncInterval:
		return "interval"
	case SpillSyncAlways:
		return "always"
	default:
		return fmt.Sprintf("SpillSyncPolicy(%d)", int(p))
	}
}

// ParseSpillSyncPolicy parses a spill sync policy name
// (none|interval|always).
func ParseSpillSyncPolicy(s string) (SpillSyncPolicy, error) {
	switch strings.ToLower(s) {
	case "none", "":
		return SpillSyncNone, nil
	case "interval":
		return SpillSyncInterval, nil
	case "always":
		return SpillSyncAlways, nil
	default:
		return 0, fmt.Errorf("mely: unknown spill sync policy %q (none|interval|always)", s)
	}
}

// internal maps the public enum onto the store's.
func (p SpillSyncPolicy) internal() spillq.SyncPolicy {
	switch p {
	case SpillSyncInterval:
		return spillq.SyncInterval
	case SpillSyncAlways:
		return spillq.SyncAlways
	default:
		return spillq.SyncNone
	}
}

// PostContext is Post with cancellation: under OverloadBlock a bounded
// runtime makes posters wait for queue space, and ctx bounds that wait.
// Under every other configuration it behaves exactly like Post.
func (r *Runtime) PostContext(ctx context.Context, h Handler, color Color, data any) error {
	return r.post(ctx, h, color, data, true, 0, 0)
}

// PostEdge posts an event that is never rejected or blocked by an
// overload bound (a spilling color's disk-tail discipline still
// applies). It is the posting surface for edge components that
// implement their own backpressure: the contract is that the caller
// consults Saturated before producing more work for a color and pauses
// its source — netpoll pauses a saturated connection's read readiness —
// so its posts are the already-harvested remainder that failing or
// blocking would only lose or deadlock. Everything else should use
// Post, which the bounds actually govern.
func (r *Runtime) PostEdge(h Handler, color Color, data any) error {
	return r.post(nil, h, color, data, false, 0, 0)
}

// PostBatchEdge is PostEdge's batch form (see PostBatch for the
// delivery semantics).
func (r *Runtime) PostBatchEdge(batch []BatchEvent) error {
	return r.postBatch(batch, false, 0, 0)
}

// Bounded reports whether the runtime enforces overload bounds
// (Config.MaxQueuedEvents / MaxQueuedPerColor). Edge components use it
// to decide whether the Saturated-and-pause protocol is worth checking
// per unit of harvested work.
func (r *Runtime) Bounded() bool { return r.adm != nil }

// Saturated reports whether posting one more external event under
// color would currently hit a configured bound (always false on an
// unbounded runtime). Edge components use it for backpressure:
// netpoll pauses a connection's read readiness while its data color is
// saturated and resumes when the color drains, pushing the overload
// into the peer's TCP window instead of the runtime's memory.
func (r *Runtime) Saturated(color Color) bool {
	a := r.adm
	if a == nil {
		return false
	}
	if a.maxTotal > 0 && a.queued.Load() >= a.maxTotal {
		return true
	}
	if a.trackColors {
		s := a.shard(equeue.Color(color))
		s.mu.Lock()
		st := s.colors[equeue.Color(color)]
		sat := st != nil && (st.spilling ||
			(a.maxPerColor > 0 && st.mem >= a.maxPerColor))
		s.mu.Unlock()
		return sat
	}
	return false
}

// admRoute is an admission decision.
type admRoute int

const (
	routeMemory admRoute = iota // deliver to the in-memory queues (reserved)
	routeDisk                   // append to the color's spill tail
)

// admShardCount stripes the per-color admission state (power of two).
const admShardCount = 64

// reloadBatchRecords caps one reload iteration: enough to amortize the
// segment read, small enough that a reload cannot blow through the
// global bound before re-checking headroom.
const reloadBatchRecords = 256

type admShard struct {
	mu     sync.Mutex
	colors map[equeue.Color]*colorAdm
}

// colorAdm is one color's admission state. All fields are guarded by
// the owning shard's mutex.
type colorAdm struct {
	mem      int64 // in-memory queued events of this color
	disk     int64 // spilled records not yet reloaded
	diskCost int64 // penalty-weighted cost of those records (mirror)
	// spilling marks the color's tail as living on disk: every new post
	// of the color routes to disk until the backlog fully reloads, which
	// is what keeps per-color FIFO across the spill boundary.
	spilling bool
	// reloading serializes reloads of one color (at most one worker or
	// poster drains a color's disk tail at a time).
	reloading bool
	// starved marks a spilling color with an empty in-memory queue that
	// could not reload for lack of global headroom; any event completion
	// that frees headroom picks starved colors back up.
	starved bool
}

// admission is the overload-control layer: queue-bound accounting,
// the Reject/Block/Spill policy machinery, and the bridge to the
// spillq store. It exists only on bounded runtimes (r.adm non-nil).
type admission struct {
	r           *Runtime
	policy      OverloadPolicy
	maxTotal    int64
	maxPerColor int64
	// lowWater is the per-color reload threshold: a spilling color
	// whose in-memory depth drains to it pulls the next batch back from
	// disk. Half the effective per-color bound.
	lowWater    int64
	trackColors bool

	// queued is the runtime-wide in-memory queued-event gauge
	// (Stats.QueuedEvents). Maintained only on bounded runtimes.
	queued atomic.Int64

	store  *spillq.Store
	ownDir bool

	shards [admShardCount]admShard

	// starved colors wait here for global headroom (see colorAdm).
	starvedMu sync.Mutex
	starvedQ  []equeue.Color
	starvedN  atomic.Int32

	// Block-policy gate: waiters subscribe to blockCh and every
	// completion that could open space closes it.
	blockMu      sync.Mutex
	blockCh      chan struct{}
	blockWaiters atomic.Int32

	spilled   atomic.Int64
	reloaded  atomic.Int64
	rejected  atomic.Int64
	blocked   atomic.Int64
	spillErrs atomic.Int64
	depthHist [SpillDepthBuckets]atomic.Int64

	closeOnce sync.Once
	closeErr  error
}

// newAdmission builds the overload layer for a bounded Config (it is
// not constructed at all when no bound is set). For OverloadSpill it
// opens the spill store, defaulting SpillDir to a fresh private temp
// directory; an explicit SpillDir is used as-is (one runtime per
// directory) and survives as a directory across runs — only the
// runtime's segment files are cleaned up.
func newAdmission(r *Runtime, cfg Config) (*admission, error) {
	a := &admission{
		r:           r,
		policy:      cfg.OverloadPolicy,
		maxTotal:    int64(cfg.MaxQueuedEvents),
		maxPerColor: int64(cfg.MaxQueuedPerColor),
	}
	a.trackColors = a.maxPerColor > 0 || a.policy == OverloadSpill
	colorCap := a.maxPerColor
	if colorCap <= 0 || (a.maxTotal > 0 && a.maxTotal < colorCap) {
		colorCap = a.maxTotal
	}
	a.lowWater = colorCap / 2
	if a.lowWater < 1 {
		a.lowWater = 1
	}
	for i := range a.shards {
		a.shards[i].colors = make(map[equeue.Color]*colorAdm)
	}
	if a.policy == OverloadSpill {
		dir := cfg.SpillDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "mely-spill-")
			if err != nil {
				return nil, fmt.Errorf("mely: spill dir: %w", err)
			}
			dir = tmp
			a.ownDir = true
		}
		opts := spillq.Options{
			SegmentBytes: cfg.SpillSegmentBytes,
			Sync:         cfg.SpillSync.internal(),
			SyncEvery:    cfg.SpillSyncEvery,
			Recover:      cfg.SpillRecover,
		}
		// Recovery: the store replays surviving record headers during
		// Open (per-color FIFO order); aggregate them per color here,
		// then adopt each backlog below — after the store is wired —
		// so the colors start out spilling with the right disk depth
		// and weighted cost, and reloading begins immediately.
		type recAgg struct{ n, cost int64 }
		var backlogs map[equeue.Color]*recAgg
		if cfg.SpillRecover {
			backlogs = make(map[equeue.Color]*recAgg)
			opts.OnRecover = func(rec spillq.Record) {
				color := equeue.Color(rec.Color)
				ag := backlogs[color]
				if ag == nil {
					ag = &recAgg{}
					backlogs[color] = ag
				}
				ag.n++
				ag.cost += weightedSpillCost(rec.Cost, rec.Penalty)
			}
		}
		store, err := spillq.Open(dir, opts)
		if err != nil {
			if a.ownDir {
				os.RemoveAll(dir)
			}
			return nil, fmt.Errorf("mely: %w", err)
		}
		a.store = store
		for color, ag := range backlogs {
			a.adoptRecovered(color, ag.n, ag.cost)
		}
	}
	return a, nil
}

// adoptRecovered publishes one color's crash-recovered disk backlog
// into the admission state: the color starts out spilling (new posts
// route to disk behind the backlog, preserving per-color FIFO across
// the restart), the records count as pending work, the steal-worthiness
// mirror sees the disk cost, and the reload machinery starts pulling
// the backlog into memory immediately — recovered events need no
// triggering execution, they flow in under the normal headroom-bounded
// batches (leftovers park as starved and drain on completions).
func (a *admission) adoptRecovered(color equeue.Color, n, cost int64) {
	a.r.pending.Add(n)
	s := a.shard(color)
	s.mu.Lock()
	st := s.colors[color]
	if st == nil {
		st = &colorAdm{}
		s.colors[color] = st
	}
	st.disk += n
	st.diskCost += cost
	st.spilling = true
	st.reloading = true
	s.mu.Unlock()
	a.r.syncSpillMirror(color, n, cost)
	a.reload(color)
}

// close shuts the spill store down and releases blocked posters.
// Idempotent; called from Stop after the workers have exited.
func (a *admission) close() {
	a.closeOnce.Do(func() {
		a.wakeBlocked()
		if a.store != nil {
			a.closeErr = a.store.Close()
			if a.ownDir {
				os.RemoveAll(a.store.Dir())
			}
		}
	})
}

func (a *admission) shard(c equeue.Color) *admShard {
	// The same mix the color table uses, over different bits.
	x := uint64(c)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return &a.shards[x&(admShardCount-1)]
}

// headroom reports whether the global bound has space for one more
// in-memory event.
func (a *admission) headroom() bool {
	return a.maxTotal <= 0 || a.queued.Load() < a.maxTotal
}

// admit is the admission decision for one event about to be posted.
// routeMemory means the event was reserved against the bounds (the
// caller must enqueue it); routeDisk means the caller must append it
// to the color's spill tail instead. external distinguishes edge posts
// from handler/timer continuations (see OverloadPolicy).
func (a *admission) admit(ctx context.Context, color equeue.Color, external bool) (admRoute, error) {
	countedBlock := false
	for {
		if a.r.stopped.Load() {
			return 0, ErrStopped
		}
		if !a.trackColors {
			// Global bound only, Reject or Block: no per-color state.
			q := a.queued.Load()
			if a.maxTotal > 0 && q >= a.maxTotal && external {
				if a.policy == OverloadReject {
					a.rejected.Add(1)
					return 0, ErrOverloaded
				}
				if !countedBlock {
					a.blocked.Add(1)
					countedBlock = true
				}
				if err := a.waitBelow(ctx, a.headroom); err != nil {
					return 0, err
				}
				continue
			}
			if !a.queued.CompareAndSwap(q, q+1) {
				continue // raced another poster; re-evaluate the bound
			}
			return routeMemory, nil
		}

		s := a.shard(color)
		s.mu.Lock()
		st := s.colors[color]
		spilling := st != nil && st.spilling
		overColor := a.maxPerColor > 0 && st != nil && st.mem >= a.maxPerColor
		if a.policy == OverloadSpill && (spilling || overColor) {
			if st == nil {
				st = &colorAdm{}
				s.colors[color] = st
			}
			st.spilling = true
			s.mu.Unlock()
			return routeDisk, nil
		}
		if overColor && external {
			// Reject/Block at the per-color bound (no global slot was
			// consumed).
			s.mu.Unlock()
			if a.policy == OverloadReject {
				a.rejected.Add(1)
				return 0, ErrOverloaded
			}
			if !countedBlock {
				a.blocked.Add(1)
				countedBlock = true
			}
			err := a.waitBelow(ctx, func() bool {
				if !a.headroom() {
					return false
				}
				s.mu.Lock()
				st := s.colors[color]
				ok := st == nil || st.mem < a.maxPerColor
				s.mu.Unlock()
				return ok
			})
			if err != nil {
				return 0, err
			}
			continue
		}
		// Global reservation, CAS-strict: concurrent posters on other
		// shards cannot jointly overshoot the bound.
		if !a.reserveGlobal() {
			if a.policy == OverloadSpill {
				if st == nil {
					st = &colorAdm{}
					s.colors[color] = st
				}
				st.spilling = true
				s.mu.Unlock()
				return routeDisk, nil
			}
			if external {
				s.mu.Unlock()
				if a.policy == OverloadReject {
					a.rejected.Add(1)
					return 0, ErrOverloaded
				}
				if !countedBlock {
					a.blocked.Add(1)
					countedBlock = true
				}
				if err := a.waitBelow(ctx, a.headroom); err != nil {
					return 0, err
				}
				continue
			}
			// Internal continuation under Reject/Block: admitted past
			// the bound rather than wedging a worker.
			a.queued.Add(1)
		}
		if st == nil {
			st = &colorAdm{}
			s.colors[color] = st
		}
		st.mem++
		s.mu.Unlock()
		return routeMemory, nil
	}
}

// reserveGlobal claims one in-memory slot against MaxQueuedEvents,
// strictly (CAS): false means the bound is full and nothing was
// claimed.
func (a *admission) reserveGlobal() bool {
	return a.claimGlobal(1) == 1
}

// claimGlobal claims up to want in-memory slots against
// MaxQueuedEvents, strictly (CAS), returning how many were claimed.
func (a *admission) claimGlobal(want int64) int64 {
	if want <= 0 {
		return 0
	}
	for {
		q := a.queued.Load()
		n := want
		if a.maxTotal > 0 {
			if head := a.maxTotal - q; head < n {
				n = head
			}
		}
		if n <= 0 {
			return 0
		}
		if a.queued.CompareAndSwap(q, q+n) {
			return n
		}
	}
}

// admitInternal routes an internally-materialized event (timer firing):
// never rejected, never blocked, but a spilling color's tail discipline
// still applies.
func (a *admission) admitInternal(color equeue.Color) admRoute {
	route, _ := a.admit(nil, color, false)
	return route
}

// forceMemory reserves an event against the gauges without a bound
// check: the fallback when a spill-routed event turns out not to be
// encodable (or the store fails) and losing it would be worse than
// overshooting the bound. A color whose admission marked it spilling
// but whose overflow cannot actually reach the disk must not stay
// flagged: with no disk backlog there is no reload to ever clear it,
// and a permanently "spilling" color reads as saturated forever
// (pausing its connection's reads for good). The flag is re-derived
// here from the real disk depth.
func (a *admission) forceMemory(color equeue.Color) {
	a.queued.Add(1)
	if a.trackColors {
		s := a.shard(color)
		s.mu.Lock()
		st := s.colors[color]
		if st == nil {
			st = &colorAdm{}
			s.colors[color] = st
		}
		st.mem++
		if st.spilling && st.disk == 0 && !st.reloading {
			st.spilling = false
		}
		s.mu.Unlock()
	}
}

// waitBelow blocks until check passes, the runtime stops, or ctx ends.
// A nil return means "re-try admission", not "admitted".
func (a *admission) waitBelow(ctx context.Context, check func() bool) error {
	a.blockWaiters.Add(1)
	defer a.blockWaiters.Add(-1)
	a.blockMu.Lock()
	ch := a.blockCh
	if ch == nil {
		ch = make(chan struct{})
		a.blockCh = ch
	}
	a.blockMu.Unlock()
	// Re-check after subscribing: a completion between the caller's
	// bound check and the subscription has already closed ch or is
	// observable here — either way the wake cannot be missed.
	if check() || a.r.stopped.Load() {
		return nil
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-ch:
		return nil
	case <-done:
		return ctx.Err()
	}
}

// wakeBlocked releases every Block-policy waiter to re-try admission.
func (a *admission) wakeBlocked() {
	a.blockMu.Lock()
	if a.blockCh != nil {
		close(a.blockCh)
		a.blockCh = nil
	}
	a.blockMu.Unlock()
}

// noteExec accounts one executed event leaving the in-memory queues:
// the gauge decrement, the Block-policy wake, the low-water reload
// trigger for its color, and the starved-color pickup that runs on any
// completion once global headroom exists. Called by the workers after
// every handler execution on a bounded runtime.
func (a *admission) noteExec(color equeue.Color) {
	a.queued.Add(-1)
	if a.blockWaiters.Load() > 0 {
		a.wakeBlocked()
	}
	if a.trackColors {
		var doReload bool
		s := a.shard(color)
		s.mu.Lock()
		if st := s.colors[color]; st != nil {
			st.mem--
			switch {
			case st.spilling && !st.reloading && st.disk > 0 && st.mem <= a.lowWater:
				if a.headroom() {
					st.reloading = true
					doReload = true
				} else if st.mem == 0 {
					// The color's memory is empty and the machine is at
					// its bound: no execution of this color will ever
					// come to trigger the reload, so park it for starved
					// pickup by whichever completion frees headroom.
					a.markStarvedLocked(st, color)
				}
			case st.spilling && st.disk == 0 && !st.reloading:
				// Safety net: a spilling flag with no disk backlog has
				// no reload left to clear it (spill fallbacks and append
				// failures can leave this state); clear it here so the
				// color does not read as saturated forever. An append
				// between admission and the store (microseconds) simply
				// re-marks it.
				st.spilling = false
				if st.mem == 0 {
					delete(s.colors, color)
				}
			case !st.spilling && st.mem == 0 && st.disk == 0:
				// Fully idle: drop the entry so the maps track the
				// working set, not the color keyspace.
				delete(s.colors, color)
			}
		}
		s.mu.Unlock()
		if doReload {
			a.reload(color)
		}
	}
	if a.starvedN.Load() > 0 && a.headroom() {
		a.reloadStarved()
	}
}

// markStarvedLocked queues a spilling color whose memory drained but
// whose reload found no global headroom. Caller holds the color's
// shard lock.
func (a *admission) markStarvedLocked(st *colorAdm, color equeue.Color) {
	if st.starved {
		return
	}
	st.starved = true
	a.starvedMu.Lock()
	a.starvedQ = append(a.starvedQ, color)
	a.starvedN.Store(int32(len(a.starvedQ)))
	a.starvedMu.Unlock()
}

// reloadStarved picks one starved color and reloads it. Runs on any
// event completion once headroom exists, so a color whose memory fully
// drained while the machine was at its bound cannot be stranded on
// disk: some in-memory event must complete before headroom appears,
// and that completion lands here.
func (a *admission) reloadStarved() {
	a.starvedMu.Lock()
	var color equeue.Color
	var have bool
	if len(a.starvedQ) > 0 {
		color = a.starvedQ[0]
		a.starvedQ = a.starvedQ[1:]
		a.starvedN.Store(int32(len(a.starvedQ)))
		have = true
	}
	a.starvedMu.Unlock()
	if !have {
		return
	}
	s := a.shard(color)
	s.mu.Lock()
	st := s.colors[color]
	if st == nil {
		s.mu.Unlock()
		return
	}
	st.starved = false
	if st.reloading || st.disk == 0 {
		s.mu.Unlock()
		return
	}
	st.reloading = true
	s.mu.Unlock()
	a.reload(color)
}

// reload drains one color's disk tail back into the in-memory queues:
// headroom-bounded batches, FIFO order, delivered through the normal
// ownership lease path — so a reloaded tail follows its color wherever
// a steal moved it. The caller must have set st.reloading; reload
// clears it on every exit path — and never before its own batch has
// been enqueued: both st.spilling and st.reloading stay set through
// the enqueue loop, so a concurrent post cannot slip into memory ahead
// of older spilled events (the flags only drop once the tail is truly
// empty AND delivered). Disk reads happen outside the shard mutex —
// st.reloading serializes readers per color, and appenders reserve
// st.disk before touching the store, so a read can at worst come up
// short (an append in flight), never inconsistent.
func (a *admission) reload(color equeue.Color) {
	var buf []spillq.Record
	for {
		s := a.shard(color)
		s.mu.Lock()
		st := s.colors[color]
		if st == nil {
			s.mu.Unlock()
			return
		}
		if st.disk == 0 {
			st.spilling = false
			st.reloading = false
			if st.mem == 0 {
				delete(s.colors, color)
			}
			s.mu.Unlock()
			a.r.syncSpillMirror(color, 0, 0)
			return
		}
		want := int64(reloadBatchRecords)
		if want > st.disk {
			want = st.disk
		}
		if a.maxPerColor > 0 {
			head := a.maxPerColor - st.mem
			if head <= 0 {
				// The color refilled (posters raced the reload); the next
				// completion of this color re-triggers.
				st.reloading = false
				s.mu.Unlock()
				return
			}
			if want > head {
				want = head
			}
		}
		// Claim the global slots CAS-strictly before touching the store,
		// so concurrent reloads and posters cannot jointly push memory
		// past the bound; unused claims are released after the read.
		claimed := a.claimGlobal(want)
		if claimed == 0 {
			st.reloading = false
			if st.mem == 0 {
				a.markStarvedLocked(st, color)
			}
			s.mu.Unlock()
			// Close the race with a completion that freed headroom
			// between our check and the starved mark (atomics are
			// sequentially consistent: either it saw the mark, or we
			// see its decrement here).
			if a.starvedN.Load() > 0 && a.headroom() {
				a.reloadStarved()
			}
			return
		}
		s.mu.Unlock()

		// Disk read without the shard lock (Saturated and noteExec must
		// not wait out an I/O): st.reloading keeps this color's reads
		// exclusive.
		var err error
		buf, err = a.store.Reload(uint64(color), int(claimed), buf[:0])
		n := int64(len(buf))
		if n < claimed {
			a.queued.Add(n - claimed) // release the unused claims
		}

		s.mu.Lock()
		if err != nil && n == 0 {
			// The disk tail is unreadable (I/O error or store closed
			// mid-shutdown). The records cannot be recovered: account
			// them as lost so Drain does not wait forever, and surface
			// the failure in SpillErrors.
			a.spillErrs.Add(1)
			lost := st.disk
			st.disk, st.diskCost = 0, 0
			st.spilling, st.reloading = false, false
			s.mu.Unlock()
			a.r.pending.Add(-lost)
			a.r.syncSpillMirror(color, 0, 0)
			if lost > 0 && a.r.pending.Load() == 0 && a.r.drainWaiters.Load() > 0 {
				a.r.wakeDrainers()
			}
			return
		}
		if n == 0 {
			// An appender reserved st.disk but its store write is still
			// in flight; it re-triggers the reload itself once the
			// record lands.
			st.reloading = false
			if st.mem == 0 {
				a.markStarvedLocked(st, color)
			}
			s.mu.Unlock()
			return
		}
		var cost int64
		for i := range buf {
			cost += weightedSpillCost(buf[i].Cost, buf[i].Penalty)
		}
		st.disk -= n
		st.diskCost -= cost
		if st.disk == 0 || st.diskCost < 0 {
			st.diskCost = 0
		}
		st.mem += n // the matching global slots were claimed above
		diskAfter, costAfter := st.disk, st.diskCost
		s.mu.Unlock()

		// Enqueue with spilling/reloading still set: posts of this color
		// keep routing behind the tail until this batch is in the
		// queues.
		a.reloaded.Add(n)
		a.r.traceAux(obs.KindReload, 0, uint64(color), uint32(clampUint32(n)))
		for i := range buf {
			a.r.enqueue(a.r.eventFromRecord(&buf[i]))
		}
		a.r.syncSpillMirror(color, diskAfter, costAfter)

		s.mu.Lock()
		if st.disk == 0 {
			st.spilling = false
			st.reloading = false
			if st.mem == 0 {
				delete(s.colors, color)
			}
			s.mu.Unlock()
			return
		}
		if st.mem > a.lowWater {
			st.reloading = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
	}
}

// appendRecord moves one admitted-to-disk event onto its color's spill
// tail. The disk slot is reserved under the shard lock BEFORE the
// store write and the write itself happens outside it (the shard lock
// is on the Saturated/noteExec fast paths; holding it across an I/O
// would stall the epoll reactors and every worker sharing the shard) —
// a reload racing the in-flight write sees st.disk > 0 with the store
// still short, comes up empty, and defers back to us: the post-append
// section below re-triggers the reload, so a record landing on a color
// whose memory already drained is never stranded.
func (a *admission) appendRecord(color equeue.Color, rec spillq.Record) error {
	w := weightedSpillCost(rec.Cost, rec.Penalty)
	s := a.shard(color)
	s.mu.Lock()
	st := s.colors[color]
	if st == nil {
		st = &colorAdm{}
		s.colors[color] = st
	}
	st.spilling = true
	st.disk++
	st.diskCost += w
	s.mu.Unlock()

	err := a.store.Append(uint64(color), []spillq.Record{rec})

	s.mu.Lock()
	if err != nil {
		// The record never landed: release the reserved slot, and drop
		// the spilling flag if this reservation was all that held it
		// (the caller delivers the event in memory instead).
		st.disk--
		st.diskCost -= w
		if st.disk == 0 {
			st.diskCost = 0
			if !st.reloading {
				st.spilling = false
			}
		}
		s.mu.Unlock()
		return err
	}
	a.spilled.Add(1)
	a.depthHist[spillDepthEdges.bucket(st.disk)].Add(1)
	a.r.traceAuxFlow(obs.KindSpill, 0, uint64(color), uint32(clampUint32(st.disk)), rec.TraceID, rec.SpanID, rec.ParentSpan)
	disk, cost := st.disk, st.diskCost
	var doReload bool
	if st.mem == 0 && !st.reloading {
		if a.headroom() {
			st.reloading = true
			doReload = true
		} else {
			a.markStarvedLocked(st, color)
		}
	}
	s.mu.Unlock()
	a.r.syncSpillMirror(color, disk, cost)
	if doReload {
		a.reload(color)
	}
	return nil
}

// weightedSpillCost mirrors equeue.Event.WeightedCost for a spilled
// record: the penalty-weighted cost the steal worthiness accounting
// uses.
func weightedSpillCost(cost int64, penalty int32) int64 {
	if penalty <= 1 {
		return cost
	}
	w := cost / int64(penalty)
	if w < 1 {
		w = 1
	}
	return w
}

// spillPost routes one disk-admitted external post: encode, count,
// append. Unencodable payloads and store failures fall back to an
// in-memory delivery (counted in SpillErrors) — overshooting the bound
// beats losing the event.
func (r *Runtime) spillPost(hs []handlerEntry, idx int32, color Color, data any, ptrace, pspan uint64) error {
	tag, payload, ok := encodeSpillPayload(data)
	if !ok {
		r.adm.spillErrs.Add(1)
		r.adm.forceMemory(equeue.Color(color))
		ev, err := r.buildEvent(hs, Handler{id: idx + 1}, color, data, ptrace, pspan)
		if err != nil {
			return err
		}
		r.pending.Add(1)
		r.enqueue(ev)
		return nil
	}
	rec := spillq.Record{
		Handler: idx,
		Color:   uint64(color),
		Cost:    r.estimate(idx),
		Penalty: r.pol.EffectivePenalty(hs[idx].penalty),
		Tag:     tag,
		Payload: payload,
	}
	if r.traced(ptrace, true) {
		// The span is minted at spill time so the record carries its
		// full lineage to disk: the reloaded event is the SAME hop, not
		// a new one, and melytrace sees one span spanning the disk
		// round-trip. A spilled root is always sampled: next to the
		// disk append its ids cost nothing, and it heads a chain an
		// operator diagnosing overload wants to see.
		span := r.traceSeq.Add(1)
		rec.SpanID = span
		if ptrace != 0 {
			rec.TraceID, rec.ParentSpan = ptrace, pspan
		} else {
			rec.TraceID = span
		}
	}
	r.pending.Add(1)
	if err := r.adm.appendRecord(equeue.Color(color), rec); err != nil {
		r.adm.spillErrs.Add(1)
		r.adm.forceMemory(equeue.Color(color))
		ev, berr := r.buildEvent(hs, Handler{id: idx + 1}, color, data, ptrace, pspan)
		if berr != nil {
			r.pending.Add(-1)
			return berr
		}
		r.enqueue(ev)
	}
	return nil
}

// spillBuilt is spillPost for an already-materialized event (timer
// firings): the event is released back to the pool once its record is
// on disk.
func (r *Runtime) spillBuilt(ev *equeue.Event) {
	tag, payload, ok := encodeSpillPayload(ev.Data)
	if !ok {
		r.adm.spillErrs.Add(1)
		r.adm.forceMemory(ev.Color)
		r.pending.Add(1)
		r.enqueue(ev)
		return
	}
	rec := spillq.Record{
		Handler:    int32(ev.Handler),
		Color:      uint64(ev.Color),
		Cost:       ev.Cost,
		Penalty:    ev.Penalty,
		Tag:        tag,
		Payload:    payload,
		TraceID:    ev.TraceID,
		SpanID:     ev.SpanID,
		ParentSpan: ev.ParentSpan,
	}
	r.pending.Add(1)
	if err := r.adm.appendRecord(ev.Color, rec); err != nil {
		r.adm.spillErrs.Add(1)
		r.adm.forceMemory(ev.Color)
		r.enqueue(ev)
		return
	}
	*ev = equeue.Event{}
	r.evPool.Put(ev)
}

// eventFromRecord rebuilds a pooled event from a reloaded record. The
// latency sampler re-stamps here: a reloaded event's queue delay is
// measured from its reload, not its original post — the disk dwell is
// observable separately (SpilledEvents/SpilledNow), and folding it in
// would let one spill burst dominate the delay histogram for good.
func (r *Runtime) eventFromRecord(rec *spillq.Record) *equeue.Event {
	ev := r.evPool.Get().(*equeue.Event)
	*ev = equeue.Event{
		Handler:    equeue.HandlerID(rec.Handler),
		Color:      equeue.Color(rec.Color),
		Cost:       rec.Cost,
		Penalty:    rec.Penalty,
		Data:       decodeSpillPayload(rec.Tag, rec.Payload),
		TraceID:    rec.TraceID,
		SpanID:     rec.SpanID,
		ParentSpan: rec.ParentSpan,
	}
	if r.obsOn && r.obsSeq.Add(1)&r.obsMask == 0 {
		ev.PostNanos = r.now()
	}
	return ev
}

// syncSpillMirror publishes a color's on-disk backlog (count and
// weighted cost) into the queue structures so steal decisions weigh
// the whole color. Best effort: the mirror re-syncs on every spill
// append and reload, so a race with a concurrent steal only leaves it
// stale until the next spill activity.
func (r *Runtime) syncSpillMirror(color equeue.Color, n int64, cost int64) {
	for tries := 0; tries < 4; tries++ {
		owner := r.table.OwnerHint(color)
		c := r.cores[owner]
		c.lock.Lock()
		if r.table.Owner(color) != owner {
			c.lock.Unlock()
			continue // stolen between resolution and lock; retry
		}
		if c.list != nil {
			c.list.SetSpillBacklog(color, int(n))
		} else if cq := r.table.Queue(color); cq != nil && cq != inTransitMarker {
			c.mely.SetSpillBacklog(cq, int(n), cost)
		}
		c.syncDiskLen()
		c.lock.Unlock()
		return
	}
}

// Spill payload encoding: the compact tagged binary format for
// equeue.Event.Data. Only self-contained value kinds round-trip
// through disk; pointerful payloads cannot (a spilled pointer would
// dangle across the disk boundary in spirit — the memory it points to
// is exactly what spilling is supposed to release). Events of a
// spilling color with unencodable payloads are delivered in memory and
// counted in Stats.SpillErrors.
const (
	spillTagNil = iota
	spillTagBytes
	spillTagString
	spillTagInt64
	spillTagInt
	spillTagUint64
	spillTagBool
	spillTagFloat64
)

// encodeSpillPayload serializes a supported payload value.
func encodeSpillPayload(data any) (tag uint8, b []byte, ok bool) {
	switch v := data.(type) {
	case nil:
		return spillTagNil, nil, true
	case []byte:
		return spillTagBytes, v, true
	case string:
		return spillTagString, []byte(v), true
	case int64:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		return spillTagInt64, buf[:], true
	case int:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		return spillTagInt, buf[:], true
	case uint64:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		return spillTagUint64, buf[:], true
	case bool:
		if v {
			return spillTagBool, []byte{1}, true
		}
		return spillTagBool, []byte{0}, true
	case float64:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		return spillTagFloat64, buf[:], true
	default:
		return 0, nil, false
	}
}

// decodeSpillPayload is encodeSpillPayload's inverse.
func decodeSpillPayload(tag uint8, b []byte) any {
	switch tag {
	case spillTagBytes:
		return b
	case spillTagString:
		return string(b)
	case spillTagInt64:
		return int64(binary.LittleEndian.Uint64(b))
	case spillTagInt:
		return int(binary.LittleEndian.Uint64(b))
	case spillTagUint64:
		return binary.LittleEndian.Uint64(b)
	case spillTagBool:
		return b[0] != 0
	case spillTagFloat64:
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	default:
		return nil
	}
}
