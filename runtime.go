package mely

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/melyruntime/mely/internal/affinity"
	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/obs"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/profile"
	"github.com/melyruntime/mely/internal/spinlock"
	"github.com/melyruntime/mely/internal/timerwheel"
	"github.com/melyruntime/mely/internal/topology"
)

// ErrStopped is returned by Post and PostBatch once the runtime has
// stopped (Stop, Close, or the end of Run). Producers race shutdown by
// design — drain loops and pumps test for it with errors.Is.
var ErrStopped = errors.New("mely: runtime stopped")

// Handler identifies a registered event handler. The zero value is
// invalid (Post rejects it), so optional handler fields can be left
// unset.
type Handler struct{ id int32 } // id is the handler index + 1; 0 = invalid

// HandlerFunc is an event handler. Handlers must not block: network and
// disk waits belong in pumps (see internal/netpoll) that post events on
// readiness. A handler runs with its event's color held — no two events
// of one color ever run concurrently.
type HandlerFunc func(ctx *Ctx)

// HandlerOption annotates a handler at registration.
type HandlerOption interface{ apply(*handlerEntry) }

type penaltyOption int32

func (p penaltyOption) apply(h *handlerEntry) { h.penalty = int32(p) }

// WithPenalty sets the handler's workstealing penalty (section III-C of
// the paper): thieves perceive its events as penalty-times cheaper, so
// handlers touching large, long-lived data sets stay near their data.
func WithPenalty(penalty int) HandlerOption {
	if penalty < 1 {
		penalty = 1
	}
	return penaltyOption(penalty)
}

type costOption time.Duration

func (c costOption) apply(h *handlerEntry) { h.annotated = time.Duration(c) }

// WithCostEstimate pins the handler's execution-time annotation (the
// paper's profiling-then-annotation workflow). Without it the runtime
// learns the estimate online.
func WithCostEstimate(d time.Duration) HandlerOption { return costOption(d) }

type handlerEntry struct {
	name      string
	fn        HandlerFunc
	penalty   int32
	annotated time.Duration
}

// rstats are per-core counters, atomics so Stats can snapshot while
// workers run. The scalar counters live in ctr, indexed by the ctr*
// constants and described by the coreCounters table (stats.go).
type rstats struct {
	ctr          [numCoreCounters]atomic.Int64
	batchHist    [StealBatchBuckets]atomic.Int64
	timerLagHist [TimerLagBuckets]atomic.Int64
	// Sampled latency histograms (Config.ObsSampleRate): queue delay
	// (post→execute) and handler execution time.
	qdelayHist   obs.Hist
	execTimeHist obs.Hist
}

type rcore struct {
	id   int
	lock spinlock.Lock

	// Exactly one of list/mely is non-nil; both are guarded by lock.
	list *equeue.ListQueue
	mely *equeue.CoreQueue

	// running is the color being executed (guarded by lock; it stays
	// set between events and is cleared when the worker demonstrably
	// stops executing — stealing or parking — mirroring the simulator).
	running    equeue.Color
	hasRunning bool

	// qlen/stealLen mirror queue sizes for unlocked victim screening.
	qlen     atomic.Int32
	stealLen atomic.Int32
	// diskLen mirrors the summed spill backlog of the colors linked on
	// this core, so thieves rank victims by effective depth (memory
	// head plus disk tail) without locking. Stays 0 while spill is off.
	diskLen atomic.Int32

	wake chan struct{}

	// wheel is the core's timing wheel: timers for colors owned here are
	// armed here, harvested by this worker, and migrate with their color.
	wheel *timerwheel.Wheel
	// parkTimer is the reusable park sleep timer (one per core instead
	// of a time.NewTimer allocation per park).
	parkTimer *time.Timer

	victimBuf []int
	lenBuf    []int
	// Batch-steal scratch, reused across attempts (worker-owned).
	stealBuf []*equeue.ColorQueue
	colorBuf []equeue.Color
	setBuf   []equeue.EventSet
	// Timer scratch (worker-owned): harvest and steal-migration buffers.
	timerBuf []*timerwheel.Entry
	entryBuf []*timerwheel.Entry
	// run holds the color run popLocal took (worker-owned): up to
	// BatchThreshold events of one color, popped under one lock hold and
	// executed back to back. profRand is the worker's xorshift state for
	// thinning handler-profile updates (see profileDue).
	run      []*equeue.Event
	profRand uint64
	// ctx is the worker's reusable handler context. Handlers receive
	// *Ctx, which escapes, so a per-event Ctx literal was the hot
	// path's only heap allocation; one event executes at a time per
	// worker, and a Ctx was never valid past the handler's return (its
	// event is zeroed and pooled), so reuse is invisible to handlers.
	ctx   Ctx
	stats rstats

	// ring is the core's flight-recorder buffer (nil when
	// Config.TraceRing is negative); colorDelays attributes sampled
	// queue delay to the core's hottest colors.
	ring        *obs.Ring
	colorDelays colorDelayTable

	// Stall-watchdog progress stamps, written by the worker around each
	// handler invocation (only when Config.StallThreshold is set) and
	// read by the watchdog goroutine. execStart is the execution start
	// (runtime-epoch nanoseconds; 0 = not executing); execTrace/
	// execSpan/execHandler describe the running event; stalled marks an
	// already-reported episode so one stuck handler emits one record.
	execStart   atomic.Int64
	execTrace   atomic.Uint64
	execSpan    atomic.Uint64
	execHandler atomic.Int32
	stalled     atomic.Bool
}

// inTransitMarker occupies a color's table slot while a steal migrates
// its queue between cores, so the lease logic keeps treating the color
// as live (a drained-looking color would be re-homed mid-migration,
// splitting it across cores). Only its identity is ever used.
var inTransitMarker = new(equeue.ColorQueue)

// Runtime is the real multicore event-coloring runtime.
type Runtime struct {
	cfg   Config
	pol   policy.Config
	topo  *topology.Topology
	table *equeue.ColorTable
	cores []*rcore

	handlers atomic.Pointer[[]handlerEntry]
	regMu    sync.Mutex

	profiles *profile.Table
	stealMon *profile.StealCostMonitor

	started atomic.Bool
	stopped atomic.Bool
	// lifeMu serializes Start/Stop transitions: without it a Stop racing
	// Start's worker-launch loop would call wg.Wait concurrently with
	// wg.Add (a documented WaitGroup misuse). Workers never take it.
	lifeMu sync.Mutex
	wg     sync.WaitGroup

	// pending counts posted-but-not-completed events (Drain). Drain
	// waiters subscribe to drainCh; workers close it when pending hits
	// zero, so an idle drain costs nothing (no polling). drainWaiters
	// keeps the zero-crossing check off the execute hot path when
	// nobody is draining.
	pending      atomic.Int64
	drainWaiters atomic.Int32
	drainMu      sync.Mutex
	drainCh      chan struct{}

	evPool sync.Pool
	// scratch pools PostBatch working memory (see batchScratch).
	scratch sync.Pool

	// epoch anchors the monotonic timer clock (see Runtime.now);
	// timersCanceled counts averted firings runtime-wide.
	epoch          time.Time
	timersCanceled atomic.Int64

	// pollSources are readiness-event sources (e.g. netpoll's epoll
	// backend) whose counters Stats folds into its Poll* fields;
	// pollRetired accumulates the final totals of retired sources so
	// Stats stays monotonic after a source shuts down.
	pollMu      sync.Mutex
	pollSources map[uint64]func() PollSample
	pollNextID  uint64
	pollRetired PollSample

	// adm is the overload-control layer (queue bounds, Reject/Block/
	// Spill admission, the spillq bridge). Nil on unbounded runtimes,
	// which therefore pay nothing on the posting hot path.
	adm *admission

	// Live observability (see obs.go): obsMask selects one in
	// Config.ObsSampleRate posts for latency sampling (obsOn false
	// disables), and ringAux is the shared flight-recorder track for
	// off-core actions (spill, reload, poll wakeups).
	obsOn   bool
	obsMask uint64
	obsSeq  atomic.Uint64
	ringAux *obs.Ring

	// Causal tracing (the flight recorder's flow layer): traceOn gates
	// every id stamp — with TraceRing negative no event field is ever
	// written, so an untraced runtime pays zero bytes per event —
	// and traceSeq allocates span ids runtime-wide (a root's trace id
	// is its own span id, so roots need no second counter).
	traceOn  bool
	traceSeq atomic.Uint64

	// Stall watchdog (Config.StallThreshold): stallOn gates the per-core
	// progress stamps on the execute path, stallStop ends the watchdog
	// goroutine, stalledCores is the live gauge, and lastStallStack
	// holds the most recent episode's full goroutine dump.
	stallOn        bool
	stallStop      chan struct{}
	stallStopOnce  sync.Once
	stalledCores   atomic.Int32
	stallMu        sync.Mutex
	lastStallStack []byte

	// Self-monitoring (Config.ObsInterval): the time-series ring +
	// health engine, built by New so readers never race Start; nil
	// when disabled. The incident fields are profile-on-anomaly's
	// rate-limit state (Config.IncidentDir), shared by the collector
	// and the stall watchdog.
	collector *tsCollector

	incidentMu   sync.Mutex
	incidentBusy bool
	lastIncident time.Time
	incidents    atomic.Int64
}

// AddPollSource registers a readiness-event source whose sample is
// summed into Stats' PollWakeups/PollEvents/PollBatchHist/WriteStalls.
// The returned retire function (idempotent) takes one final sample,
// folds it into the runtime's frozen totals, and drops the live
// source — call it when the source shuts down, after its counters
// have gone quiet, so a long-lived runtime cycling many sources does
// not accumulate dead closures while Stats keeps reporting their
// lifetime totals.
func (r *Runtime) AddPollSource(sample func() PollSample) (retire func()) {
	r.pollMu.Lock()
	defer r.pollMu.Unlock()
	if r.pollSources == nil {
		r.pollSources = make(map[uint64]func() PollSample)
	}
	id := r.pollNextID
	r.pollNextID++
	r.pollSources[id] = sample
	return func() {
		r.pollMu.Lock()
		defer r.pollMu.Unlock()
		if _, live := r.pollSources[id]; !live {
			return
		}
		delete(r.pollSources, id)
		r.pollRetired.add(sample())
	}
}

// New builds a runtime; call Start to launch the workers.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	pol := cfg.Policy.internal()
	if pol.Steal != policy.StealNone && cfg.MaxStealColors != 1 {
		// Batch stealing is the runtime default (MaxStealColors 1 opts
		// back into the paper's one-color-per-steal protocol); the
		// simulator keeps batching off so the paper's tables regenerate
		// unchanged.
		pol.BatchSteal = true
		pol.MaxStealColors = cfg.MaxStealColors
	}
	r := &Runtime{
		cfg:      cfg,
		pol:      pol,
		topo:     detectTopology(cfg.Cores),
		table:    equeue.NewColorTable(cfg.Cores),
		profiles: profile.NewTable(0),
		stealMon: profile.NewStealCostMonitor(cfg.StealCostSeed.Nanoseconds()),
		epoch:    time.Now(),
	}
	r.evPool.New = func() any { return &equeue.Event{} }
	r.scratch.New = func() any { return &batchScratch{} }
	if cfg.ObsSampleRate > 0 {
		rate := uint64(1)
		for rate < uint64(cfg.ObsSampleRate) {
			rate <<= 1
		}
		r.obsOn = true
		r.obsMask = rate - 1
	}
	if cfg.TraceRing > 0 {
		r.ringAux = obs.NewRing(cfg.TraceRing)
		r.traceOn = true
	}
	r.stallOn = cfg.StallThreshold > 0
	empty := make([]handlerEntry, 0, 16)
	r.handlers.Store(&empty)
	stealCap := pol.MaxStealColors
	if stealCap <= 0 {
		stealCap = policy.DefaultMaxStealColors
	}
	r.cores = make([]*rcore, cfg.Cores)
	runCap := min(cfg.BatchThreshold, maxRunLen)
	for i := range r.cores {
		c := &rcore{
			id:        i,
			run:       make([]*equeue.Event, 0, runCap),
			profRand:  uint64(i+1) * 0x9e3779b97f4a7c15,
			wake:      make(chan struct{}, 1),
			wheel:     timerwheel.New(cfg.TimerTick, cfg.TimerWheelLevels),
			victimBuf: make([]int, 0, cfg.Cores),
			lenBuf:    make([]int, cfg.Cores),
			stealBuf:  make([]*equeue.ColorQueue, 0, stealCap),
			colorBuf:  make([]equeue.Color, 0, stealCap),
			setBuf:    make([]equeue.EventSet, 0, stealCap),
		}
		c.wheel.Owner = i
		if cfg.TraceRing > 0 {
			c.ring = obs.NewRing(cfg.TraceRing)
		}
		if pol.Layout == policy.ListLayout {
			c.list = equeue.NewListQueue()
		} else {
			c.mely = equeue.NewCoreQueue(cfg.StealCostSeed.Nanoseconds())
			c.mely.BatchThreshold = cfg.BatchThreshold
		}
		r.cores[i] = c
	}
	if cfg.MaxQueuedEvents > 0 || cfg.MaxQueuedPerColor > 0 {
		adm, err := newAdmission(r, cfg)
		if err != nil {
			return nil, err
		}
		r.adm = adm
	}
	if cfg.ObsInterval > 0 {
		r.collector = newCollector(r)
	}
	return r, nil
}

// Register adds a handler. Registration is allowed at any time, also
// while the runtime runs.
func (r *Runtime) Register(name string, fn HandlerFunc, opts ...HandlerOption) Handler {
	entry := handlerEntry{name: name, fn: fn, penalty: 1}
	for _, o := range opts {
		o.apply(&entry)
	}
	r.regMu.Lock()
	defer r.regMu.Unlock()
	old := *r.handlers.Load()
	next := make([]handlerEntry, len(old)+1)
	copy(next, old)
	next[len(old)] = entry
	r.handlers.Store(&next)
	r.profiles.Grow(len(next))
	idx := len(next) - 1
	if entry.annotated > 0 {
		r.profiles.Handler(idx).Annotate(entry.annotated.Nanoseconds())
	}
	return Handler{id: int32(idx) + 1}
}

// Start launches the worker goroutines.
func (r *Runtime) Start() error {
	r.lifeMu.Lock()
	defer r.lifeMu.Unlock()
	if r.stopped.Load() {
		return fmt.Errorf("mely: runtime already stopped")
	}
	if r.started.Swap(true) {
		return fmt.Errorf("mely: runtime already started")
	}
	r.wg.Add(len(r.cores))
	for _, c := range r.cores {
		go r.worker(c)
	}
	if r.stallOn {
		r.stallStop = make(chan struct{})
		r.wg.Add(1)
		go r.stallWatchdog()
	}
	if r.collector != nil {
		r.wg.Add(1)
		go r.collectorLoop(r.collector)
	}
	return nil
}

// Stop terminates the workers and waits for them to exit. Events still
// queued are dropped; call Drain first (or use Run) for a graceful
// shutdown. Stop is idempotent.
func (r *Runtime) Stop() {
	r.lifeMu.Lock()
	defer r.lifeMu.Unlock()
	if !r.started.Load() || r.stopped.Swap(true) {
		r.stopped.Store(true)
		if r.started.Load() {
			// An earlier Stop shut the workers down (lifeMu serializes
			// us behind it); Wait here is immediate and keeps the
			// waits-for-exit contract for every caller.
			r.wg.Wait()
		}
		if r.adm != nil {
			r.adm.close()
		}
		r.wakeDrainers() // queued events (if any) will never complete
		return
	}
	if r.adm != nil {
		// Posters blocked under OverloadBlock must observe the stop now
		// (they re-check stopped on wake), not after the workers exit.
		r.adm.wakeBlocked()
	}
	if r.stallStop != nil {
		r.stallStopOnce.Do(func() { close(r.stallStop) })
	}
	if col := r.collector; col != nil {
		col.stopOnce.Do(func() { close(col.stop) })
	}
	for _, c := range r.cores {
		c.unpark()
	}
	r.wg.Wait()
	if r.adm != nil {
		// Workers are gone; nothing reloads anymore. Tear the spill
		// store down: without SpillRecover the segments are deleted
		// (spilled events are dropped exactly like queued ones); with
		// it Close is durable — open tails are sealed and the backlog
		// survives for the next runtime's recovery.
		r.adm.close()
	}
	// Events still queued were dropped and will never complete: release
	// Drain waiters so they observe the stop instead of hanging.
	r.wakeDrainers()
}

// Close shuts the runtime down immediately and idempotently: it is Stop
// with an io.Closer-shaped signature, so a Runtime slots into defer
// chains and resource managers. Queued events are dropped; for a
// graceful shutdown call Drain first or use Run. Close never fails and
// may be called any number of times, before or after Start.
func (r *Runtime) Close() error {
	r.Stop()
	return nil
}

// Run is the context-aware lifecycle: it starts the workers, blocks
// until ctx is cancelled, drains every event posted so far, and stops.
// It returns Start's error if the runtime cannot launch, ErrStopped if
// the runtime was stopped out from under it (Stop/Close during Run)
// with events still queued, and nil after a complete drain-and-stop.
// The drain deliberately ignores ctx (which is already done by then) —
// handlers finish their queued work — so producers should stop posting
// once ctx ends; handler chains that re-post forever will hold Run
// open.
func (r *Runtime) Run(ctx context.Context) error {
	if err := r.Start(); err != nil {
		return err
	}
	<-ctx.Done()
	err := r.Drain(context.WithoutCancel(ctx))
	r.Stop()
	return err
}

// Drain waits until every posted event has been executed. It is
// event-driven: waiters sleep on a channel the workers close at the
// pending-count zero crossing, so draining an idle runtime burns no
// CPU. If the runtime stops with events still queued (Stop or Close
// without a prior drain drops them), Drain fails with ErrStopped
// rather than waiting for completions that can never happen.
func (r *Runtime) Drain(ctx context.Context) error {
	if r.pending.Load() == 0 {
		return nil
	}
	r.drainWaiters.Add(1)
	defer r.drainWaiters.Add(-1)
	for {
		r.drainMu.Lock()
		ch := r.drainCh
		if ch == nil {
			ch = make(chan struct{})
			r.drainCh = ch
		}
		r.drainMu.Unlock()
		// Re-check after subscribing: a zero crossing before this point
		// either already closed ch or is ordered before this load.
		if r.pending.Load() == 0 {
			return nil
		}
		if r.stopped.Load() {
			// The runtime stopped with this work still queued; it was
			// dropped (Stop wakes drainers on every path).
			return ErrStopped
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// wakeDrainers releases every Drain waiter (pending reached zero).
func (r *Runtime) wakeDrainers() {
	r.drainMu.Lock()
	if r.drainCh != nil {
		close(r.drainCh)
		r.drainCh = nil
	}
	r.drainMu.Unlock()
}

// Post registers an event for handler h under the given color. It is
// safe from any goroutine, including handlers (prefer Ctx.Post there).
// After shutdown it fails with ErrStopped; on a bounded runtime
// (Config.MaxQueuedEvents / MaxQueuedPerColor) it additionally follows
// the configured OverloadPolicy — failing with ErrOverloaded, waiting
// for queue space (see PostContext to bound the wait), or spilling the
// color's tail to disk.
func (r *Runtime) Post(h Handler, color Color, data any) error {
	return r.post(nil, h, color, data, true, 0, 0)
}

// post is the shared delivery path behind Post, PostContext, Ctx.Post,
// and the bounded-runtime leg of PostBatch. external marks posts from
// outside handler context: only those can be rejected or blocked (a
// rejected or blocked continuation would wedge the workers — see
// OverloadPolicy's decision table). ptrace/pspan are the causal parent
// (the trace and span of the event whose handler is posting); zero
// makes the new event a trace root.
func (r *Runtime) post(ctx context.Context, h Handler, color Color, data any, external bool, ptrace, pspan uint64) error {
	if r.stopped.Load() {
		return ErrStopped
	}
	hs := *r.handlers.Load()
	if a := r.adm; a != nil {
		idx := int(h.id) - 1
		if idx < 0 || idx >= len(hs) {
			return unknownHandlerError(h)
		}
		route, err := a.admit(ctx, equeue.Color(color), external)
		if err != nil {
			return err
		}
		if route == routeDisk {
			return r.spillPost(hs, int32(idx), color, data, ptrace, pspan)
		}
	}
	ev, err := r.buildEvent(hs, h, color, data, ptrace, pspan)
	if err != nil {
		return err
	}
	r.pending.Add(1)
	r.enqueue(ev)
	return nil
}

func unknownHandlerError(h Handler) error {
	return fmt.Errorf("mely: unknown handler %d", h.id)
}

// buildEvent validates the handler and materializes a pooled event.
// ptrace/pspan are the causal parent's identifiers (zero = root,
// unsampledTrace = child of an unsampled chain): the event gets span
// ids when its chain is head-sampled (see traced), inheriting the
// parent's trace or founding a new one.
func (r *Runtime) buildEvent(hs []handlerEntry, h Handler, color Color, data any, ptrace, pspan uint64) (*equeue.Event, error) {
	idx := int(h.id) - 1
	if idx < 0 || idx >= len(hs) {
		return nil, unknownHandlerError(h)
	}
	entry := &hs[idx]
	ev := r.evPool.Get().(*equeue.Event)
	*ev = equeue.Event{
		Handler: equeue.HandlerID(idx),
		Color:   equeue.Color(color),
		Cost:    r.estimate(int32(idx)),
		Penalty: r.pol.EffectivePenalty(entry.penalty),
		Data:    data,
	}
	sampled := r.obsOn && r.obsSeq.Add(1)&r.obsMask == 0
	if sampled {
		// Sampled for latency observation: the stamp rides to execution,
		// where the queue delay is measured (see observeExec).
		ev.PostNanos = r.now()
	}
	if r.traced(ptrace, sampled) {
		span := r.traceSeq.Add(1)
		ev.SpanID = span
		if ptrace != 0 {
			ev.TraceID, ev.ParentSpan = ptrace, pspan
		} else {
			ev.TraceID = span // a root founds its trace under its own id
		}
	}
	return ev, nil
}

// unsampledTrace is the parent trace id a handler of an unsampled chain
// passes for the events it posts (see Ctx.lineage): it marks them as
// children, which inherit the chain's "no ids" instead of drawing a
// fresh root sampling decision. It never appears as an event's id.
const unsampledTrace = ^uint64(0)

// traced is the head-sampling rule (Dapper-style): a trace root
// (ptrace zero) gets span ids when its post drew the ObsSampleRate
// latency sample, and a child inherits its parent's decision, so a
// chain is recorded whole or not at all. sampled is the root's draw.
func (r *Runtime) traced(ptrace uint64, sampled bool) bool {
	if !r.traceOn {
		return false
	}
	if ptrace == 0 {
		return sampled
	}
	return ptrace != unsampledTrace
}

// estimate is the profiled per-execution cost in nanoseconds, the
// time-left heuristic's currency on the real platform.
func (r *Runtime) estimate(h int32) int64 {
	est := r.profiles.Handler(int(h)).Estimate()
	if est <= 0 {
		est = 1 // unprofiled handlers look cheap until measured
	}
	return est
}

// enqueue delivers an event to the current owner of its color,
// retrying when a concurrent steal moves the color. Ownership is a
// lease: when a stolen color has fully drained on its current owner
// (no pending events, not executing), it re-homes to its hash core —
// the same semantics as the simulator, and the reason load waves
// re-create the hash placement the paper measures against.
func (r *Runtime) enqueue(ev *equeue.Event) {
	for tries := 0; ; tries++ {
		if tries > 1 {
			// More than one retry means we are waiting on another
			// goroutine's progress (a thief mid-migration): yield so it
			// can run, especially when GOMAXPROCS < workers+posters.
			runtime.Gosched()
		}
		owner := r.table.OwnerHint(ev.Color)
		c := r.cores[owner]
		c.lock.Lock()
		if c.mely != nil && r.pol.TimeLeft {
			c.mely.SetStealCost(r.stealMon.Estimate())
		}
		if _, ok := r.deliverLocked(c, owner, ev); !ok {
			// Stolen between the read and the lock, or the lease just
			// expired (deliverLocked re-homed it): resolve again.
			c.lock.Unlock()
			continue
		}
		if c.list != nil {
			c.qlen.Store(int32(c.list.Len()))
		} else {
			c.qlen.Store(int32(c.mely.Len()))
			c.stealLen.Store(int32(c.mely.Stealing().Len()))
		}
		c.syncDiskLen()
		c.stats.ctr[ctrPostedHere].Add(1)
		if ev.PostNanos != 0 && ev.SpanID != 0 && c.ring != nil {
			c.ring.AppendFlow(obs.KindPost, ev.PostNanos, 0, uint64(ev.Color), uint32(ev.Handler),
				ev.TraceID, ev.SpanID, ev.ParentSpan)
		}
		c.lock.Unlock()
		c.unpark()
		return
	}
}

// deliverLocked is the single lease-protocol delivery step, shared by
// the per-event path (enqueue) and the batch path (deliverGroup). The
// caller holds c.lock and resolved owner == c.id for ev's color. It
// re-checks ownership against the table, applies the lease re-home
// rule, and pushes on success, returning the ColorQueue pushed to (nil
// for the list layout). ok=false means the color moved — stolen away,
// or its expired lease was just re-homed here — and the caller must
// re-route the event.
func (r *Runtime) deliverLocked(c *rcore, owner int, ev *equeue.Event) (*equeue.ColorQueue, bool) {
	if home := r.table.Hash(ev.Color); owner == home {
		// Home delivery, the common case: one stripe hop re-checks
		// ownership and installs the queue (see DeliverHome).
		if c.list != nil {
			cq, _, ok := r.table.DeliverHome(ev.Color, nil)
			if !ok || cq == inTransitMarker {
				return nil, false // stolen, or in transit: wait it out
			}
			c.list.PushBack(ev)
			return nil, true
		}
		fresh := c.mely.NewColorQueue(ev.Color)
		cq, installed, ok := r.table.DeliverHome(ev.Color, fresh)
		if !ok || cq == inTransitMarker {
			// Stolen since resolution, or mid-migration. A color in
			// transit REJECTS deliveries — the caller retries until the
			// thief has adopted. Installing a queue over the marker
			// would erase the in-transit state and make the new queue
			// stealable before the first thief lands, letting a second
			// steal interleave and split the color across two cores.
			c.mely.ReleaseColorQueue(fresh)
			return nil, false
		}
		if !installed {
			c.mely.ReleaseColorQueue(fresh)
		}
		if c.mely.Push(cq, ev) {
			c.stats.ctr[ctrColorQueueChurns].Add(1)
		}
		return cq, true
	} else {
		// Away-from-home (leased) delivery: re-check owner and fetch
		// the queue in one hop, then apply the lease re-home rule.
		curOwner, cq := r.table.OwnerAndQueue(ev.Color)
		if curOwner != owner {
			return nil, false
		}
		if cq == inTransitMarker {
			return nil, false // in transit: wait for adoption (see above)
		}
		live := (c.hasRunning && c.running == ev.Color)
		if !live {
			if c.list != nil {
				live = c.list.Pending(ev.Color) > 0
			} else {
				live = cq != nil && cq.Len() > 0
			}
		}
		if !live {
			// Lease expired: re-home; the caller retries at home. The
			// color's pending timers follow its lease (the re-home half
			// of timer color-affinity).
			r.table.SetOwner(ev.Color, home)
			r.migrateTimersOnReHome(c, ev.Color, home)
			if c.ring != nil {
				c.ring.Append(obs.KindReHome, r.now(), 0, uint64(ev.Color), uint32(home))
			}
			return nil, false
		}
		if c.list != nil {
			c.list.PushBack(ev)
			return nil, true
		}
		if cq == nil {
			cq = c.mely.NewColorQueue(ev.Color)
			r.table.SetQueue(ev.Color, cq)
		}
		if c.mely.Push(cq, ev) {
			c.stats.ctr[ctrColorQueueChurns].Add(1)
		}
		return cq, true
	}
}

// worker is the per-core scheduling loop.
func (r *Runtime) worker(c *rcore) {
	defer r.wg.Done()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if r.cfg.Pin {
		_ = affinity.Pin(c.id) // best effort; unpinned is correct, just less local
	}

	// idle counts consecutive fruitless rounds (no local work, steal
	// probe failed or disabled). It survives parks, so repeated failed
	// probes back off exponentially (see below) until any success.
	idle := 0
	for !r.stopped.Load() {
		// Expire due timers first so deadline work cannot starve behind
		// a deep event backlog; the check is one atomic load when
		// nothing is due.
		if r.harvestTimers(c) > 0 {
			idle = 0
			continue
		}
		if run := r.popLocal(c); len(run) > 0 {
			r.executeRun(c, run)
			idle = 0
			continue
		}
		if r.pol.Steal != policy.StealNone && r.stealOnce(c) {
			idle = 0
			continue
		}
		idle++
		if idle <= r.cfg.IdleSpins {
			runtime.Gosched()
			continue
		}
		// Adaptive steal throttling: when probes keep failing — the
		// steal-storm shape, many cores idle and hammering the same few
		// victim locks — park for exponentially growing slices
		// (StealBackoff, 2x per fruitless round, capped at ParkTimeout)
		// instead of a full ParkTimeout, so a lone idle worker reacts
		// fast while a stampede quiets itself. An unpark (new work) or
		// any successful round resets the streak.
		d := r.cfg.ParkTimeout
		if r.cfg.StealBackoff > 0 {
			// Double per fruitless round, stopping at the ParkTimeout
			// ceiling — doubling instead of shifting by the streak so a
			// large StealBackoff cannot overflow into a negative park.
			bd := r.cfg.StealBackoff
			for i := r.cfg.IdleSpins + 1; i < idle && bd < d; i++ {
				bd <<= 1
			}
			if bd < d {
				d = bd
				c.stats.ctr[ctrBackoffParks].Add(1)
			}
		}
		// Sleep no longer than the wheel's next expiry: the park is the
		// timer resolution floor for an otherwise-idle core.
		if d = r.timerParkBound(c, d); d <= 0 {
			continue // a timer is already due; harvest instead of parking
		}
		c.stats.ctr[ctrParks].Add(1)
		c.park(d)
	}
}

// maxRunLen caps the run buffer when Config.BatchThreshold is large: a
// color with budget left simply continues in the next run.
const maxRunLen = 64

// popLocal dequeues the next run of c's queue — up to BatchThreshold
// events of the head color in one lock hold (the list layout pops one
// event) — publishing the steal mirrors once per run and marking the
// color running for the whole run, so thieves leave it alone and
// per-color serialization and FIFO hold as with per-event pops.
func (r *Runtime) popLocal(c *rcore) []*equeue.Event {
	c.lock.Lock()
	run := c.run[:0]
	if c.list != nil {
		if ev := c.list.PopFront(); ev != nil {
			run = append(run, ev)
		}
		c.qlen.Store(int32(c.list.Len()))
	} else {
		if r.pol.TimeLeft {
			c.mely.SetStealCost(r.stealMon.Estimate())
		}
		var emptied *equeue.ColorQueue
		run, emptied = c.mely.PopRun(run, cap(run))
		if emptied != nil {
			r.table.ClearQueue(emptied.Color(), emptied)
			c.mely.ReleaseColorQueue(emptied)
			c.stats.ctr[ctrColorQueueChurns].Add(1)
		}
		c.qlen.Store(int32(c.mely.Len()))
		c.stealLen.Store(int32(c.mely.Stealing().Len()))
	}
	c.syncDiskLen()
	if len(run) > 0 {
		c.running, c.hasRunning = run[0].Color, true
	}
	c.lock.Unlock()
	c.run = run
	return run
}

// executeRun executes a popped run back to back with one clock read
// per event: each event's end is the next one's start. Events of the
// run still waiting when Stop lands are dropped, as queued events are.
func (r *Runtime) executeRun(c *rcore, run []*equeue.Event) {
	t := r.now()
	for i, ev := range run {
		run[i] = nil
		if i > 0 && r.stopped.Load() {
			clear(run[i:])
			return
		}
		t = r.execute(c, ev, t)
	}
}

// profileSampleMask thins handler-profile updates to about one
// execution in eight per core: Observe is a CAS on a line every core
// shares, and an EWMA of a stable handler needs no more.
const profileSampleMask = 7

// profileDue reports whether this execution feeds the handler profile.
// A worker-owned xorshift draw, not a counter, so a core alternating
// handlers in a fixed pattern cannot starve one of them of samples.
func (c *rcore) profileDue() bool {
	x := c.profRand
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.profRand = x
	return x&profileSampleMask == 0
}

// execute runs the handler and feeds the profiler. start is the
// execution start on the runtime's monotonic clock (Runtime.now); the
// returned end is the one clock read the event costs. A panicking
// handler is contained: the event is dropped, the panic counted, and
// the worker lives on (one bad event must not take down the whole core).
func (r *Runtime) execute(c *rcore, ev *equeue.Event, start int64) (end int64) {
	hs := *r.handlers.Load()
	entry := &hs[ev.Handler]
	if entry.fn != nil {
		if r.stallOn {
			// Progress stamp for the stall watchdog: the descriptive
			// fields land before execStart so the watchdog (which keys
			// off a nonzero execStart) never reads a half-written stamp.
			c.execTrace.Store(ev.TraceID)
			c.execSpan.Store(ev.SpanID)
			c.execHandler.Store(int32(ev.Handler))
			c.execStart.Store(start)
		}
		c.ctx = Ctx{r: r, core: c, ev: ev}
		runHandler(entry, &c.ctx, &c.stats)
		c.ctx.ev = nil // the event is about to be zeroed and pooled
		if r.stallOn {
			c.execStart.Store(0)
			c.stalled.Store(false) // the episode (if any) ended with the handler
		}
	}
	end = r.now()
	elapsed := end - start
	if elapsed < 1 {
		elapsed = 1
	}
	// An unprofiled handler always learns from its first execution.
	if p := r.profiles.Handler(int(ev.Handler)); c.profileDue() || p.Estimate() == 0 {
		p.Observe(elapsed)
	}
	c.stats.ctr[ctrEvents].Add(1)
	c.stats.ctr[ctrExecNanos].Add(elapsed)
	if ev.Stolen {
		c.stats.ctr[ctrStolenEvents].Add(1)
		c.stats.ctr[ctrStolenNanos].Add(elapsed)
	}
	if ev.PostNanos != 0 || ev.SpanID != 0 {
		r.observeExec(c, ev, start, elapsed)
	}
	color := ev.Color
	slabbed := ev.Slab
	*ev = equeue.Event{} // release the payload reference promptly either way
	if !slabbed {
		r.evPool.Put(ev)
	}
	if a := r.adm; a != nil {
		// Overload accounting: the queued-events gauge drops, blocked
		// posters get a wake, and a spilling color that drained to its
		// low-water mark pulls the next batch back from disk. Runs
		// before the pending decrement so Drain cannot observe zero
		// while this color still has a disk tail to reload.
		a.noteExec(color)
	}
	if r.pending.Add(-1) == 0 && r.drainWaiters.Load() > 0 {
		r.wakeDrainers()
	}
	return end
}

// runHandler invokes the handler with panic containment.
func runHandler(entry *handlerEntry, ctx *Ctx, stats *rstats) {
	defer func() {
		if recover() != nil {
			stats.ctr[ctrPanics].Add(1)
		}
	}()
	entry.fn(ctx)
}

// syncDiskLen refreshes the unlocked spill-backlog mirror from the
// queue aggregate. Caller holds c.lock. Guarded so runs without spill
// never pay the atomic store (the aggregate and the mirror both stay 0).
func (c *rcore) syncDiskLen() {
	var t int
	if c.list != nil {
		t = c.list.SpillBacklogTotal()
	} else {
		t = c.mely.SpillBacklogTotal()
	}
	if t != 0 || c.diskLen.Load() != 0 {
		c.diskLen.Store(int32(t))
	}
}

// clearRunning marks the worker as not executing (before stealing or
// parking) so its last color becomes stealable again.
func (c *rcore) clearRunning() {
	c.lock.Lock()
	c.hasRunning = false
	c.lock.Unlock()
}

func (c *rcore) park(d time.Duration) {
	c.clearRunning()
	// A wake token may already be buffered: a post landed after our last
	// queue scan (every unpark sends unconditionally, so the token
	// cannot be missed the way the old parked-flag handshake could —
	// unpark used to read the flag before park stored it, and a post in
	// that window waited out the full ParkTimeout). Consume it and
	// return to re-scan instead of sleeping.
	select {
	case <-c.wake:
		return
	default:
	}
	// One reusable timer per core: parks are the worker's steady idle
	// state and a fresh time.NewTimer per park was a measurable
	// allocation on the idle path. The stop-and-drain before Reset
	// clears a stale expiry from a wake-interrupted park; a value that
	// slips through at worst ends one future park early, which is always
	// safe here (the loop just re-scans).
	if c.parkTimer == nil {
		c.parkTimer = time.NewTimer(d)
	} else {
		if !c.parkTimer.Stop() {
			select {
			case <-c.parkTimer.C:
			default:
			}
		}
		c.parkTimer.Reset(d)
	}
	select {
	case <-c.wake:
	case <-c.parkTimer.C:
	}
}

// unpark deposits a wake token unconditionally (non-blocking, buffered
// chan of one): if the worker is awake the token makes its next park
// return immediately, closing the missed-wakeup window.
func (c *rcore) unpark() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// rcoreView adapts a locked rcore to policy.VictimView.
type rcoreView struct{ c *rcore }

func (v rcoreView) QueuedEvents() int {
	if v.c.list != nil {
		return v.c.list.Len()
	}
	return v.c.mely.Len()
}

func (v rcoreView) DistinctColors() int {
	if v.c.list != nil {
		return v.c.list.DistinctColors()
	}
	return v.c.mely.Colors()
}

func (v rcoreView) RunningColor() (equeue.Color, bool) {
	return v.c.running, v.c.hasRunning
}

func (v rcoreView) HasColorOtherThan(col equeue.Color) bool {
	if v.DistinctColors() >= 2 {
		return true
	}
	if v.c.list != nil {
		first, ok := v.c.list.FirstColor()
		return ok && first != col
	}
	first, ok := v.c.mely.FirstColor()
	return ok && first != col
}

func (v rcoreView) Stealing() *equeue.StealingQueue {
	if v.c.mely == nil {
		return nil
	}
	return v.c.mely.Stealing()
}

// stealOnce runs one pass of the workstealing algorithm (Figure 2 plus
// the configured heuristics) and reports whether work was migrated.
func (r *Runtime) stealOnce(c *rcore) bool {
	c.clearRunning()
	c.stats.ctr[ctrStealAttempts].Add(1)
	start := r.now()

	// Rank victims by effective depth: in-memory events plus the
	// mirrored spill backlog of the colors linked there, so a victim
	// whose fat colors live on disk is not misread as lightly loaded.
	// diskLen is 0 whenever spill is off, leaving the ranking unchanged.
	for i, v := range r.cores {
		c.lenBuf[i] = int(v.qlen.Load()) + int(v.diskLen.Load())
	}
	order := r.pol.VictimOrder(c.id, c.lenBuf, r.topo, c.victimBuf)

	for _, vid := range order {
		v := r.cores[vid]
		// Heuristic policies screen victims with the unlocked
		// mirrors; the base algorithm locks blindly, as in the paper.
		if r.pol.Steal == policy.StealHeuristic {
			if v.qlen.Load() == 0 {
				continue
			}
			if r.pol.TimeLeft && v.stealLen.Load() == 0 {
				continue
			}
		}

		// One victim-lock critical section selects and detaches the
		// whole steal set (a single color unless batch stealing is on)
		// and publishes every lease in one table pass.
		v.lock.Lock()
		var (
			sets   []equeue.EventSet
			cqs    []*equeue.ColorQueue
			colors []equeue.Color
		)
		if r.pol.CanBeStolen(rcoreView{v}) {
			if v.list != nil {
				colors, _ = r.pol.SelectStealColors(v.list, v.running, v.hasRunning, c.colorBuf)
				if len(colors) > 0 {
					sets, _ = v.list.ExtractColorSet(colors, c.setBuf)
				}
			} else {
				if r.pol.TimeLeft {
					v.mely.SetStealCost(r.stealMon.Estimate())
				}
				cqs, _ = r.pol.SelectStealSet(v.mely, v.running, v.hasRunning, c.stealBuf)
				colors = c.colorBuf[:0]
				for _, cq := range cqs {
					colors = append(colors, cq.Color())
				}
			}
		}
		if len(colors) > 0 {
			// Ownership moves under the victim's lock; posters that
			// race will retry against our core. The transit marker
			// keeps each color "live" until adoption so the lease
			// logic cannot re-home it mid-migration. Owner and marker
			// are published in one stripe acquisition per color — and
			// colors sharing a stripe share one acquisition — because
			// a two-step publish would expose a detached queue to
			// posters that already see the new owner.
			r.table.BeginMigrationBatch(colors, c.id, inTransitMarker)
			if v.mely != nil {
				v.stealLen.Store(int32(v.mely.Stealing().Len()))
			}
			v.qlen.Store(int32(rcoreView{v}.QueuedEvents()))
			v.syncDiskLen()
		}
		v.lock.Unlock()
		if len(colors) == 0 {
			continue
		}

		// Migrate the whole batch into our own queue under one
		// self-lock hold. Between BeginMigrationBatch and here the
		// table holds the in-transit marker for every stolen color and
		// every delivery backs off (deliverLocked), so the markers are
		// necessarily still in place: no poster can have installed a
		// queue over one, and no second thief can have found anything
		// of these colors to steal.
		c.lock.Lock()
		if c.list != nil {
			for i := range sets {
				sets[i].MarkStolen()
				c.list.AppendSet(sets[i])
			}
			c.qlen.Store(int32(c.list.Len()))
			for _, color := range colors {
				if r.table.Queue(color) == inTransitMarker {
					r.table.SetQueue(color, nil)
				}
			}
		} else {
			for _, cq := range cqs {
				cq.MarkStolen()
				color := cq.Color()
				if existing := r.table.Queue(color); existing != nil && existing != inTransitMarker {
					// Defense in depth: unreachable under the protocol
					// above, but if a queue ever did appear during
					// transit, merging oldest-first is the safe recovery.
					c.mely.MergeFront(existing, cq)
					c.mely.ReleaseColorQueue(cq)
				} else {
					c.mely.Adopt(cq)
					r.table.SetQueue(color, cq)
				}
			}
			c.qlen.Store(int32(c.mely.Len()))
			c.stealLen.Store(int32(c.mely.Stealing().Len()))
		}
		c.syncDiskLen()
		c.lock.Unlock()

		// The stolen colors' pending timers migrate with them (the
		// steal half of timer color-affinity): harvest stays local to
		// the new owner. Entries cut loose here and re-armed against
		// the victim by a racing poster still fire correctly — delivery
		// re-resolves ownership — they just cost a remote post.
		r.migrateTimersOnSteal(c, v, colors)

		dt := r.now() - start
		if c.ring != nil {
			c.ring.Append(obs.KindSteal, start, dt,
				uint64(vid), uint32(len(colors)))
		}
		c.stats.ctr[ctrSteals].Add(1)
		c.stats.ctr[ctrStolenColors].Add(int64(len(colors)))
		c.stats.batchHist[stealBatchEdges.bucket(int64(len(colors)))].Add(1)
		if !r.topo.SharesCache(c.id, vid) {
			c.stats.ctr[ctrRemoteSteals].Add(1)
		}
		c.stats.ctr[ctrStealNanos].Add(dt)
		r.stealMon.Observe(dt)
		if len(colors) > 1 && len(r.cores) > 2 {
			// The batch brought home more colors than one worker can
			// drain at once; one wakeup lets a parked neighbor steal
			// the surplus onward instead of sleeping out its timeout.
			// One, not len(colors): cascading thieves wake the next
			// neighbor themselves if work remains. Skip the victim —
			// it has its own work and would not re-steal the surplus.
			next := (c.id + 1) % len(r.cores)
			if next == vid {
				next = (next + 1) % len(r.cores)
			}
			r.cores[next].unpark()
		}
		return true
	}

	c.stats.ctr[ctrFailedSteals].Add(1)
	return false
}

// Ctx is the execution context of a running handler.
type Ctx struct {
	r    *Runtime
	core *rcore
	ev   *equeue.Event
}

// Post registers a follow-up event. It is an internal continuation:
// on a bounded runtime it is never rejected or blocked (that would
// wedge the worker executing this handler), though a spilling color's
// tail discipline still applies under OverloadSpill. The new event
// inherits this event's causal lineage (same trace, parented on this
// span) when its chain is traced.
func (ctx *Ctx) Post(h Handler, color Color, data any) error {
	trace, span := ctx.lineage()
	return ctx.r.post(nil, h, color, data, false, trace, span)
}

// lineage is the causal parent the running event hands to the events
// it posts: its own trace and span, or unsampledTrace when its chain
// carries no ids, so children inherit the head-sampling decision.
func (ctx *Ctx) lineage() (trace, span uint64) {
	if ctx.ev.TraceID == 0 {
		return unsampledTrace, 0
	}
	return ctx.ev.TraceID, ctx.ev.SpanID
}

// Data returns the event's payload.
func (ctx *Ctx) Data() any { return ctx.ev.Data }

// Color returns the event's color.
func (ctx *Ctx) Color() Color { return Color(ctx.ev.Color) }

// CoreID identifies the worker executing the handler.
func (ctx *Ctx) CoreID() int { return ctx.core.id }

// Stolen reports whether a steal migrated this event before execution.
func (ctx *Ctx) Stolen() bool { return ctx.ev.Stolen }

// TraceID returns the executing event's causal trace id — the id of
// the ingress root this event descends from (zero with tracing off or
// when the chain was not head-sampled; see Config.ObsSampleRate).
func (ctx *Ctx) TraceID() uint64 { return ctx.ev.TraceID }

// SpanID returns the executing event's own span id (zero with tracing
// off or on an unsampled chain). Events posted from this handler are
// parented on it.
func (ctx *Ctx) SpanID() uint64 { return ctx.ev.SpanID }

// Runtime returns the owning runtime.
func (ctx *Ctx) Runtime() *Runtime { return ctx.r }
