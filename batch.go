package mely

import (
	"github.com/melyruntime/mely/internal/equeue"
)

// BatchEvent is one entry of a PostBatch call.
type BatchEvent struct {
	Handler Handler
	Color   Color
	Data    any
}

// PostBatch posts a batch of events amortizing the per-event delivery
// work: events are materialized in one slab, each distinct color's
// owner is resolved once, the batch is grouped by owning core, and
// every group is delivered under a single acquisition of that core's
// lock with one wakeup per core instead of one per event. This is the
// hot-path producer API for servers that accumulate work (a network
// pump draining a readiness list, a pipeline stage emitting fan-out) —
// see BenchmarkRuntimePostBatch for the 64-event/8-core acceptance
// numbers.
//
// Semantics match per-event Post exactly: events of one color are
// delivered in batch order and the ownership lease protocol (steal
// retry, re-home on drain) is honored per event. Ordering between
// different colors of one batch is unspecified, as it already is
// between concurrent posters. If any entry names an unknown handler the
// whole batch is rejected before anything is enqueued. After shutdown
// PostBatch fails with ErrStopped.
//
// On a bounded runtime (Config.MaxQueuedEvents and friends) admission
// applies per event: an ErrOverloaded rejection or a Block-policy wait
// can therefore strike mid-batch, returning with the EARLIER entries
// already posted — only the unknown-handler check stays all-or-nothing.
// Batch producers that need atomicity against overload should check
// Saturated first or use PostBatchEdge where the edge-backpressure
// contract applies.
func (r *Runtime) PostBatch(batch []BatchEvent) error {
	return r.postBatch(batch, true, 0, 0)
}

func (r *Runtime) postBatch(batch []BatchEvent, external bool, ptrace, pspan uint64) error {
	n := len(batch)
	if n == 0 {
		return nil
	}
	if r.stopped.Load() {
		return ErrStopped
	}
	hs := *r.handlers.Load()
	if r.adm != nil {
		// Bounded runtimes take the per-event path: admission is a
		// per-color decision (a spilling color's entries must hit the
		// disk tail in batch order while its neighbors go to memory),
		// so the one-lock-per-core delivery does not apply. Unknown
		// handlers still reject the whole batch before anything is
		// enqueued; an overload rejection mid-batch, however, returns
		// with the earlier entries already posted — bounded producers
		// that need all-or-nothing should check Saturated first.
		for _, be := range batch {
			if idx := int(be.Handler.id) - 1; idx < 0 || idx >= len(hs) {
				return unknownHandlerError(be.Handler)
			}
		}
		for _, be := range batch {
			if err := r.post(nil, be.Handler, be.Color, be.Data, external, ptrace, pspan); err != nil {
				return err
			}
		}
		return nil
	}

	// One slab for the whole batch instead of n pool hits. Slab events
	// are marked so execution never pools them (an interior pointer
	// would pin the whole slab); the slab is garbage as soon as its
	// last event retires. Until the delivery loop below nothing is
	// published, so a bad entry mid-build rejects the batch atomically
	// with no unwinding (the slab is simply dropped). Batches are
	// typically handler-homogeneous, so the profiled cost and effective
	// penalty are re-priced only when the handler changes.
	slab := make([]equeue.Event, n)
	var (
		lastID   int32 = -1 // impossible id: the first entry always validates
		lastCost int64
		lastPen  int32
	)
	s := r.scratch.Get().(*batchScratch)
	s.prepare(n, len(r.cores))
	var nextSpan uint64
	if r.traced(ptrace, true) {
		// One atomic for the whole batch: reserve a block of span ids
		// and hand them out sequentially (ids need only be unique per
		// runtime, not dense in post order across posters; unsampled
		// roots leave theirs unused).
		nextSpan = r.traceSeq.Add(uint64(n)) - uint64(n) + 1
	}
	// With no color deviated anywhere, Owner == Hash for every color:
	// resolution is pure math and the color→owner memo is unnecessary
	// (grouping by Hash is deterministic, so one color still cannot
	// split across groups). One atomic load, checked once per batch.
	allHome := !r.table.AnyDeviated()
	for i, be := range batch {
		if be.Handler.id != lastID {
			idx := int(be.Handler.id) - 1
			if idx < 0 || idx >= len(hs) {
				r.scratch.Put(s)
				return unknownHandlerError(be.Handler)
			}
			lastID = be.Handler.id
			lastCost = r.estimate(int32(idx))
			lastPen = r.pol.EffectivePenalty(hs[idx].penalty)
		}
		ev := &slab[i]
		ev.Handler = equeue.HandlerID(be.Handler.id - 1)
		ev.Color = equeue.Color(be.Color)
		ev.Cost = lastCost
		ev.Penalty = lastPen
		ev.Slab = true
		ev.Data = be.Data
		sampled := r.obsOn && r.obsSeq.Add(1)&r.obsMask == 0
		if sampled {
			ev.PostNanos = r.now()
		}
		if r.traced(ptrace, sampled) {
			ev.SpanID = nextSpan
			if ptrace != 0 {
				ev.TraceID, ev.ParentSpan = ptrace, pspan
			} else {
				ev.TraceID = nextSpan // each external batch entry founds its own trace
			}
			nextSpan++
		}

		// Group by owning core without moving events: per-core index
		// chains in batch order. The owner is resolved once per
		// DISTINCT color — never twice — so the events of one color
		// always land in the same group and cannot be reordered by a
		// steal racing the resolution pass (a second read could
		// disagree with the first and split the color across groups).
		var o int32
		if allHome {
			o = int32(r.table.Hash(ev.Color))
		} else {
			var ok bool
			o, ok = s.lookup(be.Color)
			if !ok {
				o = int32(r.table.OwnerHint(ev.Color))
				s.insert(be.Color, o)
			}
		}
		s.next[i] = -1
		if s.heads[o] < 0 {
			s.heads[o] = int32(i)
		} else {
			s.next[s.tails[o]] = int32(i)
		}
		s.tails[o] = int32(i)
	}
	r.pending.Add(int64(n))

	// Deliver each core's group under one lock acquisition. Events
	// whose color moved (stolen or re-homed) between resolution and
	// delivery fall back to the per-event retry loop afterwards, in
	// batch order.
	var retries []*equeue.Event
	for core, head := range s.heads {
		if head >= 0 {
			retries = r.deliverGroup(core, slab, s.next, head, retries)
		}
	}
	r.scratch.Put(s)
	for _, ev := range retries {
		r.enqueue(ev)
	}
	return nil
}

// batchScratch is the reusable working memory of one PostBatch call:
// the per-core chain heads/tails, the next-index links, and a small
// generation-stamped open-addressing table memoizing color→owner for
// the resolution pass (a map costs ~3x as much per event). Pooled per
// runtime; safe because each call takes one exclusively.
type batchScratch struct {
	next  []int32
	heads []int32
	tails []int32

	slotColor []Color
	slotOwner []int32
	slotGen   []uint32
	gen       uint32
	mask      uint32
}

func (s *batchScratch) prepare(n, ncores int) {
	if cap(s.next) < n {
		s.next = make([]int32, n)
	}
	s.next = s.next[:n]
	if cap(s.heads) < ncores {
		s.heads = make([]int32, ncores)
		s.tails = make([]int32, ncores)
	}
	s.heads = s.heads[:ncores]
	s.tails = s.tails[:ncores]
	for i := range s.heads {
		s.heads[i] = -1
	}
	// Size the memo at >= 2n slots (power of two) so probes stay short.
	want := 16
	for want < 2*n {
		want *= 2
	}
	if len(s.slotColor) < want {
		s.slotColor = make([]Color, want)
		s.slotOwner = make([]int32, want)
		s.slotGen = make([]uint32, want)
		s.gen = 0
	}
	s.mask = uint32(len(s.slotColor) - 1)
	s.gen++
	if s.gen == 0 { // generation wrapped: stamp everything stale
		for i := range s.slotGen {
			s.slotGen[i] = 0
		}
		s.gen = 1
	}
}

func (s *batchScratch) slot(c Color) uint32 {
	// Fibonacci hashing over the high bits; colors are arbitrary 64-bit
	// values, often sequential.
	return uint32((uint64(c)*0x9E3779B97F4A7C15)>>33) & s.mask
}

func (s *batchScratch) lookup(c Color) (int32, bool) {
	for i := s.slot(c); ; i = (i + 1) & s.mask {
		if s.slotGen[i] != s.gen {
			return 0, false
		}
		if s.slotColor[i] == c {
			return s.slotOwner[i], true
		}
	}
}

func (s *batchScratch) insert(c Color, owner int32) {
	for i := s.slot(c); ; i = (i + 1) & s.mask {
		if s.slotGen[i] != s.gen {
			s.slotGen[i] = s.gen
			s.slotColor[i] = c
			s.slotOwner[i] = owner
			return
		}
	}
}

// deliverGroup pushes a same-owner chain of events onto core owner
// under one lock acquisition, returning the events that must be
// re-routed (appended to retries) because their color's lease moved.
// Each delivery step is deliverLocked — the same lease state machine
// the per-event path runs.
func (r *Runtime) deliverGroup(owner int, slab []equeue.Event, next []int32, head int32, retries []*equeue.Event) []*equeue.Event {
	c := r.cores[owner]
	delivered := 0
	// One-entry positive cache: chains interleave colors, but
	// same-color bursts are common and each table check is a stripe
	// hop. Caching only successes is safe — while we hold c.lock a
	// delivered color cannot be stolen or drained, so a re-check would
	// succeed again; it is purely a cost.
	var (
		lastCol   equeue.Color
		lastCQ    *equeue.ColorQueue
		haveColor bool
		// failed colors, by contrast, MUST divert all their later
		// events: a concurrent re-home (made under the leased core's
		// lock, not ours) could make a fresh check pass for a later
		// event while an earlier one still waits in retries — breaking
		// per-color batch order. Rarely non-empty; linear scan.
		failed []equeue.Color
	)
	c.lock.Lock()
	if c.mely != nil && r.pol.TimeLeft {
		c.mely.SetStealCost(r.stealMon.Estimate())
	}
	for i := head; i >= 0; i = next[i] {
		ev := &slab[i]
		if haveColor && ev.Color == lastCol {
			if c.list != nil {
				c.list.PushBack(ev)
			} else {
				if c.mely.Push(lastCQ, ev) {
					c.stats.ctr[ctrColorQueueChurns].Add(1)
				}
			}
			delivered++
			continue
		}
		diverted := false
		for _, f := range failed {
			if f == ev.Color {
				diverted = true
				break
			}
		}
		if diverted {
			retries = append(retries, ev)
			continue
		}
		cq, ok := r.deliverLocked(c, owner, ev)
		if !ok {
			haveColor = false
			failed = append(failed, ev.Color)
			retries = append(retries, ev)
			continue
		}
		lastCol, lastCQ, haveColor = ev.Color, cq, true
		delivered++
	}
	if c.list != nil {
		c.qlen.Store(int32(c.list.Len()))
	} else {
		c.qlen.Store(int32(c.mely.Len()))
		c.stealLen.Store(int32(c.mely.Stealing().Len()))
	}
	c.syncDiskLen()
	if delivered > 0 {
		c.stats.ctr[ctrPostedHere].Add(int64(delivered))
		c.stats.ctr[ctrBatchedEvents].Add(int64(delivered))
	}
	c.lock.Unlock()
	if delivered > 0 {
		c.unpark()
	}
	return retries
}

// PostBatch posts a batch from inside a handler (see Runtime.PostBatch).
// Like Ctx.Post, it is an internal continuation: never rejected or
// blocked by an overload bound. With tracing on, every entry of the
// batch becomes a child span of the posting handler's event.
func (ctx *Ctx) PostBatch(batch []BatchEvent) error {
	trace, span := ctx.lineage()
	return ctx.r.postBatch(batch, false, trace, span)
}
