package mely

import (
	"fmt"
	"math"
	"time"

	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/obs"
	"github.com/melyruntime/mely/internal/timerwheel"
)

// Timer is the handle of a timer armed with PostAfter, PostAt, or
// PostEvery. Cancel and Reset are safe from any goroutine and race-safe
// against a concurrent expiry: exactly one of Cancel-returning-true and
// the firing happens.
//
// Timers are color-affine: the entry lives on the timing wheel of the
// core that owns the timer's color, and it migrates with the color when
// a steal or a lease re-home moves it — so expiry stays a core-local
// harvest. The affinity is a performance property, not a correctness
// one: a fired timer's event is delivered through the same ownership
// lease protocol as a Post, so the expiry handler runs under the full
// single-color serialization guarantee no matter where the wheel
// happened to be.
type Timer struct {
	r *Runtime
	e *timerwheel.Entry
}

// Cancel stops the timer. It returns true when a scheduled firing was
// averted: for a one-shot timer that is an exact-once guarantee — the
// handler will never run — while a periodic timer caught mid-expiry
// still delivers the in-flight occurrence but none after it (and
// Cancel still returns true). False means the timer had already fired
// (or was already canceled) and nothing changed.
func (t *Timer) Cancel() bool {
	if !t.e.Cancel() {
		return false
	}
	t.r.timersCanceled.Add(1)
	return true
}

// Reset reschedules a still-armed timer to fire d from now (a periodic
// timer keeps its period from the new deadline). It returns false — and
// reschedules nothing — when the timer already fired, is firing, or was
// canceled. On false, a one-shot timer is spent (or canceled): re-arm
// with a fresh PostAfter if another firing is wanted. A periodic timer
// returning false needs nothing: unless it was canceled it is mid-
// firing and re-arms itself — arming a replacement would run two
// series. This is the cheap keep-alive path: resetting an
// idle-connection timeout on every request is one O(1) wheel operation,
// no allocation.
func (t *Timer) Reset(d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	if !t.e.Reschedule(t.r.now() + d.Nanoseconds()) {
		return false
	}
	if w := t.e.CurrentWheel(); w != nil {
		t.r.cores[w.Owner].unpark()
	}
	return true
}

// Fired reports whether a one-shot timer has delivered its event (it
// keeps reporting false for canceled timers and for periodic timers,
// which never retire).
func (t *Timer) Fired() bool { return t.e.State() == timerwheel.StateFired }

// PostAfter arms a one-shot timer: after at least d, handler h is
// posted with the given color and data, exactly as if Post had been
// called at the deadline — same serialization, same lease routing, same
// Stats accounting — with firing resolution bounded by
// Config.TimerTick. It is the runtime-native replacement for
// time.AfterFunc + Post: no goroutine per timer, no allocation per
// firing, and the expiry handler is color-serialized with every other
// event of that color. After shutdown it fails with ErrStopped.
func (r *Runtime) PostAfter(h Handler, color Color, d time.Duration, data any) (*Timer, error) {
	return r.postTimer(h, color, r.afterDeadline(d), 0, data, 0, 0)
}

// PostAt arms a one-shot timer for an absolute wall-clock deadline
// (clamped to now when already past).
func (r *Runtime) PostAt(h Handler, color Color, at time.Time, data any) (*Timer, error) {
	return r.postTimer(h, color, r.afterDeadline(time.Until(at)), 0, data, 0, 0)
}

// PostEvery arms a periodic timer firing every interval (first firing
// one interval from now). Occurrences missed while the system is
// saturated or suspended are skipped, not bursted: the next deadline
// after a late firing is pulled forward to now+every. The interval must
// be positive.
func (r *Runtime) PostEvery(h Handler, color Color, every time.Duration, data any) (*Timer, error) {
	if every <= 0 {
		return nil, fmt.Errorf("mely: non-positive PostEvery interval %v", every)
	}
	return r.postTimer(h, color, r.afterDeadline(every), every.Nanoseconds(), data, 0, 0)
}

// PostAfter arms a one-shot timer from inside a handler (see
// Runtime.PostAfter). The fired event inherits the arming event's
// causal lineage: with tracing on, the firing appears as a child hop of
// this handler's span rather than founding a new trace.
func (ctx *Ctx) PostAfter(h Handler, color Color, d time.Duration, data any) (*Timer, error) {
	trace, span := ctx.lineage()
	return ctx.r.postTimer(h, color, ctx.r.afterDeadline(d), 0, data, trace, span)
}

// now is the runtime's monotonic timer clock: nanoseconds since the
// runtime was built. One epoch for every core's wheel, so deadlines
// compare across wheels and migration never rebases them.
func (r *Runtime) now() int64 { return time.Since(r.epoch).Nanoseconds() }

func (r *Runtime) afterDeadline(d time.Duration) int64 {
	if d < 0 {
		d = 0
	}
	return r.now() + d.Nanoseconds()
}

func (r *Runtime) postTimer(h Handler, color Color, when, period int64, data any, ptrace, pspan uint64) (*Timer, error) {
	if r.stopped.Load() {
		return nil, ErrStopped
	}
	hs := *r.handlers.Load()
	idx := int(h.id) - 1
	if idx < 0 || idx >= len(hs) {
		return nil, unknownHandlerError(h)
	}
	e := timerwheel.NewEntry(equeue.Color(color), int32(idx), data, when, period)
	e.TraceID, e.SpanID = ptrace, pspan
	r.armTimer(e)
	return &Timer{r: r, e: e}, nil
}

// armTimer links an entry onto the wheel of its color's current owner
// (best effort: a concurrent steal may move the color before the entry
// lands, and the fire-time delivery re-resolves ownership anyway).
func (r *Runtime) armTimer(e *timerwheel.Entry) {
	c := r.cores[r.table.OwnerHint(e.Color)]
	if c.wheel.Add(e) {
		// The wheel's earliest deadline moved up; a parked owner is
		// sleeping against the old bound.
		c.unpark()
	}
}

// harvestTimers expires the core's due timers and posts their events.
// It is the worker-loop hook: one atomic load when nothing is due.
// It reports how many timers fired.
func (r *Runtime) harvestTimers(c *rcore) int {
	nd := c.wheel.NextDue()
	if nd == math.MaxInt64 {
		return 0 // no timers anywhere: skip even the clock read
	}
	now := r.now()
	if nd > now {
		return 0
	}
	c.timerBuf = c.wheel.Advance(now, c.timerBuf[:0])
	for _, e := range c.timerBuf {
		r.fireTimer(c, e, now)
	}
	fired := len(c.timerBuf)
	for i := range c.timerBuf {
		c.timerBuf[i] = nil // release payload references promptly
	}
	return fired
}

// fireTimer turns one harvested entry into a posted event, delivered
// through the normal ownership lease path (enqueue) so the expiry
// handler is serialized with every other event of its color. Periodic
// entries re-arm on the color's current owner.
func (r *Runtime) fireTimer(c *rcore, e *timerwheel.Entry, now int64) {
	lag := now - e.When
	c.stats.ctr[ctrTimersFired].Add(1)
	c.stats.timerLagHist[timerLagEdges.bucket(lag)].Add(1)

	// The handler id was validated at arm time and handlers never
	// unregister, so buildEvent cannot fail here. The fired event
	// inherits the arming span's lineage (zeros when armed outside a
	// handler, making the firing a trace root).
	ev, err := r.buildEvent(*r.handlers.Load(), Handler{id: e.Handler + 1}, Color(e.Color), e.Data, e.TraceID, e.SpanID)
	if err != nil {
		return
	}
	if c.ring != nil {
		// Recorded after buildEvent so the firing instant carries the
		// fired event's ids: melytrace treats it as the hop's enqueue
		// timestamp for exact queue-delay measurement.
		c.ring.AppendFlow(obs.KindTimerFire, now, lag, uint64(e.Color), 1, ev.TraceID, ev.SpanID, ev.ParentSpan)
	}
	if a := r.adm; a != nil {
		// Timer firings are internal continuations: never rejected or
		// blocked, but a spilling color's FIFO discipline still routes
		// the event to the disk tail.
		if a.admitInternal(equeue.Color(e.Color)) == routeDisk {
			r.spillBuilt(ev)
		} else {
			r.pending.Add(1)
			r.enqueue(ev)
		}
	} else {
		r.pending.Add(1)
		r.enqueue(ev)
	}

	if e.Period > 0 {
		next := e.When + e.Period
		if next <= now {
			next = now + e.Period // skip missed occurrences, don't burst
		}
		if e.Rearm(next) {
			r.armTimer(e)
		}
	} else {
		e.FinishFire()
	}
}

// migrateTimersOnSteal moves the pending timer entries of freshly
// stolen colors from the victim's wheel onto the thief's — the timer
// half of a color migration, so expiry harvest stays core-local. Runs
// outside both core locks; entries armed concurrently against the old
// owner are routed correctly at fire time regardless.
func (r *Runtime) migrateTimersOnSteal(c, v *rcore, colors []equeue.Color) {
	moved := false
	for _, col := range colors {
		if v.wheel.HasColor(col) {
			moved = true
			break
		}
	}
	if !moved {
		return
	}
	c.entryBuf = v.wheel.ExtractColors(colors, c.entryBuf[:0])
	if c.wheel.AdoptAll(c.entryBuf) {
		c.unpark()
	}
	for i := range c.entryBuf {
		c.entryBuf[i] = nil
	}
}

// migrateTimersOnReHome moves a re-homed color's pending timers from
// the expiring-lease core onto the color's hash home. Called under the
// leased core's lock by whichever poster trips the lease expiry (the
// wheel mutexes are leaf locks, acquired one at a time), so it must not
// touch the core's worker-owned scratch buffers; the allocation only
// happens when the re-homed color actually has timers pending.
func (r *Runtime) migrateTimersOnReHome(from *rcore, color equeue.Color, home int) {
	if !from.wheel.HasColor(color) {
		return
	}
	h := r.cores[home]
	if h.wheel.AdoptAll(from.wheel.ExtractColor(color, nil)) {
		h.unpark()
	}
}

// timerParkBound folds the wheel's next deadline into a park duration:
// sleep no longer than the next local expiry. Returns 0 when a timer is
// already due (don't park at all).
func (r *Runtime) timerParkBound(c *rcore, d time.Duration) time.Duration {
	nd := c.wheel.NextDue()
	if nd == math.MaxInt64 {
		return d
	}
	until := nd - r.now()
	if until <= 0 {
		return 0
	}
	if time.Duration(until) < d {
		return time.Duration(until)
	}
	return d
}
