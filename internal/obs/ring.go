package obs

import (
	"math/bits"
	"sync/atomic"
)

// Kind tags a flight-recorder record with the runtime action it
// captured. Values are stable — they appear in dumped traces and in
// docs/observability.md.
type Kind uint8

const (
	// KindNone marks an empty or invalidated slot.
	KindNone Kind = iota
	// KindPost: an event was accepted into a core's queue. Ts is the
	// post timestamp, Arg the color, N the handler id.
	KindPost
	// KindExec: a handler ran. Ts is the execution start, Dur the
	// handler wall time, Arg the color, N the handler id (with
	// StolenFlag set when the event executed away from its home core).
	KindExec
	// KindSteal: a steal batch completed. Ts is the probe start, Dur
	// the whole steal (probe + transfer), Arg the victim core, N the
	// number of colors taken.
	KindSteal
	// KindReHome: an expired lease moved a color back to its home
	// core. Arg is the color, N the home core.
	KindReHome
	// KindSpill: an event was spilled to disk. Arg is the color, N the
	// on-disk depth after the append.
	KindSpill
	// KindReload: spilled events were reloaded. Arg is the color, N
	// the batch size.
	KindReload
	// KindTimerFire: a timer fired. Ts is the fire time, Dur the lag
	// behind the deadline, Arg the color.
	KindTimerFire
	// KindPollWake: a poller shard woke up. N is the number of readiness
	// events harvested.
	KindPollWake
	// KindStall: the stall watchdog caught a handler exceeding the
	// configured threshold. Ts is the detection time, Dur the elapsed
	// execution time so far, Arg the stalled core, N the handler id;
	// the flow fields carry the stalled span's trace/span ids.
	KindStall

	numKinds
)

// StolenFlag is OR-ed into a KindExec record's N field when the event
// ran on a thief core rather than its home.
const StolenFlag uint32 = 1 << 31

var kindNames = [numKinds]string{
	KindNone:      "none",
	KindPost:      "post",
	KindExec:      "exec",
	KindSteal:     "steal",
	KindReHome:    "re-home",
	KindSpill:     "spill",
	KindReload:    "reload",
	KindTimerFire: "timer",
	KindPollWake:  "poll",
	KindStall:     "stall",
}

// String names the kind for trace output.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Event is a decoded flight-recorder record. Ts and Dur are
// nanoseconds relative to the runtime's epoch. Trace/Span/Parent are
// the causal-flow identifiers (zero on records of untraced actions).
type Event struct {
	Ts     int64
	Dur    int64
	Arg    uint64
	Trace  uint64
	Span   uint64
	Parent uint64
	N      uint32
	Kind   Kind
}

// slot holds one record as independent atomics. The top bits of meta
// are a sequence stamp guarding the other fields: a writer claims an
// empty slot, or one stamped with an earlier lap, for ring position p
// by CAS-ing the stamp to the odd value
// 2·lap+1 (lap = p / ring size), stores the fields, and publishes the
// even value 2·lap+2 together with kind and n. A reader keeps a record
// only if meta carries the even stamp of the position it expects both
// before and after reading the fields: whatever lapped the ring or
// raced for the slot in between changed meta. A writer that finds the
// slot claimed (another writer mid-record) or stamped with a later lap
// drops its record — a lost record is tolerable for a flight recorder,
// a torn one is not. Like a seqlock counter the stamp wraps (after
// 2^23 laps), so only a reader stalled between its two loads while one
// ring takes that many laps of appends could accept a mixed record.
// Packing the stamp into meta keeps a slot at seven words, which
// matters: every runtime allocates Config.TraceRing slots per core.
type slot struct {
	ts     atomic.Int64
	dur    atomic.Int64
	arg    atomic.Uint64
	trace  atomic.Uint64
	span   atomic.Uint64
	parent atomic.Uint64
	meta   atomic.Uint64 // kind | uint64(n)<<8 | stamp<<stampShift
}

const (
	stampShift = 40
	stampMask  = 1<<(64-stampShift) - 1
	// stampHalf splits the stamp circle into earlier and later laps.
	stampHalf = 1 << (63 - stampShift)
)

// Ring is a fixed-size lock-free flight-recorder buffer. Appends are a
// fetch-add, one CAS and a handful of atomic stores — cheap enough to
// leave on in production. One Ring belongs to one core (plus one shared
// auxiliary ring for off-core actions: spill, reload, poll wakeups).
type Ring struct {
	mask     uint64
	lapShift int // log2 of the slot count
	pos      atomic.Uint64
	slots    []slot
}

// NewRing returns a ring holding size records, rounded up to a power
// of two (minimum 64).
func NewRing(size int) *Ring {
	n := 64
	for n < size {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), lapShift: bits.TrailingZeros(uint(n)), slots: make([]slot, n)}
}

// stamp is the published sequence stamp of ring position p.
func (r *Ring) stamp(p uint64) uint64 { return (2*(p>>r.lapShift) + 2) & stampMask }

// Cap is the ring's slot count.
func (r *Ring) Cap() int { return len(r.slots) }

// Append records one event, overwriting the oldest slot once the ring
// is full. Safe for concurrent use from any goroutine.
func (r *Ring) Append(k Kind, ts, dur int64, arg uint64, n uint32) {
	r.AppendFlow(k, ts, dur, arg, n, 0, 0, 0)
}

// AppendFlow is Append carrying the causal-flow identifiers: the
// record's trace id, its own span id, and the span that caused it
// (zero when unknown). The ids ride the same sequence-stamp protocol
// as the other fields (see slot).
func (r *Ring) AppendFlow(k Kind, ts, dur int64, arg uint64, n uint32, trace, span, parent uint64) {
	p := r.pos.Add(1) - 1
	s := &r.slots[p&r.mask]
	done := r.stamp(p)
	for {
		old := s.meta.Load()
		st := old >> stampShift
		if d := (done - st) & stampMask; st&1 != 0 || (old != 0 && (d == 0 || d >= stampHalf)) {
			return // another writer holds the slot, or a later lap does
		}
		if s.meta.CompareAndSwap(old, ((done-1)&stampMask)<<stampShift) {
			break
		}
	}
	s.ts.Store(ts)
	s.dur.Store(dur)
	s.arg.Store(arg)
	s.trace.Store(trace)
	s.span.Store(span)
	s.parent.Store(parent)
	s.meta.Store(uint64(k) | uint64(n)<<8 | done<<stampShift)
}

// Snapshot decodes the ring's current contents oldest-first, appending
// to dst. Records being written or overwritten mid-read are dropped;
// see slot.
func (r *Ring) Snapshot(dst []Event) []Event {
	end := r.pos.Load()
	n := uint64(len(r.slots))
	start := uint64(0)
	if end > n {
		start = end - n
	}
	for i := start; i < end; i++ {
		s := &r.slots[i&r.mask]
		m := s.meta.Load()
		if m>>stampShift != r.stamp(i) {
			continue
		}
		ev := Event{
			Ts:     s.ts.Load(),
			Dur:    s.dur.Load(),
			Arg:    s.arg.Load(),
			Trace:  s.trace.Load(),
			Span:   s.span.Load(),
			Parent: s.parent.Load(),
			N:      uint32(m >> 8),
			Kind:   Kind(m & 0xff),
		}
		if s.meta.Load() != m {
			continue
		}
		if ev.Kind == KindNone || ev.Kind >= numKinds || ev.Ts < 0 || ev.Dur < 0 {
			continue
		}
		dst = append(dst, ev)
	}
	return dst
}
