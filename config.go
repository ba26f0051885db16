package mely

import (
	"fmt"
	"runtime"
	"time"

	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/timerwheel"
	"github.com/melyruntime/mely/internal/topology"
)

// Color is an event-coloring annotation: events with equal colors run
// serially, events with different colors may run concurrently. Color 0
// (DefaultColor) serializes everything posted without a color choice.
// The space is 64-bit so identifiers — connection ids, request ids,
// object keys — color events directly, with no wraparound ever aliasing
// two serialization domains.
type Color uint64

// DefaultColor is the color of unannotated events.
const DefaultColor Color = 0

// Policy selects the queue layout and workstealing algorithm, matching
// the configurations evaluated in the paper. Batch stealing is
// orthogonal to the policy choice: the runtime applies it on top of
// EVERY stealing policy by default — including the Libasync-smp
// baselines, whose original protocol moved one color per steal — so
// set MaxStealColors to 1 when reproducing a paper configuration
// faithfully. (The simulator, which regenerates the paper's tables,
// keeps batching off unless a policy.Config enables it.)
type Policy int

const (
	// PolicyMelyWS is Mely with all three heuristics (the paper's
	// recommended configuration and the default).
	PolicyMelyWS Policy = iota + 1
	// PolicyMely is Mely without workstealing.
	PolicyMely
	// PolicyMelyBaseWS is Mely's queues with the naive Libasync-smp
	// stealing algorithm.
	PolicyMelyBaseWS
	// PolicyMelyTimeLeftWS enables only the time-left heuristic.
	PolicyMelyTimeLeftWS
	// PolicyMelyPenaltyWS enables time-left plus penalty-aware.
	PolicyMelyPenaltyWS
	// PolicyMelyLocalityWS enables only locality-aware victim order.
	PolicyMelyLocalityWS
	// PolicyLibasync is the Libasync-smp baseline without stealing.
	PolicyLibasync
	// PolicyLibasyncWS is the Libasync-smp baseline with its stealing.
	PolicyLibasyncWS
)

// String names the policy like the paper's tables.
func (p Policy) String() string { return p.internal().String() }

func (p Policy) internal() policy.Config {
	switch p {
	case PolicyMelyWS, 0:
		return policy.MelyWS()
	case PolicyMely:
		return policy.Mely()
	case PolicyMelyBaseWS:
		return policy.MelyBaseWS()
	case PolicyMelyTimeLeftWS:
		return policy.MelyTimeLeftWS()
	case PolicyMelyPenaltyWS:
		return policy.MelyPenaltyWS()
	case PolicyMelyLocalityWS:
		return policy.MelyLocalityWS()
	case PolicyLibasync:
		return policy.Libasync()
	case PolicyLibasyncWS:
		return policy.LibasyncWS()
	default:
		return policy.Config{}
	}
}

// Config configures a Runtime. The zero value is ready for production:
// one worker per CPU, the full Mely policy, topology discovered from
// the host.
type Config struct {
	// Cores is the number of worker goroutines (default GOMAXPROCS).
	Cores int
	// Policy selects the scheduling configuration (default PolicyMelyWS).
	Policy Policy
	// Pin requests best-effort CPU pinning of the workers (Linux).
	Pin bool
	// BatchThreshold caps consecutive same-color events on a core
	// (default 10, the paper's setting). Only meaningful for Mely
	// layouts.
	BatchThreshold int
	// StealCostSeed seeds the steal-cost estimate before the runtime
	// has measured real steals (default 2µs).
	StealCostSeed time.Duration
	// IdleSpins is how many failed work-finding rounds a worker spins
	// through before parking (default 4).
	IdleSpins int
	// ParkTimeout bounds a parked worker's sleep so missed wakeups
	// self-heal (default 500µs).
	ParkTimeout time.Duration
	// MaxStealColors caps how many colors one steal attempt migrates.
	// Batch stealing takes up to half the victim's stealable colors in
	// a single victim-lock critical section, amortizing the per-color
	// lock, table, and wakeup costs. 0 applies the default cap (8);
	// 1 restores the paper's single-color steal protocol; larger
	// values raise the cap, up to policy.MaxStealColorsLimit (64) —
	// the whole batch detaches under one victim-lock hold, so the cap
	// bounds that critical section.
	MaxStealColors int
	// StealBackoff is the initial pause of the exponential backoff a
	// worker applies when consecutive steal probes find nothing: each
	// further fruitless round doubles the pause up to ParkTimeout, and
	// any success resets it — throttling steal storms when many cores
	// go idle together. 0 means the 10µs default; negative disables
	// the backoff entirely — every post-spin park lasts the full
	// ParkTimeout regardless of the failure streak.
	StealBackoff time.Duration
	// TimerTick is the granularity of the per-core timing wheels behind
	// PostAfter/PostAt/PostEvery (default 1ms): timers fire on the next
	// tick at or after their deadline, so the tick bounds the structural
	// firing lag. Finer ticks buy resolution at the cost of more wheel
	// positions to walk on an idle core.
	TimerTick time.Duration
	// TimerWheelLevels is the depth of the timing-wheel hierarchy
	// (default 4). Each level multiplies the horizon by 64: four levels
	// of 1ms ticks cover ~4.7 hours before deadlines park in the top
	// level and pay extra cascades (still correct, just costlier).
	TimerWheelLevels int

	// ObsSampleRate is the live-observability sampling period: one in
	// every ObsSampleRate posted events carries a timestamp from post to
	// execution, feeding the per-core queue-delay and execution-time
	// histograms (Stats.Cores[i].QueueDelayHist / ExecTimeHist) and the
	// per-color delay attribution. The same draw head-samples causal
	// tracing: a trace root (an event posted from outside a handler)
	// that draws the sample gets span ids, and every event it causes
	// inherits them, so the flight recorder holds whole chains — about
	// one in ObsSampleRate — and unsampled chains cost it nothing.
	// Spilled roots are always traced. Rounded up to a power of two. 0
	// means the default of 64 (≈1.6% of events, within noise of the
	// posting hot path); 1 samples and traces every event; negative
	// disables the latency histograms and execution tracing of
	// in-memory posts entirely.
	ObsSampleRate int
	// TraceRing is the per-core flight-recorder capacity in records
	// (rounded up to a power of two). The recorder is always on: every
	// execution of a sampled chain (see ObsSampleRate), and every steal,
	// re-home, spill, reload, timer firing, and poll wakeup appends one
	// fixed-size record, overwriting the oldest, and
	// Runtime.DumpTrace renders the rings as Chrome trace JSON on
	// demand. 0 means the default of 4096 records per core (~128 KiB
	// per core); negative disables the recorder.
	TraceRing int
	// StallThreshold arms the stall watchdog: a sampler goroutine that
	// checks each core's last-progress stamp and, when a handler has
	// been executing longer than the threshold, emits a KindStall
	// flight-recorder record carrying the stalled span's trace id,
	// captures a full goroutine stack (Runtime.LastStallStack), counts
	// the episode (Stats mely_stalls_total / mely_stalled_cores), and —
	// if IncidentDir is set — captures an incident bundle. One
	// record per episode: a core stuck in one handler is reported once
	// until that handler returns. 0 (the default) disables the watchdog
	// entirely; thresholds under 1ms are rejected (the stamp check runs
	// at threshold/4, floored at 10ms — finer stalls need a profiler,
	// not a watchdog).
	StallThreshold time.Duration

	// ObsInterval arms the metrics time-series collector: every
	// interval a collector goroutine snapshots Stats into a
	// fixed-memory ring of ObsHistory samples, derives per-window rates
	// and latency quantiles (/debug/timeseries, the mely_*_rate
	// gauges), and runs the health detectors over the window
	// (Runtime.Health, /debug/health, the OnAnomaly hook). 0 (the
	// default) disables all of it — a bare runtime pays nothing, not
	// even the ring's memory. Intervals under 1ms are rejected; 1s is
	// the conventional production setting.
	ObsInterval time.Duration
	// ObsHistory is the time-series ring's capacity in samples
	// (default 240 — four minutes of history at the 1s interval). The
	// ring's memory is allocated once at Start and bounded by
	// ObsHistory x the fixed per-sample size; nothing grows with
	// uptime.
	ObsHistory int
	// TargetQueueDelay feeds the adaptive-bounds stepping stone: when
	// positive (and the collector is armed), the health engine
	// computes the MaxQueuedEvents that would hold queue delay near
	// this target at the observed drain rate (Little's law) and
	// reports it as HealthReport.RecommendedMaxQueued and the
	// mely_recommended_max_queued gauge. Recommendation only — nothing
	// enforces it yet.
	TargetQueueDelay time.Duration
	// OnAnomaly, when set, is called from the collector goroutine each
	// time a fresh anomaly episode begins — a detector firing that was
	// not firing at the previous evaluation. The report passed in is
	// the full current health report. When OnAnomaly is nil and
	// IncidentDir is set, the default action captures an incident
	// bundle instead.
	OnAnomaly func(HealthReport)
	// IncidentDir arms profile-on-anomaly: when non-empty, fresh
	// anomaly episodes (and stall-watchdog episodes) capture a bounded
	// evidence bundle — CPU profile, flight-recorder trace, timeseries
	// window, health report — into a timestamped subdirectory of this
	// directory, created if missing. Captures are asynchronous and
	// rate-limited by IncidentMinGap; overlapping triggers are counted
	// but not captured.
	IncidentDir string
	// IncidentMinGap is the minimum spacing between incident captures
	// (default 30s; negative disables the gap, for tests).
	IncidentMinGap time.Duration

	// MaxQueuedEvents bounds the runtime-wide number of in-memory
	// queued events (0 = unlimited, the pre-overload behavior). Once
	// the bound is reached, posting follows OverloadPolicy. Unbounded
	// runtimes pay nothing for this machinery — the admission layer is
	// not even constructed.
	MaxQueuedEvents int
	// MaxQueuedPerColor bounds one color's in-memory queue depth
	// (0 = unlimited). A single hot color — a popular connection, a
	// runaway PostEvery — then saturates alone instead of starving the
	// whole runtime's budget.
	MaxQueuedPerColor int
	// OverloadPolicy selects what posting does at a bound:
	// OverloadReject (default; external posts fail with ErrOverloaded),
	// OverloadBlock (external posts wait, PostContext-cancelable), or
	// OverloadSpill (saturated colors' queue tails move to disk and
	// reload on drain — posting never fails, memory stays bounded).
	OverloadPolicy OverloadPolicy
	// SpillDir is the directory OverloadSpill keeps its segment files
	// in. Empty means a fresh private temp directory, removed at Stop.
	// An explicit directory must be owned by exactly one runtime:
	// without SpillRecover, leftover *.seg files in it are deleted as
	// crash orphans at startup and the runtime's own segments are
	// deleted at Stop; with SpillRecover they are scanned, repaired,
	// and reloaded instead (see docs/spillq-format.md).
	SpillDir string
	// SpillSegmentBytes is the roll threshold of the spill segment
	// files (default 256 KiB): also the granularity at which consumed
	// disk space is returned.
	SpillSegmentBytes int
	// SpillSync selects when spilled records reach stable storage
	// (default SpillSyncNone: only at segment seal). See the
	// SpillSyncPolicy constants for the loss-window/throughput
	// trade-off each policy buys.
	SpillSync SpillSyncPolicy
	// SpillSyncEvery is the SpillSyncInterval period (default 100ms):
	// the upper bound on how much spilled state one crash can lose
	// under that policy. Ignored by the other policies.
	SpillSyncEvery time.Duration
	// SpillRecover makes the spill store durable across restarts:
	// Open recovers surviving segments in SpillDir instead of deleting
	// them (torn tails truncated at the last CRC-valid record), the
	// backlog reloads into the owning colors' FIFOs at startup, and
	// Stop seals segments instead of deleting them. Requires an
	// explicit SpillDir and OverloadSpill. Handlers must be registered
	// in the same order across restarts — records reference handlers
	// by registration index.
	SpillRecover bool
}

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = runtime.GOMAXPROCS(0)
	}
	if c.Policy == 0 {
		c.Policy = PolicyMelyWS
	}
	if c.BatchThreshold == 0 {
		c.BatchThreshold = 10
	}
	if c.StealCostSeed == 0 {
		c.StealCostSeed = 2 * time.Microsecond
	}
	if c.IdleSpins == 0 {
		c.IdleSpins = 4
	}
	if c.ParkTimeout == 0 {
		c.ParkTimeout = 500 * time.Microsecond
	}
	if c.StealBackoff == 0 {
		c.StealBackoff = 10 * time.Microsecond
	}
	if c.TimerTick == 0 {
		c.TimerTick = time.Millisecond
	}
	if c.TimerWheelLevels == 0 {
		c.TimerWheelLevels = 4
	}
	if c.ObsSampleRate == 0 {
		c.ObsSampleRate = 64
	}
	if c.TraceRing == 0 {
		c.TraceRing = 4096
	}
	if c.ObsHistory == 0 {
		c.ObsHistory = 240
	}
	if c.IncidentMinGap == 0 {
		c.IncidentMinGap = 30 * time.Second
	}
	return c
}

func (c Config) validate() error {
	if c.Cores < 0 || c.Cores > 1024 {
		return fmt.Errorf("mely: invalid core count %d", c.Cores)
	}
	if err := c.Policy.internal().Validate(); err != nil {
		return fmt.Errorf("mely: invalid policy: %w", err)
	}
	if c.BatchThreshold < 0 {
		return fmt.Errorf("mely: negative batch threshold")
	}
	if c.MaxStealColors < 0 {
		return fmt.Errorf("mely: negative steal batch cap")
	}
	if c.MaxStealColors > policy.MaxStealColorsLimit {
		return fmt.Errorf("mely: steal batch cap %d exceeds limit %d",
			c.MaxStealColors, policy.MaxStealColorsLimit)
	}
	if c.TimerTick < 0 {
		return fmt.Errorf("mely: negative timer tick")
	}
	if c.TimerTick > 0 && c.TimerTick < 10*time.Microsecond {
		return fmt.Errorf("mely: timer tick %v below the 10µs floor", c.TimerTick)
	}
	if c.TimerWheelLevels < 0 || c.TimerWheelLevels > timerwheel.MaxLevels {
		return fmt.Errorf("mely: timer wheel levels %d out of range [1, %d]",
			c.TimerWheelLevels, timerwheel.MaxLevels)
	}
	if c.ObsSampleRate > 1<<30 {
		return fmt.Errorf("mely: obs sample rate %d too large", c.ObsSampleRate)
	}
	if c.TraceRing > 1<<24 {
		return fmt.Errorf("mely: trace ring size %d too large (max %d records per core)",
			c.TraceRing, 1<<24)
	}
	if c.StallThreshold < 0 {
		return fmt.Errorf("mely: negative stall threshold")
	}
	if c.StallThreshold > 0 && c.StallThreshold < time.Millisecond {
		return fmt.Errorf("mely: stall threshold %v below the 1ms floor", c.StallThreshold)
	}
	if c.ObsInterval < 0 {
		return fmt.Errorf("mely: negative obs interval")
	}
	if c.ObsInterval > 0 && c.ObsInterval < time.Millisecond {
		return fmt.Errorf("mely: obs interval %v below the 1ms floor", c.ObsInterval)
	}
	if c.ObsHistory < 0 || c.ObsHistory > 1<<20 {
		return fmt.Errorf("mely: obs history %d out of range [0, %d]", c.ObsHistory, 1<<20)
	}
	if c.TargetQueueDelay < 0 {
		return fmt.Errorf("mely: negative target queue delay")
	}
	if c.MaxQueuedEvents < 0 || c.MaxQueuedPerColor < 0 {
		return fmt.Errorf("mely: negative queue bound")
	}
	if c.SpillSegmentBytes < 0 {
		return fmt.Errorf("mely: negative spill segment size")
	}
	switch c.OverloadPolicy {
	case OverloadReject, OverloadBlock, OverloadSpill:
	default:
		return fmt.Errorf("mely: invalid overload policy %d", int(c.OverloadPolicy))
	}
	switch c.SpillSync {
	case SpillSyncNone, SpillSyncInterval, SpillSyncAlways:
	default:
		return fmt.Errorf("mely: invalid spill sync policy %d", int(c.SpillSync))
	}
	if c.SpillSyncEvery < 0 {
		return fmt.Errorf("mely: negative spill sync interval")
	}
	if c.SpillRecover {
		if c.OverloadPolicy != OverloadSpill {
			return fmt.Errorf("mely: SpillRecover requires OverloadSpill")
		}
		if c.SpillDir == "" {
			return fmt.Errorf("mely: SpillRecover requires an explicit SpillDir (a private temp directory cannot survive a restart)")
		}
	}
	return nil
}

// detectTopology discovers the host hierarchy, falling back to a flat
// layout truncated or extended to n cores.
func detectTopology(n int) *topology.Topology {
	if topo, err := topology.FromSysFS("/sys/devices/system/cpu"); err == nil && topo.NumCores() >= n {
		if topo.NumCores() == n {
			return topo
		}
		// Re-group the first n cores of the discovered layout.
		share := make([]int, n)
		pkg := make([]int, n)
		for i := 0; i < n; i++ {
			share[i] = topo.ShareGroup(i)
			pkg[i] = topo.Package(i)
		}
		if sub, err := topology.New(share, pkg); err == nil {
			return sub
		}
	}
	return topology.Uniform(n)
}
