package mely

import (
	"sort"
	"time"

	"github.com/melyruntime/mely/internal/obs"
)

// LatencyBuckets is the length of the power-of-two latency histograms
// (CoreStats.QueueDelayHist / ExecTimeHist): bucket 0 holds durations
// below 256ns, bucket i holds [2^(i+7), 2^(i+8)) ns, and the last
// bucket everything from ~17s up. LatencyBucketUpper reports the
// boundaries.
const LatencyBuckets = obs.NumLatencyBuckets

// LatencyBucketUpper is the exclusive upper bound of latency-histogram
// bucket i (the last bucket is unbounded and reports math.MaxInt64 ns).
func LatencyBucketUpper(i int) time.Duration {
	return time.Duration(obs.LatencyUpperNanos(i))
}

// LatencySnapshot is a sampled latency distribution: power-of-two
// buckets plus the sum of the observed durations. Populated only when
// Config.ObsSampleRate is not negative, from one in every
// ObsSampleRate events.
type LatencySnapshot struct {
	Buckets [LatencyBuckets]int64
	Sum     time.Duration
}

// Count is the number of sampled observations.
func (l LatencySnapshot) Count() int64 {
	var n int64
	for _, c := range l.Buckets {
		n += c
	}
	return n
}

// Quantile reports the q-quantile (0 < q <= 1) as the upper bound of
// the bucket where the cumulative count crosses q — a conservative
// (pessimistic) estimate with power-of-two resolution. Zero when
// nothing was sampled.
func (l LatencySnapshot) Quantile(q float64) time.Duration {
	return obs.Quantile(&l.Buckets, q)
}

// merge folds another snapshot into l.
func (l *LatencySnapshot) merge(o LatencySnapshot) {
	for b := range l.Buckets {
		l.Buckets[b] += o.Buckets[b]
	}
	l.Sum += o.Sum
}

// ColorDelay is one color's sampled queue-delay attribution: how many
// sampled events of the color were observed and their summed
// post-to-execution delay. The per-core tables track the top
// ColorTopK most-frequently-sampled colors with a space-saving
// (Misra-Gries-style) eviction, so the attribution is approximate
// under adversarial color churn but exact for a stable hot set.
type ColorDelay struct {
	Color   Color
	Samples int64
	Delay   time.Duration
}

// Mean is the color's mean sampled queue delay.
func (c ColorDelay) Mean() time.Duration {
	if c.Samples == 0 {
		return 0
	}
	return c.Delay / time.Duration(c.Samples)
}

// ColorTopK is the per-core capacity of the sampled per-color
// queue-delay attribution table (CoreStats.TopColorDelays).
const ColorTopK = 8

// bucketEdges are the inclusive upper edges of a small fixed
// histogram: a value lands in the first bucket whose edge it does not
// exceed, or in the overflow bucket past the last edge.
type bucketEdges [5]int64

// histBuckets is the length of every bucketEdges histogram.
const histBuckets = len(bucketEdges{}) + 1

// bucket maps v to its bucket index.
func (e *bucketEdges) bucket(v int64) int {
	for i, edge := range e {
		if v <= edge {
			return i
		}
	}
	return len(e)
}

// uppers renders the edges as exposition le bounds, each divided by
// unit (1e9 turns nanoseconds into seconds; dividing, not multiplying
// by 1e-9, keeps the bounds the exact decimal values).
func (e *bucketEdges) uppers(unit float64) []float64 {
	out := make([]float64, len(e))
	for i, edge := range e {
		out[i] = float64(edge) / unit
	}
	return out
}

// The bucketEdges histograms' edge tables.
var (
	// stealBatchEdges bins colors per steal: 1, 2, 3–4, 5–8, 9–16, ≥17.
	stealBatchEdges = bucketEdges{1, 2, 4, 8, 16}
	// timerLagEdges bins firing lag (harvest time minus deadline), in
	// nanoseconds: ≤100µs, ≤1ms, ≤2ms, ≤10ms, ≤100ms, >100ms.
	timerLagEdges = bucketEdges{100_000, 1_000_000, 2_000_000, 10_000_000, 100_000_000}
	// pollBatchEdges bins events per poll wakeup: ≤1, 2–4, 5–16, 17–64,
	// 65–256, >256.
	pollBatchEdges = bucketEdges{1, 4, 16, 64, 256}
	// spillDepthEdges bins a color's on-disk depth, observed at each
	// spill append: ≤16, ≤64, ≤256, ≤1024, ≤4096, >4096 records.
	spillDepthEdges = bucketEdges{16, 64, 256, 1024, 4096}
)

// StealBatchBuckets, TimerLagBuckets, PollBatchBuckets and
// SpillDepthBuckets are the lengths of CoreStats.StealBatchHist,
// CoreStats.TimerLagHist, Stats.PollBatchHist and Stats.SpillDepthHist;
// see those fields for the bucket boundaries.
const (
	StealBatchBuckets = histBuckets
	TimerLagBuckets   = histBuckets
	PollBatchBuckets  = histBuckets
	SpillDepthBuckets = histBuckets
)

// PollBatchBucket maps a poll wakeup's harvested-event count to its
// Stats.PollBatchHist bucket. Exported so readiness backends
// (internal/netpoll) bin with the same boundaries Stats reports.
func PollBatchBucket(n int) int { return pollBatchEdges.bucket(int64(n)) }

// Indexes of the per-core scalar counters in rstats.ctr, in the order
// WriteMetrics renders them.
const (
	ctrEvents = iota
	ctrExecNanos
	ctrSteals
	ctrRemoteSteals
	ctrStealAttempts
	ctrFailedSteals
	ctrStealNanos
	ctrStolenEvents
	ctrStolenNanos
	ctrStolenColors
	ctrParks
	ctrBackoffParks
	ctrPostedHere
	ctrBatchedEvents
	ctrColorQueueChurns
	ctrPanics
	ctrTimersFired
	ctrStalls
	numCoreCounters
)

// coreCounter describes one per-core scalar counter: its exposition
// name and help, whether it counts nanoseconds (CoreStats holds a
// time.Duration, the exposition seconds), and its CoreStats field.
type coreCounter struct {
	name     string
	help     string
	duration bool
	field    func(*CoreStats) *int64
}

// value renders a counter reading in its exposition unit.
func (cc *coreCounter) value(n int64) float64 {
	if cc.duration {
		return time.Duration(n).Seconds()
	}
	return float64(n)
}

// coreCounters is the per-core counter inventory: adding a counter is
// a CoreStats field, a ctr* constant, a row here, and its increment
// site. Stats, Total and WriteMetrics loop over this table.
var coreCounters = [numCoreCounters]coreCounter{
	ctrEvents: {"mely_events_total", "Events executed, per core.", false,
		func(c *CoreStats) *int64 { return &c.Events }},
	ctrExecNanos: {"mely_exec_seconds_total", "Total handler execution time, per core.", true,
		func(c *CoreStats) *int64 { return (*int64)(&c.ExecTime) }},
	ctrSteals: {"mely_steals_total", "Successful steals performed by this core.", false,
		func(c *CoreStats) *int64 { return &c.Steals }},
	ctrRemoteSteals: {"mely_remote_steals_total", "Steals that crossed a cache boundary.", false,
		func(c *CoreStats) *int64 { return &c.RemoteSteals }},
	ctrStealAttempts: {"mely_steal_attempts_total", "Steal probes, including failures.", false,
		func(c *CoreStats) *int64 { return &c.StealAttempts }},
	ctrFailedSteals: {"mely_failed_steals_total", "Steal probes that found nothing.", false,
		func(c *CoreStats) *int64 { return &c.FailedSteals }},
	ctrStealNanos: {"mely_steal_seconds_total", "Time spent in successful steal transactions.", true,
		func(c *CoreStats) *int64 { return (*int64)(&c.StealTime) }},
	ctrStolenEvents: {"mely_stolen_events_total", "Migrated events executed on this core.", false,
		func(c *CoreStats) *int64 { return &c.StolenEvents }},
	ctrStolenNanos: {"mely_stolen_seconds_total", "Handler time of migrated events (stolen time).", true,
		func(c *CoreStats) *int64 { return (*int64)(&c.StolenTime) }},
	ctrStolenColors: {"mely_stolen_colors_total", "Colors migrated here by this core's steals.", false,
		func(c *CoreStats) *int64 { return &c.StolenColors }},
	ctrParks: {"mely_parks_total", "Idle worker sleeps.", false,
		func(c *CoreStats) *int64 { return &c.Parks }},
	ctrBackoffParks: {"mely_backoff_parks_total", "Parks shortened by the steal-throttling backoff.", false,
		func(c *CoreStats) *int64 { return &c.BackoffParks }},
	ctrPostedHere: {"mely_posted_here_total", "Enqueues landing on this core.", false,
		func(c *CoreStats) *int64 { return &c.PostedHere }},
	ctrBatchedEvents: {"mely_batched_events_total", "Events delivered through PostBatch core groups.", false,
		func(c *CoreStats) *int64 { return &c.BatchedEvents }},
	ctrColorQueueChurns: {"mely_color_queue_churns_total", "ColorQueue link/unlink pairs.", false,
		func(c *CoreStats) *int64 { return &c.ColorQueueChurns }},
	ctrPanics: {"mely_panics_total", "Handler panics contained by the worker.", false,
		func(c *CoreStats) *int64 { return &c.Panics }},
	ctrTimersFired: {"mely_timers_fired_total", "Timers expired by this core's wheel.", false,
		func(c *CoreStats) *int64 { return &c.TimersFired }},
	ctrStalls: {"mely_stalls_total", "Stall-watchdog episodes (handler exceeded StallThreshold).", false,
		func(c *CoreStats) *int64 { return &c.Stalls }},
}

// PollSample is one readiness-event source's counter snapshot (see
// Runtime.AddPollSource). Network backends that own their poll loop —
// netpoll's epoll reactor shards — report through this so Stats shows
// how efficiently readiness is being harvested.
type PollSample struct {
	// Wakeups counts returns from the poll wait; Events counts
	// readiness events harvested across them. Events/Wakeups is the
	// amortization factor of the batch harvest.
	Wakeups int64
	Events  int64
	// BatchHist bins the events-per-wakeup batch sizes (see
	// PollBatchBucket for the boundaries).
	BatchHist [PollBatchBuckets]int64
	// WriteStalls counts writes that filled the kernel buffer and fell
	// back to the pending-write queue (drained on writability under the
	// connection's color).
	WriteStalls int64
	// ReadPauses counts connections whose read readiness was paused
	// because their data color was saturated (Runtime.Saturated) — the
	// read-backpressure edge of the overload-control layer; each pause
	// is counted once per pause episode, not per skipped event.
	ReadPauses int64
}

// add folds another sample into s.
func (s *PollSample) add(o PollSample) {
	s.Wakeups += o.Wakeups
	s.Events += o.Events
	for b := range s.BatchHist {
		s.BatchHist[b] += o.BatchHist[b]
	}
	s.WriteStalls += o.WriteStalls
	s.ReadPauses += o.ReadPauses
}

// CoreStats is a snapshot of one worker's counters.
type CoreStats struct {
	// Events executed on this core and their total handler time. A
	// worker reads the clock once per event and runs a color's events
	// back to back, so ExecTime also covers the worker's bookkeeping
	// between consecutive handlers of one run.
	Events   int64
	ExecTime time.Duration
	// Steals performed by this core (RemoteSteals crossed a cache
	// boundary); FailedSteals found nothing; StealTime is the total
	// time spent in successful steal transactions.
	Steals        int64
	RemoteSteals  int64
	StealAttempts int64
	FailedSteals  int64
	StealTime     time.Duration
	// StolenEvents executed here after migration, and their time (the
	// paper's "stolen time").
	StolenEvents int64
	StolenTime   time.Duration
	// StolenColors counts colors migrated here by this core's steals:
	// equal to Steals under the single-color protocol, larger when
	// batch stealing migrates several colors per attempt.
	// StealBatchHist is the batch-size histogram of those steals, with
	// buckets 1, 2, 3–4, 5–8, 9–16, ≥17 colors.
	StolenColors   int64
	StealBatchHist [StealBatchBuckets]int64
	// Parks counts idle sleeps; BackoffParks the subset shortened by
	// the steal-throttling backoff (see Config.StealBackoff);
	// PostedHere counts enqueues landing on this core; BatchedEvents
	// counts the subset delivered through PostBatch's
	// one-lock-per-core path; ColorQueueChurns counts ColorQueue
	// link/unlink pairs (the short-lived color overhead of section
	// V-C1).
	Parks            int64
	BackoffParks     int64
	PostedHere       int64
	BatchedEvents    int64
	ColorQueueChurns int64
	// Panics counts handler panics contained by the worker.
	Panics int64
	// Stalls counts stall-watchdog episodes on this core: handlers that
	// executed past Config.StallThreshold (0 with the watchdog off).
	Stalls int64
	// Queued is the instantaneous queue length.
	Queued int
	// TimersFired counts timers this core's wheel expired; TimerLagHist
	// is the firing-lag histogram (harvest time minus deadline) with
	// buckets ≤100µs, ≤1ms, ≤2ms, ≤10ms, ≤100ms, >100ms — the structural
	// floor is Config.TimerTick plus the park latency of an idle core.
	TimersFired  int64
	TimerLagHist [TimerLagBuckets]int64
	// TimersPending is the instantaneous number of armed timers on this
	// core's wheel.
	TimersPending int
	// QueueDelayHist is the sampled post-to-execution delay
	// distribution of events executed on this core, and ExecTimeHist
	// the sampled handler execution times, both in power-of-two buckets
	// (see LatencyBuckets). Empty when Config.ObsSampleRate is
	// negative. TopColorDelays attributes the sampled queue delay to
	// the core's hottest colors (up to ColorTopK entries, most-sampled
	// first).
	QueueDelayHist LatencySnapshot
	ExecTimeHist   LatencySnapshot
	TopColorDelays []ColorDelay
}

// MeanStealBatch is the average number of colors migrated per
// successful steal (0 when no steals happened).
func (c CoreStats) MeanStealBatch() float64 {
	if c.Steals == 0 {
		return 0
	}
	return float64(c.StolenColors) / float64(c.Steals)
}

// Stats is a whole-runtime snapshot.
//
// Every counter below is CUMULATIVE and MONOTONIC across Snapshot
// calls on one runtime — later snapshots never report smaller values —
// except the rows marked "gauge" (instantaneous, free to move both
// ways) and "estimate". Per-core counters are individually atomic but
// not mutually consistent. The full inventory:
//
//	field                     kind       meaning
//	------------------------  ---------  ----------------------------------------
//	Cores[i].Events           counter    events executed on core i
//	Cores[i].ExecTime         counter    total handler time, incl. gaps between handlers of a run
//	Cores[i].Steals           counter    successful steals by this core
//	Cores[i].RemoteSteals     counter    steals crossing a cache boundary
//	Cores[i].StealAttempts    counter    steal probes (incl. failures)
//	Cores[i].FailedSteals     counter    probes that found nothing
//	Cores[i].StealTime        counter    time in successful steal transactions
//	Cores[i].StolenEvents     counter    migrated events executed here
//	Cores[i].StolenTime       counter    their handler time ("stolen time")
//	Cores[i].StolenColors     counter    colors migrated here by steals
//	Cores[i].StealBatchHist   histogram  colors per steal: 1,2,3–4,5–8,9–16,≥17
//	Cores[i].Parks            counter    idle sleeps
//	Cores[i].BackoffParks     counter    parks shortened by steal backoff
//	Cores[i].PostedHere       counter    enqueues landing on this core
//	Cores[i].BatchedEvents    counter    subset delivered via PostBatch groups
//	Cores[i].ColorQueueChurns counter    ColorQueue link/unlink pairs
//	Cores[i].Panics           counter    handler panics contained
//	Cores[i].Stalls           counter    stall-watchdog episodes on this core
//	Cores[i].Queued           gauge      instantaneous core queue length
//	Cores[i].TimersFired      counter    timers expired by this core's wheel
//	Cores[i].TimerLagHist     histogram  firing lag: ≤100µs,≤1ms,≤2ms,≤10ms,≤100ms,>100ms
//	Cores[i].TimersPending    gauge      armed timers on this core's wheel
//	Cores[i].QueueDelayHist   histogram  sampled post→execute delay (power-of-two)
//	Cores[i].ExecTimeHist     histogram  sampled handler time (power-of-two)
//	Cores[i].TopColorDelays   estimate   top-K per-color sampled delay attribution
//	StealCostEstimate         estimate   monitored cost of one steal
//	Pending                   gauge      posted-but-not-completed events
//	StalledCores              gauge      cores currently stuck past StallThreshold
//	TimersCanceled            counter    firings averted by Cancel
//	PollWakeups               counter    poll wait returns (all sources)
//	PollEvents                counter    readiness events harvested
//	PollBatchHist             histogram  events/wakeup: ≤1,2–4,5–16,17–64,65–256,>256
//	WriteStalls               counter    writes queued on kernel backpressure
//	ReadPauses                counter    read pauses on saturated data colors
//	QueuedEvents              gauge      in-memory queued events, runtime-wide
//	SpilledEvents             counter    events appended to the spill store
//	SpilledBytes              counter    bytes appended to the spill store
//	                                     (headers + payloads, this process)
//	ReloadedEvents            counter    events reloaded from the spill store
//	SpilledNow                gauge      events currently on disk
//	RejectedPosts             counter    posts failed with ErrOverloaded
//	BlockedPosts              counter    posts that waited under OverloadBlock
//	SpillErrors               counter    spill fallbacks (unencodable payload
//	                                     or disk failure; event kept in memory,
//	                                     or — reload failure only — dropped)
//	SpillDepthHist            histogram  disk depth at spill: ≤16,≤64,≤256,≤1k,≤4k,>4k
//	SpillSyncs                counter    msync/fsync durability points issued by
//	                                     the spill store (Config.SpillSync)
//	RecoveredEvents           counter    spilled events recovered from surviving
//	                                     segments at startup (Config.SpillRecover;
//	                                     set once at New, constant afterwards)
//	TornRecords               counter    torn segment tails truncated (or unusable
//	                                     segments discarded) during that recovery
type Stats struct {
	Cores []CoreStats
	// StealCostEstimate is the monitored cost of one steal, the
	// threshold the time-left heuristic steals against.
	StealCostEstimate time.Duration
	// Pending counts posted-but-not-completed events.
	Pending int64
	// StalledCores is the number of cores currently stuck in a handler
	// past Config.StallThreshold, as of the watchdog's last check (0
	// with the watchdog off).
	StalledCores int
	// TimersCanceled counts timer firings averted by Cancel, runtime
	// wide (a cancel is not attributable to one core: the entry may
	// have migrated between wheels since it was armed).
	TimersCanceled int64
	// PollWakeups, PollEvents, PollBatchHist, WriteStalls, and
	// ReadPauses aggregate every registered readiness source
	// (Runtime.AddPollSource): poll wait returns, events harvested, the
	// events-per-wakeup histogram (buckets ≤1, 2–4, 5–16, 17–64,
	// 65–256, >256), writes that hit kernel backpressure and were
	// queued for EPOLLOUT-driven draining, and reads paused because the
	// connection's data color was saturated. All zero when no source is
	// registered (e.g. the pump backend without overload bounds).
	PollWakeups   int64
	PollEvents    int64
	PollBatchHist [PollBatchBuckets]int64
	WriteStalls   int64
	ReadPauses    int64

	// Overload-control counters, all zero on unbounded runtimes.
	// QueuedEvents is the in-memory queued-event gauge the bounds are
	// enforced against; SpilledNow is the on-disk backlog gauge.
	// SpilledEvents/ReloadedEvents count traffic through the spill
	// store (equal once a burst has fully drained); RejectedPosts and
	// BlockedPosts count the Reject and Block policies' interventions;
	// SpillErrors counts spill fallbacks (unencodable payloads and disk
	// failures); SpillDepthHist bins each spilled record's observed
	// per-color disk depth (buckets ≤16, ≤64, ≤256, ≤1024, ≤4096,
	// >4096) — the distribution of how deep the tails run.
	QueuedEvents   int64
	SpilledEvents  int64
	SpilledBytes   int64
	ReloadedEvents int64
	SpilledNow     int64
	RejectedPosts  int64
	BlockedPosts   int64
	SpillErrors    int64
	SpillDepthHist [SpillDepthBuckets]int64

	// Spill durability counters (Config.SpillSync / SpillRecover).
	// SpillSyncs counts the store's msync/fsync durability points;
	// RecoveredEvents is the backlog recovered from surviving segments
	// at New (constant afterwards); TornRecords counts the torn tails
	// recovery truncated (or unusable segments it discarded) getting
	// there — a nonzero value means the previous process died inside
	// an unsynced append, which is exactly the loss window the
	// configured SpillSyncPolicy promises.
	SpillSyncs      int64
	RecoveredEvents int64
	TornRecords     int64
}

// Stats snapshots the runtime's counters. It is safe while running;
// per-core numbers are individually atomic but not mutually consistent.
func (r *Runtime) Stats() Stats {
	s := Stats{
		Cores:             make([]CoreStats, len(r.cores)),
		StealCostEstimate: time.Duration(r.stealMon.Estimate()),
		Pending:           r.pending.Load(),
		StalledCores:      int(r.stalledCores.Load()),
		TimersCanceled:    r.timersCanceled.Load(),
	}
	r.pollMu.Lock()
	poll := r.pollRetired
	sources := make([]func() PollSample, 0, len(r.pollSources))
	for _, sample := range r.pollSources {
		sources = append(sources, sample)
	}
	r.pollMu.Unlock()
	for _, sample := range sources {
		poll.add(sample())
	}
	s.PollWakeups = poll.Wakeups
	s.PollEvents = poll.Events
	s.PollBatchHist = poll.BatchHist
	s.WriteStalls = poll.WriteStalls
	s.ReadPauses = poll.ReadPauses
	if a := r.adm; a != nil {
		s.QueuedEvents = a.queued.Load()
		s.SpilledEvents = a.spilled.Load()
		s.ReloadedEvents = a.reloaded.Load()
		s.RejectedPosts = a.rejected.Load()
		s.BlockedPosts = a.blocked.Load()
		s.SpillErrors = a.spillErrs.Load()
		if a.store != nil {
			s.SpilledNow = a.store.TotalDepth()
			s.SpilledBytes = a.store.AppendedBytes()
			s.SpillSyncs = a.store.Syncs()
			s.RecoveredEvents = a.store.Recovered()
			s.TornRecords = a.store.Torn()
		}
		for b := range s.SpillDepthHist {
			s.SpillDepthHist[b] = a.depthHist[b].Load()
		}
	}
	for i, c := range r.cores {
		cs := CoreStats{
			Queued:        int(c.qlen.Load()),
			TimersPending: c.wheel.Len(),
		}
		for k := range coreCounters {
			*coreCounters[k].field(&cs) = c.stats.ctr[k].Load()
		}
		for b := range cs.StealBatchHist {
			cs.StealBatchHist[b] = c.stats.batchHist[b].Load()
		}
		for b := range cs.TimerLagHist {
			cs.TimerLagHist[b] = c.stats.timerLagHist[b].Load()
		}
		cs.QueueDelayHist.Sum = time.Duration(c.stats.qdelayHist.Load(&cs.QueueDelayHist.Buckets))
		cs.ExecTimeHist.Sum = time.Duration(c.stats.execTimeHist.Load(&cs.ExecTimeHist.Buckets))
		cs.TopColorDelays = c.colorDelays.snapshot()
		s.Cores[i] = cs
	}
	if r.adm == nil {
		// Unbounded runtimes have no admission gauge; sum the per-core
		// mirrors so QueuedEvents is meaningful everywhere.
		var q int64
		for i := range s.Cores {
			q += int64(s.Cores[i].Queued)
		}
		s.QueuedEvents = q
	}
	return s
}

// Total sums the per-core snapshots.
func (s Stats) Total() CoreStats {
	var t CoreStats
	for i := range s.Cores {
		c := &s.Cores[i]
		for k := range coreCounters {
			*coreCounters[k].field(&t) += *coreCounters[k].field(c)
		}
		for b := range c.StealBatchHist {
			t.StealBatchHist[b] += c.StealBatchHist[b]
		}
		for b := range c.TimerLagHist {
			t.TimerLagHist[b] += c.TimerLagHist[b]
		}
		t.Queued += c.Queued
		t.TimersPending += c.TimersPending
		t.QueueDelayHist.merge(c.QueueDelayHist)
		t.ExecTimeHist.merge(c.ExecTimeHist)
		t.TopColorDelays = append(t.TopColorDelays, c.TopColorDelays...)
	}
	t.TopColorDelays = mergeColorDelays(t.TopColorDelays)
	return t
}

// mergeColorDelays folds per-core attribution rows for the same color
// together and orders the result most-sampled first.
func mergeColorDelays(rows []ColorDelay) []ColorDelay {
	if len(rows) == 0 {
		return nil
	}
	byColor := make(map[Color]ColorDelay, len(rows))
	for _, row := range rows {
		agg := byColor[row.Color]
		agg.Color = row.Color
		agg.Samples += row.Samples
		agg.Delay += row.Delay
		byColor[row.Color] = agg
	}
	out := make([]ColorDelay, 0, len(byColor))
	for _, row := range byColor {
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Samples != out[j].Samples {
			return out[i].Samples > out[j].Samples
		}
		return out[i].Color < out[j].Color
	})
	return out
}
