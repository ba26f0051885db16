package obs

import (
	"fmt"
	"math"
	"time"
)

// Anomaly kinds reported by EvaluateHealth. Stable strings: they name
// incident directories and label the mely_anomalies_total counter.
const (
	// AnomalyQueueDelayDrift fires when the current window's queue-delay
	// p99 rises well above its trailing baseline — latency is drifting
	// even if it has not yet crossed an absolute SLO.
	AnomalyQueueDelayDrift = "queue-delay-drift"
	// AnomalyStealImbalance fires when one core's failed-steal +
	// backoff-park rate towers over the other cores' — the steal fabric
	// is spinning against a skewed color distribution.
	AnomalyStealImbalance = "steal-imbalance"
	// AnomalySpillGrowth fires when the on-disk spill backlog grows
	// monotonically across consecutive windows — arrival exceeds drain
	// and the disk FIFO is filling, not absorbing a burst.
	AnomalySpillGrowth = "spill-growth"
	// AnomalyStallRecurrence fires when a core is stalled right now or
	// stall episodes recur across recent windows — a handler (or its
	// dependency) is repeatedly blocking a worker.
	AnomalyStallRecurrence = "stall-recurrence"
)

// Detector thresholds.
const (
	// Queue-delay drift fires when the current window's p99 exceeds
	// driftFactor x the median p99 of up to baselineWindows trailing
	// windows with traffic (at least minBaselineWindows of them), and
	// the whole p99 bucket lies at or above driftFloor. The factor is
	// two histogram buckets — below that is resolution noise — and the
	// floor keeps an idle runtime jumping 500ns -> 4us quiet.
	driftFactor        = 4.0
	driftFloor         = 2 * time.Millisecond
	baselineWindows    = 30
	minBaselineWindows = 3

	// Steal imbalance fires when the hottest core's failed-steal +
	// backoff-park rate exceeds imbalanceFactor x (the other cores'
	// mean + 1) and the absolute imbalanceFloor (events/sec).
	imbalanceFactor = 8
	imbalanceFloor  = 1000

	// Spill growth fires when SpilledNow increased in each of the
	// spillGrowthWindows most recent windows.
	spillGrowthWindows = 4

	// Stall recurrence fires on stallRecurrence episodes within the
	// last stallWindows windows, or at once while a core is stalled.
	stallWindows    = 5
	stallRecurrence = 2
)

// Anomaly is one detector firing: the kind, a human-readable detail,
// and the observed value vs the limit it crossed (unit depends on the
// kind — nanoseconds for drift, events/sec for imbalance, windows for
// growth, episodes for stalls).
type Anomaly struct {
	Kind      string  `json:"kind"`
	Detail    string  `json:"detail"`
	Value     float64 `json:"value"`
	Limit     float64 `json:"limit"`
	WallNanos int64   `json:"wall_nanos"`
}

// HealthReport is one evaluation of the detectors over the retained
// time series. Healthy means no anomaly is currently firing; it says
// nothing about the past (the runtime keeps the cumulative episode
// count separately).
type HealthReport struct {
	Healthy   bool      `json:"healthy"`
	Windows   int       `json:"windows"`
	Anomalies []Anomaly `json:"anomalies,omitempty"`
	// RecommendedMaxQueued is the adaptive-bounds stepping stone: the
	// MaxQueuedEvents that would hold queue delay near the target
	// queue delay at the observed drain rate (Little's law). 0 when no
	// target is set or the window is idle.
	// Recommendation only — nothing enforces it yet.
	RecommendedMaxQueued int64 `json:"recommended_max_queued,omitempty"`
}

// RecommendMaxQueued is the adaptive-bounds recommendation math,
// isolated for testing: by Little's law a queue drained at
// eventsPerSec holds its queueing delay at target when the backlog is
// capped at eventsPerSec x target. Rounded up, floored at 1 so an
// all-but-idle runtime never recommends an unpostable bound; 0 when
// either input is unusable.
func RecommendMaxQueued(eventsPerSec float64, target time.Duration) int64 {
	if eventsPerSec <= 0 || target <= 0 {
		return 0
	}
	n := int64(math.Ceil(eventsPerSec * target.Seconds()))
	if n < 1 {
		n = 1
	}
	return n
}

// EvaluateHealth runs every detector over the samples (oldest first,
// as returned by TimeSeries.Snapshot) and reports what is firing right
// now; a positive targetQueueDelay also computes the MaxQueuedEvents
// recommendation. Pure function of its inputs: the runtime's collector
// owns episode accounting and hook dispatch.
func EvaluateHealth(samples []TSSample, targetQueueDelay time.Duration) HealthReport {
	points := DerivePoints(samples)
	rep := HealthReport{Healthy: true, Windows: len(points)}
	if len(points) == 0 {
		return rep
	}
	cur := &points[len(points)-1]

	if a, ok := detectDrift(points); ok {
		rep.Anomalies = append(rep.Anomalies, a)
	}
	if a, ok := detectImbalance(cur); ok {
		rep.Anomalies = append(rep.Anomalies, a)
	}
	if a, ok := detectSpillGrowth(points); ok {
		rep.Anomalies = append(rep.Anomalies, a)
	}
	if a, ok := detectStalls(points); ok {
		rep.Anomalies = append(rep.Anomalies, a)
	}
	rep.Healthy = len(rep.Anomalies) == 0
	if targetQueueDelay > 0 {
		rep.RecommendedMaxQueued = RecommendMaxQueued(cur.EventsPerSec, targetQueueDelay)
	}
	return rep
}

// detectDrift compares the newest window's queue-delay p99 against the
// median p99 of the trailing windows that saw traffic.
func detectDrift(points []TSPoint) (Anomaly, bool) {
	cur := &points[len(points)-1]
	// The p99 reads as its power-of-two bucket's upper bound, so the
	// bucket starts at half of it: a p99 in the bucket straddling the
	// floor is not yet a drift past it.
	if time.Duration(cur.QDelayP99Nanos/2) < driftFloor {
		return Anomaly{}, false
	}
	trailing := points[:len(points)-1]
	if len(trailing) > baselineWindows {
		trailing = trailing[len(trailing)-baselineWindows:]
	}
	var base []int64
	for i := range trailing {
		if trailing[i].QDelayP99Nanos > 0 {
			base = append(base, trailing[i].QDelayP99Nanos)
		}
	}
	if len(base) < minBaselineWindows {
		return Anomaly{}, false
	}
	baseline := medianInt64(base)
	limit := float64(baseline) * driftFactor
	if float64(cur.QDelayP99Nanos) <= limit {
		return Anomaly{}, false
	}
	return Anomaly{
		Kind: AnomalyQueueDelayDrift,
		Detail: fmt.Sprintf("queue-delay p99 %v vs trailing median %v (factor %.1f)",
			time.Duration(cur.QDelayP99Nanos), time.Duration(baseline), driftFactor),
		Value:     float64(cur.QDelayP99Nanos),
		Limit:     limit,
		WallNanos: cur.WallNanos,
	}, true
}

// detectImbalance checks the newest window's per-core failed-steal +
// backoff-park rates for one core towering over the rest.
func detectImbalance(cur *TSPoint) (Anomaly, bool) {
	if len(cur.Cores) < 2 {
		return Anomaly{}, false
	}
	maxRate, maxCore, sum := 0.0, 0, 0.0
	for i := range cur.Cores {
		r := cur.Cores[i].FailedPerSec + cur.Cores[i].BackoffPerSec
		sum += r
		if r > maxRate {
			maxRate, maxCore = r, i
		}
	}
	if maxRate < imbalanceFloor {
		return Anomaly{}, false
	}
	others := (sum - maxRate) / float64(len(cur.Cores)-1)
	limit := imbalanceFactor * (others + 1)
	if maxRate <= limit {
		return Anomaly{}, false
	}
	return Anomaly{
		Kind: AnomalyStealImbalance,
		Detail: fmt.Sprintf("core %d failed-steal/backoff rate %.0f/s vs %.0f/s mean elsewhere",
			maxCore, maxRate, others),
		Value:     maxRate,
		Limit:     limit,
		WallNanos: cur.WallNanos,
	}, true
}

// detectSpillGrowth fires on a monotonically growing disk backlog
// across the most recent spillGrowthWindows windows.
func detectSpillGrowth(points []TSPoint) (Anomaly, bool) {
	if len(points) < spillGrowthWindows {
		return Anomaly{}, false
	}
	recent := points[len(points)-spillGrowthWindows:]
	prev := int64(-1)
	for i := range recent {
		if prev >= 0 && recent[i].SpilledNow <= prev {
			return Anomaly{}, false
		}
		prev = recent[i].SpilledNow
	}
	// All strictly increasing; growth over a zero base still counts,
	// but the final backlog must be nonzero (it is, by strictness).
	cur := &recent[len(recent)-1]
	return Anomaly{
		Kind: AnomalySpillGrowth,
		Detail: fmt.Sprintf("spill backlog grew %d consecutive windows to %d events on disk",
			spillGrowthWindows, cur.SpilledNow),
		Value:     float64(cur.SpilledNow),
		Limit:     spillGrowthWindows,
		WallNanos: cur.WallNanos,
	}, true
}

// detectStalls fires when a core is stalled right now, or when stall
// episodes reached stallRecurrence across the last stallWindows.
func detectStalls(points []TSPoint) (Anomaly, bool) {
	cur := &points[len(points)-1]
	if cur.StalledCores > 0 {
		return Anomaly{
			Kind:      AnomalyStallRecurrence,
			Detail:    fmt.Sprintf("%d core(s) currently stalled past the watchdog threshold", cur.StalledCores),
			Value:     float64(cur.StalledCores),
			Limit:     0,
			WallNanos: cur.WallNanos,
		}, true
	}
	recent := points
	if len(recent) > stallWindows {
		recent = recent[len(recent)-stallWindows:]
	}
	var episodes int64
	for i := range recent {
		if recent[i].Stalls > 0 {
			episodes += recent[i].Stalls
		}
	}
	if episodes < stallRecurrence {
		return Anomaly{}, false
	}
	return Anomaly{
		Kind: AnomalyStallRecurrence,
		Detail: fmt.Sprintf("%d stall episodes across the last %d windows",
			episodes, len(recent)),
		Value:     float64(episodes),
		Limit:     stallRecurrence,
		WallNanos: cur.WallNanos,
	}, true
}

func medianInt64(v []int64) int64 {
	// Insertion sort: baselines are <= baselineWindows entries.
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
