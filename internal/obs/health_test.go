package obs

import (
	"strings"
	"testing"
	"time"
)

// rampSamples builds n+1 samples 1s apart with a steady event rate, so
// detectors see a quiet baseline; mutate builds anomalies on top.
func rampSamples(n int, mutate func(i int, s *TSSample)) []TSSample {
	samples := make([]TSSample, n+1)
	for i := range samples {
		s := &samples[i]
		s.MonoNanos = int64(i) * 1e9
		s.WallNanos = 1700000000e9 + s.MonoNanos
		s.Events = int64(i) * 10000
		s.Posts = s.Events
		// Steady sampled queue delay in bucket 6 (~8-16us).
		s.QDelay[6] = int64(i) * 100
		s.Cores = []TSCore{
			{Events: s.Events / 2, FailedSteals: int64(i) * 10},
			{Events: s.Events / 2, FailedSteals: int64(i) * 10},
		}
		if mutate != nil {
			mutate(i, s)
		}
	}
	return samples
}

func kinds(rep HealthReport) []string {
	var out []string
	for _, a := range rep.Anomalies {
		out = append(out, a.Kind)
	}
	return out
}

func hasKind(rep HealthReport, kind string) bool {
	for _, a := range rep.Anomalies {
		if a.Kind == kind {
			return true
		}
	}
	return false
}

func TestHealthyBaseline(t *testing.T) {
	rep := EvaluateHealth(rampSamples(20, nil), 0)
	if !rep.Healthy {
		t.Fatalf("steady baseline unhealthy: %v", kinds(rep))
	}
	if rep.Windows != 20 {
		t.Fatalf("windows = %d, want 20", rep.Windows)
	}
}

func TestHealthEmptyAndSingleSample(t *testing.T) {
	if rep := EvaluateHealth(nil, 0); !rep.Healthy || rep.Windows != 0 {
		t.Fatalf("empty series: %+v", rep)
	}
	one := rampSamples(0, nil)
	if rep := EvaluateHealth(one, 0); !rep.Healthy || rep.Windows != 0 {
		t.Fatalf("single sample: %+v", rep)
	}
}

func TestQueueDelayDriftDetector(t *testing.T) {
	// Baseline p99 in bucket 6 (~16us); final window jumps to bucket 24
	// (~4s) — far past both the factor and the absolute floor.
	samples := rampSamples(20, func(i int, s *TSSample) {
		if i == 20 {
			s.QDelay[24] = s.QDelay[6] // += a full window of slow samples
		}
	})
	rep := EvaluateHealth(samples, 0)
	if !hasKind(rep, AnomalyQueueDelayDrift) {
		t.Fatalf("drift not detected: %v", kinds(rep))
	}
	for _, a := range rep.Anomalies {
		if a.Kind == AnomalyQueueDelayDrift {
			if a.Value <= a.Limit {
				t.Fatalf("drift anomaly value %v <= limit %v", a.Value, a.Limit)
			}
			if !strings.Contains(a.Detail, "p99") {
				t.Fatalf("drift detail %q lacks context", a.Detail)
			}
		}
	}

	// The same jump below the absolute floor must NOT fire: an idle
	// runtime drifting between microsecond buckets is resolution noise.
	quiet := rampSamples(20, func(i int, s *TSSample) {
		s.QDelay[6] = 0
		s.QDelay[1] = int64(i) * 100 // ~512ns baseline
		if i == 20 {
			s.QDelay[8] = 100 // jump to ~64us, still < 2ms floor
		}
	})
	rep = EvaluateHealth(quiet, 0)
	if hasKind(rep, AnomalyQueueDelayDrift) {
		t.Fatalf("sub-floor drift fired: %v", kinds(rep))
	}

	// The floor is bucket-aligned: drift fires only when the whole p99
	// bucket lies at or above 2ms. Bucket 13 ([1.05ms, 2.10ms))
	// straddles the floor and must stay quiet; bucket 14 ([2.10ms,
	// 4.19ms)) lies wholly past it and must fire.
	for _, c := range []struct {
		bucket int
		fire   bool
	}{{12, false}, {13, false}, {14, true}} {
		jump := rampSamples(20, func(i int, s *TSSample) {
			if i == 20 {
				s.QDelay[c.bucket] = s.QDelay[6]
			}
		})
		if got := hasKind(EvaluateHealth(jump, 0), AnomalyQueueDelayDrift); got != c.fire {
			t.Errorf("p99 jump to bucket %d (up to %v): drift fired = %v, want %v",
				c.bucket, time.Duration(LatencyUpperNanos(c.bucket)), got, c.fire)
		}
	}
}

func TestStealImbalanceDetector(t *testing.T) {
	// Core 0 fails 50k steals in the final window; core 1 stays quiet.
	samples := rampSamples(10, func(i int, s *TSSample) {
		if i == 10 {
			s.Cores[0].FailedSteals += 50000
		}
	})
	rep := EvaluateHealth(samples, 0)
	if !hasKind(rep, AnomalyStealImbalance) {
		t.Fatalf("imbalance not detected: %v", kinds(rep))
	}

	// Symmetric failure volume is overload, not imbalance.
	even := rampSamples(10, func(i int, s *TSSample) {
		if i == 10 {
			s.Cores[0].FailedSteals += 50000
			s.Cores[1].FailedSteals += 50000
		}
	})
	rep = EvaluateHealth(even, 0)
	if hasKind(rep, AnomalyStealImbalance) {
		t.Fatalf("symmetric failed steals fired imbalance: %v", kinds(rep))
	}

	// Below the absolute floor nothing fires, whatever the skew.
	tiny := rampSamples(10, func(i int, s *TSSample) {
		if i == 10 {
			s.Cores[0].FailedSteals += 500
		}
	})
	rep = EvaluateHealth(tiny, 0)
	if hasKind(rep, AnomalyStealImbalance) {
		t.Fatalf("sub-floor skew fired imbalance: %v", kinds(rep))
	}
}

func TestSpillGrowthDetector(t *testing.T) {
	// Backlog grows every window across the whole tail.
	samples := rampSamples(10, func(i int, s *TSSample) {
		s.SpilledNow = int64(i) * 1000
	})
	rep := EvaluateHealth(samples, 0)
	if !hasKind(rep, AnomalySpillGrowth) {
		t.Fatalf("spill growth not detected: %v", kinds(rep))
	}

	// A draining backlog (sawtooth) must not fire.
	saw := rampSamples(10, func(i int, s *TSSample) {
		s.SpilledNow = int64((i % 3) * 1000)
	})
	rep = EvaluateHealth(saw, 0)
	if hasKind(rep, AnomalySpillGrowth) {
		t.Fatalf("sawtooth backlog fired spill growth: %v", kinds(rep))
	}
}

func TestStallDetector(t *testing.T) {
	// A currently-stalled core fires immediately, first window.
	now := rampSamples(3, func(i int, s *TSSample) {
		if i == 3 {
			s.StalledCores = 1
		}
	})
	rep := EvaluateHealth(now, 0)
	if !hasKind(rep, AnomalyStallRecurrence) {
		t.Fatalf("live stall not detected: %v", kinds(rep))
	}

	// Recurrence: two episodes across recent windows, none live.
	recur := rampSamples(10, func(i int, s *TSSample) {
		if i >= 7 {
			s.Stalls = 1
		}
		if i >= 9 {
			s.Stalls = 2
		}
	})
	rep = EvaluateHealth(recur, 0)
	if !hasKind(rep, AnomalyStallRecurrence) {
		t.Fatalf("stall recurrence not detected: %v", kinds(rep))
	}

	// One lone episode long ago is not recurrence.
	lone := rampSamples(10, func(i int, s *TSSample) {
		if i >= 2 {
			s.Stalls = 1
		}
	})
	rep = EvaluateHealth(lone, 0)
	if hasKind(rep, AnomalyStallRecurrence) {
		t.Fatalf("single old stall fired recurrence: %v", kinds(rep))
	}
}

func TestRecommendMaxQueued(t *testing.T) {
	cases := []struct {
		rate   float64
		target time.Duration
		want   int64
	}{
		// Little's law: N = rate x target.
		{50000, 10 * time.Millisecond, 500},
		{100000, time.Millisecond, 100},
		{333333, 3 * time.Millisecond, 1000},
		// Rounding up, floored at 1.
		{10, time.Millisecond, 1},
		{1500, time.Millisecond, 2},
		// Unusable inputs.
		{0, time.Millisecond, 0},
		{-5, time.Millisecond, 0},
		{1000, 0, 0},
		{1000, -time.Second, 0},
	}
	for _, c := range cases {
		if got := RecommendMaxQueued(c.rate, c.target); got != c.want {
			t.Errorf("RecommendMaxQueued(%v, %v) = %d, want %d", c.rate, c.target, got, c.want)
		}
	}
}

func TestEvaluateHealthRecommendation(t *testing.T) {
	samples := rampSamples(5, nil) // 10k events/s
	rep := EvaluateHealth(samples, 5*time.Millisecond)
	if rep.RecommendedMaxQueued != 50 {
		t.Fatalf("recommended = %d, want 50 (10k/s x 5ms)", rep.RecommendedMaxQueued)
	}
	rep = EvaluateHealth(samples, 0)
	if rep.RecommendedMaxQueued != 0 {
		t.Fatalf("recommended without target = %d, want 0", rep.RecommendedMaxQueued)
	}
}
