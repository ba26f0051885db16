package mely

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/melyruntime/mely/internal/obs"
)

// This file is the self-monitoring layer (Config.ObsInterval): the
// collector goroutine that snapshots Stats into the obs.TimeSeries
// ring, the health engine's episode accounting and OnAnomaly dispatch,
// and profile-on-anomaly incident capture (Config.IncidentDir). The
// detectors themselves are pure functions in internal/obs
// (obs.EvaluateHealth); this layer owns the state that must live with
// the runtime — what was firing last evaluation, the cumulative
// episode count, and the capture rate limit.

// Anomaly kind strings, re-exported so callers can switch on
// HealthReport.Anomalies without importing internal packages.
const (
	AnomalyQueueDelayDrift = obs.AnomalyQueueDelayDrift
	AnomalyStealImbalance  = obs.AnomalyStealImbalance
	AnomalySpillGrowth     = obs.AnomalySpillGrowth
	AnomalyStallRecurrence = obs.AnomalyStallRecurrence
)

// Anomaly is one health detector firing: the kind (see the Anomaly*
// constants), a human-readable detail, and the observed value vs the
// limit it crossed (units depend on the kind).
type Anomaly struct {
	Kind   string    `json:"kind"`
	Detail string    `json:"detail"`
	Value  float64   `json:"value"`
	Limit  float64   `json:"limit"`
	At     time.Time `json:"at"`
}

// HealthReport is the runtime's self-assessment, re-evaluated every
// ObsInterval by the collector. Healthy means no detector is firing
// right now; TotalAnomalies counts episode starts over the runtime's
// lifetime (the mely_anomalies_total counter). With the collector
// disabled (ObsInterval 0) the report is Healthy with Enabled false.
type HealthReport struct {
	Enabled bool `json:"enabled"`
	Healthy bool `json:"healthy"`
	// Windows is how many derived windows the detectors saw.
	Windows int `json:"windows"`
	// TotalAnomalies counts fresh anomaly episodes since Start.
	TotalAnomalies int64 `json:"total_anomalies"`
	// RecommendedMaxQueued is the adaptive-bounds recommendation
	// (Config.TargetQueueDelay); 0 when no target is set or the window
	// is idle.
	RecommendedMaxQueued int64 `json:"recommended_max_queued"`
	// Incidents counts captured incident bundles (Config.IncidentDir).
	Incidents int64     `json:"incidents"`
	Anomalies []Anomaly `json:"anomalies,omitempty"`
}

// tsCollector is the per-runtime collector state: the ring and the
// episode bookkeeping. Built by New when Config.ObsInterval > 0.
type tsCollector struct {
	ring     *obs.TimeSeries
	interval time.Duration
	stop     chan struct{}
	stopOnce sync.Once

	// scratch is the reusable sample the collector fills each tick, so
	// steady-state collection allocates only the Stats snapshot.
	// sampleMu serializes ticks: besides the collector goroutine, an
	// incident capture takes one out-of-band tick so the bundle
	// reflects the state at incident time, not the last timer firing.
	sampleMu sync.Mutex
	scratch  obs.TSSample

	mu     sync.Mutex
	report obs.HealthReport
	firing map[string]bool

	anomalies atomic.Int64
}

// newCollector sizes the ring for the runtime.
func newCollector(r *Runtime) *tsCollector {
	return &tsCollector{
		ring:     obs.NewTimeSeries(r.cfg.ObsHistory, len(r.cores), r.cfg.ObsInterval),
		interval: r.cfg.ObsInterval,
		stop:     make(chan struct{}),
		firing:   make(map[string]bool),
		scratch:  obs.TSSample{Cores: make([]obs.TSCore, len(r.cores))},
	}
}

// collectorLoop is the collector goroutine: one Stats snapshot, ring
// append, and health evaluation per ObsInterval. Started by Start,
// stopped by Stop through the collector's stop channel.
func (r *Runtime) collectorLoop(col *tsCollector) {
	defer r.wg.Done()
	t := time.NewTicker(col.interval)
	defer t.Stop()
	for {
		select {
		case <-col.stop:
			return
		case <-t.C:
		}
		r.collectTick(col)
	}
}

// collectTick takes one sample and re-evaluates health.
func (r *Runtime) collectTick(col *tsCollector) {
	col.sampleMu.Lock()
	s := r.Stats()
	fillSample(&col.scratch, s, time.Now().UnixNano(), r.now())
	col.ring.Append(&col.scratch)
	col.sampleMu.Unlock()
	r.evaluateHealth(col)
}

// evaluateHealth runs the detectors over the ring and owns the
// episode accounting: a kind that was not firing at the previous
// evaluation is a fresh episode — counted once, dispatched once.
func (r *Runtime) evaluateHealth(col *tsCollector) {
	rep := obs.EvaluateHealth(col.ring.Snapshot(nil), r.cfg.TargetQueueDelay)

	col.mu.Lock()
	var fresh []string
	for _, a := range rep.Anomalies {
		if !col.firing[a.Kind] {
			fresh = append(fresh, a.Kind)
		}
	}
	for k := range col.firing {
		delete(col.firing, k)
	}
	for _, a := range rep.Anomalies {
		col.firing[a.Kind] = true
	}
	col.report = rep
	col.mu.Unlock()

	if len(fresh) == 0 {
		return
	}
	col.anomalies.Add(int64(len(fresh)))
	if hook := r.cfg.OnAnomaly; hook != nil {
		hook(r.Health())
		return
	}
	if r.cfg.IncidentDir != "" {
		// Hand the capture the report it fired under: a transient
		// anomaly (a rate detector flapping back under its threshold)
		// must still land in the bundle's health.json.
		trigger := r.healthFrom(rep, col)
		r.captureIncidentAsync(fresh[0], &trigger)
	}
}

// fillSample flattens a Stats snapshot into a TSSample, reusing the
// sample's Cores backing array.
func fillSample(dst *obs.TSSample, s Stats, wall, mono int64) {
	t := s.Total()
	cores := dst.Cores
	*dst = obs.TSSample{
		WallNanos: wall,
		MonoNanos: mono,

		Events:         t.Events,
		Posts:          t.PostedHere,
		ExecNanos:      t.ExecTime.Nanoseconds(),
		Steals:         t.Steals,
		StealAttempts:  t.StealAttempts,
		FailedSteals:   t.FailedSteals,
		SpilledEvents:  s.SpilledEvents,
		ReloadedEvents: s.ReloadedEvents,
		SpilledBytes:   s.SpilledBytes,
		RejectedPosts:  s.RejectedPosts,
		Panics:         t.Panics,
		Stalls:         t.Stalls,
		TimersFired:    t.TimersFired,

		QueuedEvents: s.QueuedEvents,
		SpilledNow:   s.SpilledNow,
		StalledCores: int64(s.StalledCores),

		QDelay: t.QueueDelayHist.Buckets,
		Exec:   t.ExecTimeHist.Buckets,
	}
	if cap(cores) < len(s.Cores) {
		cores = make([]obs.TSCore, len(s.Cores))
	}
	cores = cores[:len(s.Cores)]
	for i, c := range s.Cores {
		cores[i] = obs.TSCore{
			Events:        c.Events,
			ExecNanos:     c.ExecTime.Nanoseconds(),
			Steals:        c.Steals,
			StealAttempts: c.StealAttempts,
			FailedSteals:  c.FailedSteals,
			BackoffParks:  c.BackoffParks,
			Stalls:        c.Stalls,
			Queued:        int64(c.Queued),
		}
	}
	dst.Cores = cores
}

// Health reports the runtime's current self-assessment. With the
// collector disabled (Config.ObsInterval 0) the report is Healthy
// with Enabled false — a runtime that is not watching itself makes no
// claims either way.
func (r *Runtime) Health() HealthReport {
	col := r.collector
	if col == nil {
		return HealthReport{Enabled: false, Healthy: true, Incidents: r.incidents.Load()}
	}
	col.mu.Lock()
	rep := col.report
	col.mu.Unlock()
	return r.healthFrom(rep, col)
}

// healthFrom converts one detector evaluation into the public report.
func (r *Runtime) healthFrom(rep obs.HealthReport, col *tsCollector) HealthReport {
	out := HealthReport{
		Enabled:              true,
		Healthy:              rep.Healthy,
		Windows:              rep.Windows,
		TotalAnomalies:       col.anomalies.Load(),
		RecommendedMaxQueued: rep.RecommendedMaxQueued,
		Incidents:            r.incidents.Load(),
	}
	if len(rep.Anomalies) > 0 {
		out.Anomalies = make([]Anomaly, len(rep.Anomalies))
		for i, a := range rep.Anomalies {
			out.Anomalies[i] = Anomaly{
				Kind:   a.Kind,
				Detail: a.Detail,
				Value:  a.Value,
				Limit:  a.Limit,
				At:     time.Unix(0, a.WallNanos),
			}
		}
	}
	return out
}

// WriteHealth renders the current health report as JSON and reports
// whether the runtime is healthy — the obs.MuxConfig.Health callback
// behind /debug/health (200 when healthy, 503 when not).
func (r *Runtime) WriteHealth(w io.Writer) (healthy bool, err error) {
	rep := r.Health()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return rep.Healthy, enc.Encode(rep)
}

// WriteTimeSeries renders the retained metrics time series as JSON —
// the obs.MuxConfig.TimeSeries callback behind /debug/timeseries.
// With the collector disabled it renders an empty document.
func (r *Runtime) WriteTimeSeries(w io.Writer) error {
	col := r.collector
	if col == nil {
		_, err := io.WriteString(w, `{"interval_seconds":0,"history":0,"samples":0,"points":[]}`+"\n")
		return err
	}
	return col.ring.WriteJSON(w)
}

// errNoIncidentDir reports CaptureIncident without Config.IncidentDir.
var errNoIncidentDir = errors.New("mely: no IncidentDir configured")

// CaptureIncident synchronously captures one evidence bundle into a
// fresh timestamped subdirectory of Config.IncidentDir and returns its
// path: health.json (current report), timeseries.json (retained
// window), trace.json (flight recorder), and cpu.pprof (a bounded CPU
// profile burst). The profile step is skipped — the bundle still
// written — if another CPU profile is already running. Reason tags the
// directory name; it is sanitized to [a-z0-9-].
func (r *Runtime) CaptureIncident(reason string) (string, error) {
	return r.captureIncidentReport(reason, r.Health())
}

// captureIncidentReport writes the bundle with the given health report
// — the report the trigger fired under, which may already differ from
// a fresh evaluation by the time the bundle is written.
func (r *Runtime) captureIncidentReport(reason string, rep HealthReport) (string, error) {
	base := r.cfg.IncidentDir
	if base == "" {
		return "", errNoIncidentDir
	}
	stamp := time.Now().UTC().Format("20060102-150405.000000000")
	dir := filepath.Join(base, "incident-"+stamp+"-"+sanitizeReason(reason))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("mely: incident dir: %w", err)
	}
	writeFile := func(name string, render func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		rerr := render(f)
		cerr := f.Close()
		if rerr != nil {
			return rerr
		}
		return cerr
	}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	note(writeFile("health.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}))
	note(writeFile("timeseries.json", r.WriteTimeSeries))
	note(writeFile("trace.json", r.DumpTrace))
	note(writeFile("cpu.pprof", func(w io.Writer) error {
		if err := pprof.StartCPUProfile(w); err != nil {
			// Another profile is running (e.g. an operator's
			// /debug/pprof/profile): keep the rest of the bundle.
			return nil
		}
		time.Sleep(r.incidentProfileDur())
		pprof.StopCPUProfile()
		return nil
	}))
	r.incidents.Add(1)
	return dir, firstErr
}

// incidentProfileDur bounds the profile burst: the obs interval
// clamped to [100ms, 1s], or 250ms when the collector is off (a
// stall-triggered capture on a collector-less runtime).
func (r *Runtime) incidentProfileDur() time.Duration {
	d := r.cfg.ObsInterval
	if d <= 0 {
		return 250 * time.Millisecond
	}
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// captureIncidentAsync is the rate-limited trigger path shared by the
// health collector and the stall watchdog: at most one capture in
// flight, at most one per Config.IncidentMinGap. Suppressed triggers
// are dropped (the episode is still counted in TotalAnomalies). rep
// is the report the trigger fired under; nil (the watchdog path, which
// has no evaluation of its own) takes a fresh out-of-band collector
// tick first, so the bundle still reflects the state at incident time
// — that tick's own anomaly dispatch is suppressed by incidentBusy.
func (r *Runtime) captureIncidentAsync(reason string, rep *HealthReport) {
	r.incidentMu.Lock()
	gap := r.cfg.IncidentMinGap
	if r.incidentBusy || (gap > 0 && !r.lastIncident.IsZero() && time.Since(r.lastIncident) < gap) {
		r.incidentMu.Unlock()
		return
	}
	r.incidentBusy = true
	r.lastIncident = time.Now()
	r.incidentMu.Unlock()
	go func() {
		if rep == nil {
			if col := r.collector; col != nil {
				r.collectTick(col)
			}
			hr := r.Health()
			rep = &hr
		}
		_, _ = r.captureIncidentReport(reason, *rep)
		r.incidentMu.Lock()
		r.incidentBusy = false
		r.incidentMu.Unlock()
	}()
}

// sanitizeReason maps an anomaly kind (or free-form reason) to a
// directory-name-safe slug.
func sanitizeReason(reason string) string {
	var b strings.Builder
	for _, c := range strings.ToLower(reason) {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
			b.WriteRune(c)
		default:
			b.WriteRune('-')
		}
	}
	s := strings.Trim(b.String(), "-")
	if s == "" {
		return "manual"
	}
	return s
}
