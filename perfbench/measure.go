package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/melyruntime/mely"
)

// epoch anchors every stamp the benchmark takes; nowNs is monotonic.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// cpuNs is the process's user+sys CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// hostTicks returns the machine's stolen and total CPU ticks from
// /proc/stat: the time the hypervisor ran something else while this
// machine's CPUs wanted to run.
func hostTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i == 7 {
			steal = v
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
	}
	return steal, total
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM). Where that is not allowed the mark covers the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark since the last reset.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// Indices into counters: the cumulative Runtime.Stats figures the
// per-layer metrics use, flattened so that windows subtract and add
// them in one loop.
const (
	cEvents = iota
	cExecNs
	cSteals
	cStealAttempts
	cStealNs
	cStolenEvents
	cStolenNs
	cStolenColors
	cParks
	cBackoffParks
	cTimersFired
	cPollWakeups
	cPollEvents
	cWriteStalls
	cSpilled
	cSpilledBytes
	cReloaded
	cSpillErrors
	cQueueDelay                                     // mely.LatencyBuckets entries
	cExecHist   = cQueueDelay + mely.LatencyBuckets // mely.LatencyBuckets entries
	cSpillDepth = cExecHist + mely.LatencyBuckets   // mely.SpillDepthBuckets entries
	nCounters   = cSpillDepth + mely.SpillDepthBuckets
)

type counters [nCounters]int64

func countersOf(s mely.Stats) counters {
	t := s.Total()
	c := counters{
		cEvents: t.Events, cExecNs: int64(t.ExecTime),
		cSteals: t.Steals, cStealAttempts: t.StealAttempts, cStealNs: int64(t.StealTime),
		cStolenEvents: t.StolenEvents, cStolenNs: int64(t.StolenTime), cStolenColors: t.StolenColors,
		cParks: t.Parks, cBackoffParks: t.BackoffParks, cTimersFired: t.TimersFired,
		cPollWakeups: s.PollWakeups, cPollEvents: s.PollEvents, cWriteStalls: s.WriteStalls,
		cSpilled: s.SpilledEvents, cSpilledBytes: s.SpilledBytes, cReloaded: s.ReloadedEvents,
		cSpillErrors: s.SpillErrors,
	}
	copy(c[cQueueDelay:], t.QueueDelayHist.Buckets[:])
	copy(c[cExecHist:], t.ExecTimeHist.Buckets[:])
	copy(c[cSpillDepth:], s.SpillDepthHist[:])
	return c
}

// sample is one snapshot of every counter source at a window boundary.
type sample struct {
	at           int64
	cpu          int64
	ops          int64
	mallocs      uint64
	gcs          uint32
	ctr          counters
	timersArmed  int   // the TimersPending gauge
	steal, ticks int64 // hostTicks
}

func takeSample(rt *mely.Runtime, ops *atomic.Int64) sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := rt.Stats()
	steal, ticks := hostTicks()
	return sample{
		steal: steal, ticks: ticks,
		at: nowNs(), cpu: cpuNs(), ops: ops.Load(),
		mallocs: ms.Mallocs, gcs: ms.NumGC,
		ctr: countersOf(st), timersArmed: st.Total().TimersPending,
	}
}

// phase is the shared measurement state: the current window index
// (negative while warming up or stopping, so nothing is recorded) and
// whether the benchmark records spans in it.
type phase struct {
	win     atomic.Int32
	tracing atomic.Bool
	ops     atomic.Int64 // verified operations completed
}

func newPhase() *phase {
	p := &phase{}
	p.win.Store(-1)
	return p
}

// window is one measured second.
type window struct {
	traced bool
	s0, s1 sample
}

func (w window) seconds() float64 { return float64(w.s1.at-w.s0.at) / 1e9 }
func (w window) ops() int64       { return w.s1.ops - w.s0.ops }

// stealShare is the share of the machine's CPU time the hypervisor
// took away during the window.
func (w window) stealShare() float64 {
	return ratio(float64(w.s1.steal-w.s0.steal), float64(w.s1.ticks-w.s0.ticks))
}

// A run measures its --seconds one-second windows in segments of up
// to segmentWindows windows, each on a freshly set-up runtime after a
// warm-up that lets connections open, pools fill and the steal-cost
// estimate settle. The rate of one runtime instance can differ from
// the next by a fifth, so a run that samples several instances is
// steadier than one that samples one.
const (
	segmentWindows = 4
	segmentWarmup  = 500 * time.Millisecond
	// setupTarget is the least number of set-ups a run times; setup_s
	// is their median, which steadies a sub-millisecond figure.
	setupTarget = 15
)

// instance is one set-up runtime with the workload's handlers.
type instance interface {
	runtime() *mely.Runtime
	teardown()
}

// segments is what runSegments measured: the windows, every set-up
// time and each segment's peak resident set.
type segments struct {
	ws     []window
	setups []float64
	rss    []float64
}

// runSegments measures o.seconds windows. For each segment it sets the
// workload up several times (timing each and tearing down all but the
// last), starts the load, warms up, measures, stops the load, calls
// done with the segment's window range and tears the instance down. In
// traced runs every second window records spans, so the untraced
// windows between them give the tracing overhead on the same load.
func runSegments(o options, p *phase, setup func() (instance, error), start func(instance) (stop func()), done func(from, to int)) (segments, error) {
	nseg := (o.seconds + segmentWindows - 1) / segmentWindows
	perSeg := (setupTarget + nseg - 1) / nseg
	ws := make([]window, 0, o.seconds)
	var setups, rss []float64
	for seg := 0; seg < nseg; seg++ {
		var inst instance
		for k := 0; k < perSeg; k++ {
			if inst != nil {
				inst.teardown()
			}
			t := time.Now()
			x, err := setup()
			if err != nil {
				if x != nil {
					x.teardown()
				}
				return segments{}, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t).Seconds())
			inst = x
		}
		runtime.GC() // the discarded instances are not the measured load
		resetPeakRSS()
		stop := start(inst)
		time.Sleep(segmentWarmup)
		rt := inst.runtime()
		prev := takeSample(rt, &p.ops)
		base, from := prev.at, len(ws)
		for k := 0; k < segmentWindows && len(ws) < o.seconds; k++ {
			i := len(ws)
			traced := o.trace && (i%2 == 1 || o.seconds == 1)
			p.tracing.Store(traced)
			p.win.Store(int32(i))
			time.Sleep(time.Duration(base + int64(k+1)*int64(time.Second) - nowNs()))
			cur := takeSample(rt, &p.ops)
			ws = append(ws, window{traced: traced, s0: prev, s1: cur})
			prev = cur
		}
		p.win.Store(-1)
		p.tracing.Store(false)
		rss = append(rss, peakRSSMB())
		stop()
		done(from, len(ws))
		inst.teardown()
	}
	return segments{ws: ws, setups: setups, rss: rss}, nil
}

// startLoop runs loop in a goroutine until the returned stop function
// is called; stop waits for loop to return.
func startLoop(loop func(stop *atomic.Bool)) (stop func()) {
	var flag atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		loop(&flag)
	}()
	return func() {
		flag.Store(true)
		<-done
	}
}

// delta is the sum of the windows sumWindows selects.
type delta struct {
	secs    float64
	ops     int64
	cpu     int64
	mallocs uint64
	gcs     uint32
	ctr     counters
}

func sumWindows(ws []window, keep func(window) bool) delta {
	var d delta
	for _, w := range ws {
		if !keep(w) {
			continue
		}
		d.secs += w.seconds()
		d.ops += w.ops()
		d.cpu += w.s1.cpu - w.s0.cpu
		d.mallocs += w.s1.mallocs - w.s0.mallocs
		d.gcs += w.s1.gcs - w.s0.gcs
		for i := range d.ctr {
			d.ctr[i] += w.s1.ctr[i] - w.s0.ctr[i]
		}
	}
	return d
}

func untraced(w window) bool { return !w.traced }
func traced(w window) bool   { return w.traced }

// quantile interpolates between the closest ranks of the sorted
// samples (0 for none), so it keeps every digit the samples carry.
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies collects one goroutine's per-window samples in ns.
type latencies [][]int64

func newLatencies(windows int) latencies { return make(latencies, windows) }

func (l latencies) add(win int32, ns int64) {
	if win >= 0 && int(win) < len(l) {
		l[win] = append(l[win], ns)
	}
}

// merged returns the sorted samples of the windows keep selects,
// across every collector.
func merged(ls []latencies, ws []window, keep func(window) bool) []int64 {
	var out []int64
	for _, l := range ls {
		for i, s := range l {
			if keep(ws[i]) {
				out = append(out, s...)
			}
		}
	}
	slices.Sort(out)
	return out
}

// sampleEvery keeps one per-event sample in this many where a traced
// run would otherwise hold millions of them.
const sampleEvery = 16

// latSummary keeps each window's latency quantiles, so that the
// samples can be released when their segment ends.
type latSummary struct{ p50, p99 []float64 }

func newLatSummary(windows int) *latSummary {
	return &latSummary{p50: make([]float64, windows), p99: make([]float64, windows)}
}

// fold summarizes windows [from, to) of ls and releases their samples.
func (s *latSummary) fold(ls []latencies, from, to int) {
	for i := from; i < to; i++ {
		w := windowSamples(ls, i)
		s.p50[i], s.p99[i] = quantile(w, 0.50), quantile(w, 0.99)
		for _, l := range ls {
			l[i] = nil
		}
	}
}

// windowSamples returns window i's sorted samples across every collector.
func windowSamples(ls []latencies, i int) []int64 {
	var out []int64
	for _, l := range ls {
		out = append(out, l[i]...)
	}
	slices.Sort(out)
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
