package main

import (
	"cmp"
	"math"
	"runtime"
	"slices"

	"github.com/melyruntime/mely"
)

// endToEnd reports the metrics a user of the system sees, from the
// untraced windows the hypervisor disturbed least (see quietWindows).
// Disturbances from other tenants of a shared host only ever slow a
// window down, and on the development host they last tens of seconds,
// so a run's timing figures are the quartile of those windows' values
// on the better side: the upper quartile of the rate, the lower
// quartile of CPU per operation and of the latency percentiles. A
// change in the program moves every window, so it moves that quartile
// too. rss_peak_mb is the median of the segments' peaks.
func endToEnd(rep *report, seg segments, lat *latSummary) {
	var rates, cpus, p50s, p99s []float64
	quiet := quietWindows(seg.ws)
	for _, i := range quiet {
		w := seg.ws[i]
		rates = append(rates, ratio(float64(w.ops()), w.seconds()))
		cpus = append(cpus, ratio(float64(w.s1.cpu-w.s0.cpu), float64(w.ops()))/1e3)
		p50s = append(p50s, lat.p50[i]/1e3)
		p99s = append(p99s, lat.p99[i]/1e3)
	}
	better := func(xs []float64, q float64) float64 {
		s := slices.Clone(xs)
		slices.Sort(s)
		return quantile(s, q)
	}
	rep.setE2E("setup_s", median(seg.setups))
	rep.setE2E("ops_per_s", better(rates, 0.75))
	rep.setE2E("lat_p50_us", better(p50s, 0.25))
	rep.setE2E("lat_p99_us", better(p99s, 0.25))
	rep.setE2E("cpu_us_per_op", better(cpus, 0.25))
	rep.setE2E("rss_peak_mb", median(seg.rss))
	var all, steal []float64
	for _, w := range seg.ws {
		all = append(all, ratio(float64(w.ops()), w.seconds()))
		steal = append(steal, w.stealShare())
	}
	rep.params["window_ops_per_s"] = all
	rep.params["window_steal_share"] = steal
	rep.params["quiet_windows"] = quiet
	rep.params["setup_s_all"] = seg.setups
	rep.params["segment_rss_mb"] = seg.rss
	rep.params["measured_ops"] = sumWindows(seg.ws, untraced).ops
}

// stealSlack is how much more of the machine's CPU time the hypervisor
// may take in a window than in the run's quietest one for the window
// to count as quiet.
const stealSlack = 0.02

// quietWindows returns the indices of the untraced windows whose steal
// share is within stealSlack of the quietest one, and at least a
// quarter of the untraced windows, least disturbed first. On a quiet
// host, or one that is busy all run long, that is every window.
func quietWindows(ws []window) []int {
	var idx []int
	for i, w := range ws {
		if !w.traced {
			idx = append(idx, i)
		}
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(ws[a].stealShare(), ws[b].stealShare()) })
	if len(idx) == 0 {
		return idx
	}
	n := 0
	for n < len(idx) && ws[idx[n]].stealShare() <= ws[idx[0]].stealShare()+stealSlack {
		n++
	}
	return idx[:max(n, (len(idx)+3)/4)]
}

// statsLayers reports the per-layer metrics derived from deltas of
// Runtime.Stats, runtime.MemStats and getrusage over the untraced
// windows, so the benchmark's own tracing does not colour them.
func statsLayers(rep *report, ws []window) {
	d := sumWindows(ws, untraced)
	c := func(i int) float64 { return float64(d.ctr[i]) }
	ev, ops := c(cEvents), float64(d.ops)
	var qd, ex mely.LatencySnapshot
	copy(qd.Buckets[:], d.ctr[cQueueDelay:])
	copy(ex.Buckets[:], d.ctr[cExecHist:])
	var depth [mely.SpillDepthBuckets]int64
	copy(depth[:], d.ctr[cSpillDepth:])
	timersArmed := 0
	for _, w := range ws {
		timersArmed = max(timersArmed, w.s0.timersArmed, w.s1.timersArmed)
	}

	rep.setLayer("sched.overhead_ns_per_event", ratio(float64(d.cpu)-c(cExecNs), ev))
	rep.setLayer("sched.parks_per_kevent", 1e3*ratio(c(cParks), ev))
	rep.setLayer("sched.backoff_park_share", ratio(c(cBackoffParks), c(cParks)))
	rep.setLayer("sched.events_per_op", ratio(ev, ops))
	rep.setLayer("sched.server_queue_delay_p99_us", float64(qd.Quantile(0.99))/1e3)
	rep.setLayer("sched.server_exec_p99_us", float64(ex.Quantile(0.99))/1e3)

	rep.setLayer("steal.attempts_per_kevent", 1e3*ratio(c(cStealAttempts), ev))
	rep.setLayer("steal.success_ratio", ratio(c(cSteals), c(cStealAttempts)))
	rep.setLayer("steal.colors_per_steal", ratio(c(cStolenColors), c(cSteals)))
	rep.setLayer("steal.stolen_event_share", ratio(c(cStolenEvents), ev))
	rep.setLayer("steal.cost_ns", ratio(c(cStealNs), c(cSteals)))
	rep.setLayer("steal.stolen_per_cost", ratio(c(cStolenNs), c(cStealNs)))
	rep.setLayer("steal.thief_busy_share", ratio(c(cStolenNs)/1e9, d.secs*float64(runtime.NumCPU())))

	rep.setLayer("netpoll.events_per_wakeup", ratio(c(cPollEvents), c(cPollWakeups)))
	rep.setLayer("netpoll.wakeups_per_req", ratio(c(cPollWakeups), ops))
	rep.setLayer("netpoll.write_stalls", c(cWriteStalls))

	rep.setLayer("timer.pending_peak", float64(timersArmed))
	rep.setLayer("timer.fired_per_s", ratio(c(cTimersFired), d.secs))

	rep.setLayer("adm.spilled_share", ratio(c(cSpilled), ops))
	rep.setLayer("adm.reload_ratio", ratio(c(cReloaded), c(cSpilled)))
	rep.setLayer("spill.bytes_per_event", ratio(c(cSpilledBytes), c(cSpilled)))
	rep.setLayer("spill.depth_p99", spillDepthQuantile(depth, 0.99))
	rep.setLayer("spill.errors", c(cSpillErrors))

	rep.setLayer("go.allocs_per_op", ratio(float64(d.mallocs), ops))
	rep.setLayer("go.gc_cycles_per_kop", 1e3*ratio(float64(d.gcs), ops))
	rep.setLayer("check.fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)))
}

// eventLayers reports the post and queue-wait percentiles and the
// handler body mean from the benchmark's own stamps.
func eventLayers(rep *report, ws []window, post, qwait latencies, execNs, execN int64) {
	postNs := merged([]latencies{post}, ws, traced)
	rep.setLayer("post.call_ns_p50", quantile(postNs, 0.50))
	rep.setLayer("post.call_ns_p99", quantile(postNs, 0.99))
	q := merged([]latencies{qwait}, ws, traced)
	rep.setLayer("sched.queue_wait_us_p50", quantile(q, 0.50)/1e3)
	rep.setLayer("sched.queue_wait_us_p99", quantile(q, 0.99)/1e3)
	rep.setLayer("exec.handler_ns_mean", ratio(float64(execNs), float64(execN)))
}

// spillDepthUpper are the upper edges of Stats.SpillDepthHist's
// buckets; the open last bucket reports twice the previous edge.
var spillDepthUpper = [mely.SpillDepthBuckets]float64{16, 64, 256, 1024, 4096, 8192}

func spillDepthQuantile(h [mely.SpillDepthBuckets]int64, q float64) float64 {
	var n int64
	for _, c := range h {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	var cum int64
	for i, c := range h {
		cum += c
		if cum >= rank {
			return spillDepthUpper[i]
		}
	}
	return spillDepthUpper[len(h)-1]
}

// overheadPct is how much slower the traced windows ran than the
// untraced ones, in percent of the untraced rate (medians of the
// per-window rates).
func overheadPct(ws []window) float64 {
	var on, off []float64
	for _, w := range ws {
		r := ratio(float64(w.ops()), w.seconds())
		if w.traced {
			on = append(on, r)
		} else {
			off = append(off, r)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return 100 * (median(off) - median(on)) / median(off)
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct{ name, unit, better string }

// endToEndMetrics and perLayerMetrics are the metric sets the result
// line carries with --trace 0 and --trace 1; BENCHMARK.json lists the
// same names (checked by TestBenchmarkJSONMatches).
var endToEndMetrics = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"lat_p50_us", "us", "lower"},
	{"lat_p99_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayerMetrics = []metricDef{
	{"post.call_ns_p50", "ns", "lower"},
	{"post.call_ns_p99", "ns", "lower"},
	{"sched.queue_wait_us_p50", "us", "lower"},
	{"sched.queue_wait_us_p99", "us", "lower"},
	{"sched.overhead_ns_per_event", "ns", "lower"},
	{"sched.parks_per_kevent", "1/kevent", "lower"},
	{"sched.backoff_park_share", "ratio", "lower"},
	{"sched.events_per_op", "count", "lower"},
	{"sched.server_queue_delay_p99_us", "us", "lower"},
	{"sched.server_exec_p99_us", "us", "lower"},
	{"exec.handler_ns_mean", "ns", "lower"},
	{"steal.attempts_per_kevent", "1/kevent", "lower"},
	{"steal.success_ratio", "ratio", "higher"},
	{"steal.colors_per_steal", "count", "higher"},
	{"steal.stolen_event_share", "ratio", "higher"},
	{"steal.cost_ns", "ns", "lower"},
	{"steal.stolen_per_cost", "ratio", "higher"},
	{"steal.thief_busy_share", "ratio", "higher"},
	{"netpoll.events_per_wakeup", "count", "higher"},
	{"netpoll.wakeups_per_req", "count", "lower"},
	{"netpoll.write_stalls", "count", "lower"},
	{"sws.connect_us_p50", "us", "lower"},
	{"sws.send_us_p50", "us", "lower"},
	{"sws.wait_us_p50", "us", "lower"},
	{"sws.recv_us_p50", "us", "lower"},
	{"timer.pending_peak", "count", "lower"},
	{"timer.fired_per_s", "1/s", "lower"},
	{"adm.spilled_share", "ratio", "lower"},
	{"adm.reload_ratio", "ratio", "higher"},
	{"spill.bytes_per_event", "B", "lower"},
	{"spill.depth_p99", "count", "lower"},
	{"spill.errors", "count", "lower"},
	{"go.allocs_per_op", "count", "lower"},
	{"go.gc_cycles_per_kop", "1/kop", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"self.gap_us_per_op", "us", "lower"},
	{"self.post_us_per_op", "us", "lower"},
	{"self.exec_us_per_op", "us", "lower"},
	{"self.drain_us_per_op", "us", "lower"},
	{"self.connect_us_per_op", "us", "lower"},
	{"self.send_us_per_op", "us", "lower"},
	{"self.wait_us_per_op", "us", "lower"},
	{"self.recv_us_per_op", "us", "lower"},
	{"check.fail_ratio", "ratio", "lower"},
}

// unitOf returns the unit of a metric the tables define; a name they do
// not define is a bug in the workload that reports it.
func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: metric " + name + " is not in BENCHMARK.json's tables")
}

// complete fills the metrics a workload has no such layer for with 0,
// so every workload prints the same metric set.
func complete(got map[string]metric, defs []metricDef) {
	for _, d := range defs {
		if _, ok := got[d.name]; !ok {
			got[d.name] = metric{0, d.unit}
		}
	}
}
