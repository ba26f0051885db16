package mely

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/melyruntime/mely/internal/obs"
)

// obsStress drives a bounded, spilling, imbalanced load through r so
// one run exercises every observability surface at once: steals (all
// colors home on core 0), spills (MaxQueuedEvents is tiny), sampled
// latency (callers pass ObsSampleRate 1), and the flight recorder.
func obsStress(t *testing.T, r *Runtime, events int) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(events)
	h := r.Register("spin", func(ctx *Ctx) {
		deadline := time.Now().Add(50 * time.Microsecond)
		for time.Now().Before(deadline) {
		}
		wg.Done()
	}, WithCostEstimate(50*time.Microsecond))
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	cols := colorsOn(r, 0, 32)
	for i := 0; i < events; i++ {
		if err := r.Post(h, cols[i%len(cols)], i); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func obsStressConfig() Config {
	return Config{
		Cores:           4,
		MaxQueuedEvents: 64,
		OverloadPolicy:  OverloadSpill,
		ObsSampleRate:   1,
	}
}

// TestWriteMetricsExposition scrapes a loaded runtime and checks the
// exposition structurally — every family renders # HELP then # TYPE
// then only its own samples, no family twice — and numerically against
// the Stats snapshot the same moment should produce.
func TestWriteMetricsExposition(t *testing.T) {
	r := newRuntime(t, obsStressConfig())
	defer r.Close()
	obsStress(t, r, 800)

	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	// Structural walk: families are contiguous and typed before sampled.
	seen := map[string]bool{}
	var family string
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.Fields(line)[2]
			if seen[name] {
				t.Fatalf("family %s opened twice", name)
			}
			seen[name] = true
			family = name
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if f[2] != family {
				t.Fatalf("TYPE %s outside its family (current %s)", f[2], family)
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("family %s has unknown type %q", family, f[3])
			}
		default:
			if family == "" || !strings.HasPrefix(line, family) {
				t.Fatalf("sample %q outside family %s", line, family)
			}
		}
	}
	for name := range seen {
		if !strings.HasPrefix(name, "mely_") {
			t.Errorf("family %s not in the mely_ namespace", name)
		}
	}

	samples, err := obs.ParseExposition(text)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	st := r.Stats()
	var events float64
	for i := range st.Cores {
		events += samples[`mely_events_total{core="`+strconv.Itoa(i)+`"}`]
	}
	if want := float64(st.Total().Events); events != want {
		t.Errorf("mely_events_total sums to %v, Stats says %v", events, want)
	}
	if samples["mely_spilled_events_total"] == 0 {
		t.Error("bounded burst did not spill (mely_spilled_events_total = 0)")
	}
	if _, ok := obs.HistogramQuantile(samples, "mely_queue_delay_seconds", 0.99); !ok {
		t.Error("no mely_queue_delay_seconds histogram despite ObsSampleRate 1")
	}
	if _, ok := obs.HistogramQuantile(samples, "mely_exec_time_seconds", 0.99); !ok {
		t.Error("no mely_exec_time_seconds histogram despite ObsSampleRate 1")
	}
}

// TestMetricsMonotonicAcrossScrapes is the exposition-level mirror of
// TestStatsMonotonicity: between bursts of a steal/spill stress run,
// no counter-suffixed series may decrease or disappear. Run under
// -race this also shakes the sampled hot-path instrumentation.
func TestMetricsMonotonicAcrossScrapes(t *testing.T) {
	r := newRuntime(t, obsStressConfig())
	defer r.Close()
	var wg sync.WaitGroup
	h := r.Register("spin", func(ctx *Ctx) {
		deadline := time.Now().Add(20 * time.Microsecond)
		for time.Now().Before(deadline) {
		}
		wg.Done()
	}, WithCostEstimate(20*time.Microsecond))
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	scrape := func() map[string]float64 {
		var buf bytes.Buffer
		if err := r.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := obs.ParseExposition(buf.String())
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	cols := colorsOn(r, 0, 16)
	prev := scrape()
	for round := 0; round < 4; round++ {
		wg.Add(300)
		for i := 0; i < 300; i++ {
			if err := r.Post(h, cols[i%len(cols)], i); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		cur := scrape()
		if v := obs.MonotonicViolations(prev, cur); v != nil {
			t.Fatalf("round %d: %v", round, v)
		}
		prev = cur
	}
}

// TestDumpTraceFlightRecorder: a stressed runtime's dump must be a
// valid Chrome trace-event array carrying exec spans (named after the
// handler), steal-batch spans, spill instants, and per-track metadata.
func TestDumpTraceFlightRecorder(t *testing.T) {
	r := newRuntime(t, obsStressConfig())
	defer r.Close()
	obsStress(t, r, 800)
	if st := r.Stats().Total(); st.Steals == 0 {
		t.Skip("no steals this run; steal spans unverifiable")
	}

	var buf bytes.Buffer
	if err := r.DumpTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("dump is not a JSON array: %v", err)
	}
	var execSpans, stealSpans, spills, meta int
	for _, e := range out {
		name, _ := e["name"].(string)
		switch {
		case name == "spin" && e["ph"] == "X":
			execSpans++
		case strings.HasPrefix(name, "STEAL ×"):
			stealSpans++
		case name == "spill":
			spills++
		case name == "thread_name":
			meta++
		}
	}
	if execSpans == 0 {
		t.Error("no exec spans named after the handler")
	}
	if stealSpans == 0 {
		t.Error("steals happened but no steal spans survived in the ring")
	}
	if spills == 0 {
		t.Error("burst spilled but no spill instants on the aux track")
	}
	// One track per core plus the aux track.
	if want := len(r.cores) + 1; meta != want {
		t.Errorf("thread_name metadata count = %d, want %d", meta, want)
	}
}

// TestObsMuxServesRuntime mounts the real runtime behind obs.NewMux and
// exercises the HTTP surface servers get from -debug-addr.
func TestObsMuxServesRuntime(t *testing.T) {
	r := newRuntime(t, obsStressConfig())
	defer r.Close()
	obsStress(t, r, 400)

	mux := obs.NewMux(obs.MuxConfig{Metrics: r.WriteMetrics, Trace: r.DumpTrace})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	if _, err := obs.ParseExposition(metrics); err != nil {
		t.Errorf("/metrics body does not parse: %v", err)
	}
	// Within the scrape-cache window a second scrape is byte-identical:
	// aggressive scrapers share one Stats walk.
	again, _ := get("/metrics")
	if again != metrics {
		t.Error("second scrape inside the cache window differs from the first")
	}

	trace, ctype := get("/debug/trace")
	if ctype != "application/json" {
		t.Errorf("/debug/trace content type = %q", ctype)
	}
	var arr []any
	if err := json.Unmarshal([]byte(trace), &arr); err != nil {
		t.Errorf("/debug/trace is not a JSON array: %v", err)
	}

	if body, _ := get("/debug/vars"); !strings.Contains(body, "memstats") {
		t.Error("/debug/vars missing expvar memstats")
	}
	get("/debug/pprof/cmdline")
}

// TestObsSamplingRateOne: at ObsSampleRate 1 every executed event is
// sampled, so the histogram counts tie out exactly against Events and
// the top-K table attributes every sample.
func TestObsSamplingRateOne(t *testing.T) {
	r := startRuntime(t, Config{Cores: 1, ObsSampleRate: 1})
	var wg sync.WaitGroup
	const n = 500
	wg.Add(n)
	h := r.Register("work", func(ctx *Ctx) { wg.Done() })
	for i := 0; i < n; i++ {
		if err := r.Post(h, Color(i%3), i); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	drain(t, r)
	st := r.Stats().Total()
	if st.Events != n {
		t.Fatalf("events = %d, want %d", st.Events, n)
	}
	if got := st.QueueDelayHist.Count(); got != n {
		t.Errorf("queue-delay samples = %d, want %d (rate 1 samples everything)", got, n)
	}
	if got := st.ExecTimeHist.Count(); got != n {
		t.Errorf("exec-time samples = %d, want %d", got, n)
	}
	if q := st.QueueDelayHist.Quantile(0.99); q <= 0 || q > time.Minute {
		t.Errorf("p99 queue delay = %v, want a sane positive duration", q)
	}
	if len(st.TopColorDelays) != 3 {
		t.Fatalf("top-K rows = %d, want 3 (one per posted color)", len(st.TopColorDelays))
	}
	var attributed int64
	for _, cd := range st.TopColorDelays {
		attributed += cd.Samples
	}
	if attributed != n {
		t.Errorf("attributed samples = %d, want %d (3 colors fit in top-%d)", attributed, n, ColorTopK)
	}
}

// TestObsDisabled: negative knobs must shut both pillars off — no
// samples, no attribution, and an empty (but valid) trace dump.
func TestObsDisabled(t *testing.T) {
	r := startRuntime(t, Config{Cores: 2, ObsSampleRate: -1, TraceRing: -1})
	var wg sync.WaitGroup
	wg.Add(100)
	h := r.Register("work", func(ctx *Ctx) { wg.Done() })
	for i := 0; i < 100; i++ {
		if err := r.Post(h, Color(i), i); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	drain(t, r)
	st := r.Stats().Total()
	if st.QueueDelayHist.Count() != 0 || st.ExecTimeHist.Count() != 0 {
		t.Error("latency samples recorded despite ObsSampleRate -1")
	}
	if len(st.TopColorDelays) != 0 {
		t.Error("per-color attribution recorded despite ObsSampleRate -1")
	}
	var buf bytes.Buffer
	if err := r.DumpTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("disabled-recorder dump = %q, want empty JSON array", got)
	}
	// Metrics still render (zero-valued): the exposition surface does
	// not depend on the sampling knobs.
	buf.Reset()
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParseExposition(buf.String()); err != nil {
		t.Errorf("exposition with obs disabled does not parse: %v", err)
	}
}

// TestStatsTotalAggregatesEveryField is the satellite-b audit, made
// permanent: fill every numeric leaf of two per-core snapshots with
// distinct values via reflection and require Total() to reflect each
// one. A future CoreStats field that Total() drops fails here with the
// field's name; a field of a kind the walk doesn't know fails asking
// for the guard to be extended.
func TestStatsTotalAggregatesEveryField(t *testing.T) {
	fill := func(cs *CoreStats, mult int64) {
		seq := int64(0)
		var walk func(path string, v reflect.Value)
		walk = func(path string, v reflect.Value) {
			switch v.Kind() {
			case reflect.Int, reflect.Int64:
				seq++
				v.SetInt(seq * mult)
			case reflect.Array:
				for i := 0; i < v.Len(); i++ {
					walk(path, v.Index(i))
				}
			case reflect.Struct:
				for i := 0; i < v.NumField(); i++ {
					walk(path+"."+v.Type().Field(i).Name, v.Field(i))
				}
			case reflect.Slice:
				// TopColorDelays: one row for a shared color so Total()
				// must fold the cores' rows together.
				seq++
				v.Set(reflect.ValueOf([]ColorDelay{
					{Color: 7, Samples: seq * mult, Delay: time.Duration(seq * mult)},
				}))
			default:
				t.Fatalf("CoreStats field %s has kind %v: extend this guard "+
					"AND Stats.Total before shipping it", path, v.Kind())
			}
		}
		walk("", reflect.ValueOf(cs).Elem())
	}
	s := Stats{Cores: make([]CoreStats, 2)}
	fill(&s.Cores[0], 1)
	fill(&s.Cores[1], 2)
	total := s.Total()

	seq := int64(0)
	var check func(path string, v reflect.Value)
	check = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			seq++
			if v.Int() != 3*seq {
				t.Errorf("Total() dropped or miscounted %s: got %d, want %d",
					path, v.Int(), 3*seq)
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walkIndex := path + "[" + strconv.Itoa(i) + "]"
				check(walkIndex, v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				check(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice:
			seq++
			rows := v.Interface().([]ColorDelay)
			if len(rows) != 1 || rows[0].Color != 7 ||
				rows[0].Samples != 3*seq || rows[0].Delay != time.Duration(3*seq) {
				t.Errorf("Total() did not merge %s: %+v (want one color-7 row with %d samples)",
					path, rows, 3*seq)
			}
		}
	}
	check("", reflect.ValueOf(total))
}

// TestMetricsInventoryDocumented keeps docs/observability.md's metric
// inventory honest: with the collector armed (so the rate and health
// families render too), the set of families WriteMetrics emits must
// equal the set of backticked mely_* names the doc mentions — an
// undocumented family or a documented name that no longer exists
// fails with its name.
func TestMetricsInventoryDocumented(t *testing.T) {
	r := newRuntime(t, Config{Cores: 2, ObsInterval: time.Hour})
	defer r.Close()
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	emitted := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			emitted[f[2]] = true
		}
	}
	doc, err := os.ReadFile("docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`(mely_[a-z0-9_]+)`").FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = true
	}
	for name := range emitted {
		if !documented[name] {
			t.Errorf("%s is emitted but not documented in docs/observability.md", name)
		}
	}
	for name := range documented {
		if !emitted[name] {
			t.Errorf("%s is documented in docs/observability.md but not emitted", name)
		}
	}
}
