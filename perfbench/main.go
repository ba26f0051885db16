// Command perfbench drives the real mely runtime through its public API
// on three workloads and prints one JSON result line.
//
//	perfbench --workload sws|unbalanced|spill --seed N --seconds S --trace 0|1 [--out DIR]
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from spans the
// benchmark records around its own calls into each layer and from
// deltas of Runtime.Stats, runtime.MemStats and getrusage. See
// README.md for the metric table and the reasons behind each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's outcome; each workload fills one.
type report struct {
	attempted, failed int64
	faults            []string
	params            map[string]any
	e2e               map[string]metric
	layer             map[string]metric
}

func newReport() *report {
	return &report{params: map[string]any{}, e2e: map[string]metric{}, layer: map[string]metric{}}
}

// fault records a correctness violation; the run is then not correct.
// Only the first few are kept, so a systematic fault stays readable.
func (r *report) fault(format string, args ...any) {
	if len(r.faults) < 16 {
		r.faults = append(r.faults, fmt.Sprintf(format, args...))
	}
}

func (r *report) setE2E(name string, v float64) {
	r.e2e[name] = metric{v, unitOf(endToEndMetrics, name)}
}
func (r *report) setLayer(name string, v float64) {
	r.layer[name] = metric{v, unitOf(perLayerMetrics, name)}
}

type workloadFunc func(o options, rep *report) error

var workloads = map[string]workloadFunc{
	"sws":        runSWS,
	"unbalanced": runUnbalanced,
	"spill":      runSpill,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: sws, unbalanced or spill")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for spans, results and spill segments")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, o.seconds, trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep := newReport()
	if err := run(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	complete(rep.e2e, endToEndMetrics)
	complete(rep.layer, perLayerMetrics)
	res := result{
		Correct:   len(rep.faults) == 0 && rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.e2e,
	}
	if o.trace {
		res.Metrics = rep.layer
	}
	for _, f := range rep.faults {
		fmt.Fprintln(os.Stderr, "perfbench: fault:", f)
	}
	info := map[string]any{
		"host":     hostFingerprint(),
		"workload": o.workload,
		"seed":     o.seed,
		"seconds":  o.seconds,
		"trace":    trace,
		"params":   rep.params,
		"faults":   rep.faults,
		"result":   res,
		// Runtime.Stats-derived layer figures are valid in both modes;
		// the span-derived ones need --trace 1.
		"layers": rep.layer,
	}
	infoLine, err := json.Marshal(info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", o.workload, o.seed, trace)
	if err := os.WriteFile(filepath.Join(o.out, name), append(infoLine, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(infoLine))
	fmt.Println(string(resLine))
}

// hostFingerprint identifies the machine a result was measured on.
func hostFingerprint() map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel":     readTrim("/proc/sys/kernel/osrelease"),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
