package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/melyruntime/mely"
)

// The spill workload is the real-runtime counterpart of the overload
// simulator scenario: a bounded runtime with OverloadSpill receives
// bursts of about 20× its queue bound across a few colors, then
// drains. It is the only workload that builds the admission layer and
// exercises spillq append, reload and segment roll.
const (
	spColors    = 4
	spMaxQueued = 256
	spBurst     = 20 * spMaxQueued
	spWorkIters = 16
	// Every spLatEvery-th event of a color carries a post stamp for the
	// delivery-latency sample; the rest skip the clock read.
	spLatEvery     = 16
	spShapes       = 16
	spDrainTimeout = 30 * time.Second
	// spSpanEvery keeps the spans of one traced burst in this many: a
	// burst is 2×spBurst spans.
	spSpanEvery = 64
)

// spillState is what the handlers share with the generator. Each
// color's fields are touched only by that color's handlers, which the
// runtime serializes; the generator reads them after Drain.
type spillState struct {
	p      *phase
	colors [spColors]mely.Color
	next   [spColors]atomic.Uint64 // last delivered sequence number
	lat    [spColors]latencies
	// Traced runs stamp each handler's start and end, indexed by
	// sequence number modulo spBurst.
	execStart, execEnd [spColors][]int64
	fifoFaults         atomic.Int64
	firstFault         atomic.Pointer[string]
}

func newSpillState(o options, p *phase, seed int64) *spillState {
	s := &spillState{p: p}
	base := rand.New(rand.NewPCG(uint64(seed), 0x5b111)).Uint64() >> 2
	for i := range s.colors {
		s.colors[i] = mely.Color(2 + base + uint64(i)) // distinct, never 0 or 1
		s.lat[i] = newLatencies(o.seconds)
		s.execStart[i] = make([]int64, spBurst)
		s.execEnd[i] = make([]int64, spBurst)
	}
	return s
}

func (s *spillState) colorIndex(c mely.Color) int {
	for i, x := range s.colors {
		if x == c {
			return i
		}
	}
	return -1
}

// spillPayload is the 16-byte event payload: the color's sequence
// number and, on sampled events, the post stamp.
func spillPayload(b []byte, seq uint64, stamp int64) []byte {
	binary.LittleEndian.PutUint64(b[0:8], seq)
	binary.LittleEndian.PutUint64(b[8:16], uint64(stamp))
	return b
}

func (s *spillState) handle(ctx *mely.Ctx) {
	b, ok := ctx.Data().([]byte)
	ci := s.colorIndex(ctx.Color())
	if !ok || ci < 0 || len(b) != 16 {
		s.fault(fmt.Sprintf("event on color %#x with payload %T of %d bytes", uint64(ctx.Color()), ctx.Data(), len(b)))
		return
	}
	seq := binary.LittleEndian.Uint64(b[0:8])
	stamp := int64(binary.LittleEndian.Uint64(b[8:16]))
	win := s.p.win.Load()
	tracing := win >= 0 && s.p.tracing.Load()
	var start int64
	if stamp != 0 || tracing {
		start = nowNs()
	}
	if stamp != 0 {
		s.lat[ci].add(win, start-stamp)
	}
	if prev := s.next[ci].Swap(seq); seq != prev+1 {
		s.fault(fmt.Sprintf("color %d delivered seq %d after %d", ci, seq, prev))
	}
	spin(spWorkIters)
	if tracing {
		s.execStart[ci][seq%spBurst] = start
		s.execEnd[ci][seq%spBurst] = nowNs()
	}
}

func (s *spillState) fault(msg string) {
	s.fifoFaults.Add(1)
	s.firstFault.CompareAndSwap(nil, &msg)
}

type spillInstance struct {
	rt  *mely.Runtime
	h   mely.Handler
	dir string
}

func (i spillInstance) runtime() *mely.Runtime { return i.rt }

func (i spillInstance) teardown() {
	i.rt.Stop()
	os.RemoveAll(i.dir)
}

func runSpill(o options, rep *report) error {
	cores := runtime.NumCPU()
	p := newPhase()
	s := newSpillState(o, p, o.seed)
	rep.params["cores"] = cores
	rep.params["colors"] = spColors
	rep.params["max_queued_events"] = spMaxQueued
	rep.params["burst"] = spBurst
	rep.params["payload_bytes"] = 16
	rep.params["work_iters"] = spWorkIters
	rep.params["spill_sync"] = mely.SpillSyncNone.String()

	g := newSpillGen(o, s)
	var spillErrors int64
	setups := 0
	lats := make([]latencies, 0, spColors)
	for _, l := range s.lat {
		lats = append(lats, l)
	}
	latSum := newLatSummary(o.seconds)
	seg, err := runSegments(o, p,
		func() (instance, error) {
			setups++
			dir := filepath.Join(o.out, fmt.Sprintf("spill-%d-%d", os.Getpid(), setups))
			rt, err := mely.New(mely.Config{
				Cores: cores, MaxQueuedEvents: spMaxQueued,
				OverloadPolicy: mely.OverloadSpill, SpillDir: dir,
			})
			if err != nil {
				return nil, err
			}
			h := rt.Register("spill", s.handle)
			return spillInstance{rt: rt, h: h, dir: dir}, rt.Start()
		},
		func(inst instance) func() {
			g.rt, g.h = inst.runtime(), inst.(spillInstance).h
			stop := startLoop(g.run)
			return func() {
				stop()
				spillErrors += g.rt.Stats().SpillErrors
			}
		},
		func(from, to int) { latSum.fold(lats, from, to) })
	if err != nil {
		return err
	}

	rep.attempted, rep.failed = g.attempted, g.failed+s.fifoFaults.Load()
	if g.err != nil {
		rep.fault("%v", g.err)
	}
	if f := s.firstFault.Load(); f != nil {
		rep.fault("%s", *f)
	}
	if spillErrors != 0 {
		rep.fault("Stats.SpillErrors = %d", spillErrors)
		rep.failed += spillErrors
	}
	ws := seg.ws
	endToEnd(rep, seg, latSum)
	statsLayers(rep, ws)
	eventLayers(rep, ws, g.post, g.qwait, g.execNs, g.execN)
	rep.setLayer("trace.overhead_pct", overheadPct(ws))
	return finishTrace(o, rep, []*spanLog{&g.log})
}

// spillGen is the single generator: a burst of Posts across the
// colors, then Drain, then a check that every color got every event in
// order.
type spillGen struct {
	s      *spillState
	rt     *mely.Runtime
	h      mely.Handler
	p      *phase
	shapes [][]uint8 // color index of each event of a burst
	seq    [spColors]uint64
	arena  []byte
	// postStart and postEnd are the traced Post stamps of the current
	// burst, in posting order.
	postStart, postEnd []int64

	bursts            int
	attempted, failed int64
	err               error

	post, qwait   latencies
	execNs, execN int64
	log           spanLog
}

func newSpillGen(o options, s *spillState) *spillGen {
	rng := rand.New(rand.NewPCG(uint64(o.seed), 0xb0257))
	shapes := make([][]uint8, spShapes)
	for i := range shapes {
		shapes[i] = make([]uint8, spBurst)
		for j := range shapes[i] {
			shapes[i][j] = uint8(rng.IntN(spColors))
		}
	}
	return &spillGen{
		s: s, p: s.p, shapes: shapes,
		arena:     make([]byte, 16*spBurst),
		postStart: make([]int64, spBurst), postEnd: make([]int64, spBurst),
		post: newLatencies(o.seconds), qwait: newLatencies(o.seconds),
	}
}

func (g *spillGen) run(stop *atomic.Bool) {
	for ; !stop.Load() && g.err == nil; g.bursts++ {
		if !g.burst(g.bursts) {
			return
		}
	}
}

// burst posts one burst and drains it; it reports whether to go on.
func (g *spillGen) burst(burst int) bool {
	shape := g.shapes[burst%len(g.shapes)]
	win := g.p.win.Load()
	tracing := win >= 0 && g.p.tracing.Load()
	first := g.seq
	t0 := nowNs()
	for i, ci := range shape {
		g.seq[ci]++
		seq := g.seq[ci]
		var stamp int64
		if seq%spLatEvery == 0 {
			stamp = nowNs()
		}
		payload := spillPayload(g.arena[16*i:16*i+16], seq, stamp)
		g.attempted++
		var a int64
		if tracing {
			a = nowNs()
		}
		if err := g.rt.Post(g.h, g.s.colors[ci], payload); err != nil {
			g.failed++
			g.err = fmt.Errorf("burst %d: Post: %w", burst, err)
			return false
		}
		if tracing {
			g.postStart[i], g.postEnd[i] = a, nowNs()
		}
	}
	d0 := nowNs()
	ctx, cancel := context.WithTimeout(context.Background(), spDrainTimeout)
	err := g.rt.Drain(ctx)
	cancel()
	d1 := nowNs()
	if err != nil {
		g.failed += int64(len(shape))
		g.err = fmt.Errorf("burst %d: Drain did not return: %w", burst, err)
		return false
	}
	lost, lerr := checkDelivered(g.seq, &g.s.next)
	if lerr != nil && g.err == nil {
		g.err = fmt.Errorf("burst %d: %w", burst, lerr)
	}
	g.failed += lost
	g.p.ops.Add(int64(len(shape)) - lost)
	if tracing {
		g.record(win, burst, shape, first, t0, d0, d1)
	}
	return true
}

// checkDelivered compares each color's last delivered sequence number
// with the last one posted and returns how many events went missing.
// It then resynchronises the delivered counters, so one fault does not
// fail every later burst.
func checkDelivered(posted [spColors]uint64, delivered *[spColors]atomic.Uint64) (int64, error) {
	var lost int64
	var first error
	for ci, want := range posted {
		if got := delivered[ci].Load(); got != want {
			lost += int64(want - min(got, want))
			if first == nil {
				first = fmt.Errorf("color %d delivered up to seq %d of %d", ci, got, want)
			}
			delivered[ci].Store(want)
		}
	}
	return lost, first
}

// record feeds one traced burst into the per-layer samples, and keeps
// its spans when the burst is sampled.
func (g *spillGen) record(win int32, burst int, shape []uint8, first [spColors]uint64, t0, d0, d1 int64) {
	keep := burst%spSpanEvery == 0
	var op, root int64
	if keep {
		op, root = int64(burst), nextSpanID()
		g.log.add(nextSpanID(), root, op, "drain", d0, d1)
	}
	seq := first
	for i, ci := range shape {
		seq[ci]++
		start, end := g.s.execStart[ci][seq[ci]%spBurst], g.s.execEnd[ci][seq[ci]%spBurst]
		if i%sampleEvery == 0 {
			g.post.add(win, g.postEnd[i]-g.postStart[i])
			g.qwait.add(win, max(0, start-g.postEnd[i]))
		}
		g.execNs += end - start
		g.execN++
		if keep {
			g.log.add(nextSpanID(), root, op, "post", g.postStart[i], g.postEnd[i])
			g.log.add(nextSpanID(), root, op, "exec", start, end)
		}
	}
	if keep {
		g.log.add(root, 0, op, "op", t0, d1)
	}
}
