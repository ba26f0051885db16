package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/melyruntime/mely"
)

// The unbalanced workload is the paper's unbalanced microbenchmark:
// rounds of ubColors colors × ubPerColor events, all colors homed on
// one core, so every other core gets work only by stealing. 98% of the
// events are short and 2% long. The round shape decides how much
// stealing happens: with 500 colors × 10 events the time-left
// heuristic judged each color too cheap to steal and under 1% of the
// events moved; 16 × 300 gives the thief a real share (see README.md).
const (
	ubColors   = 16
	ubPerColor = 300
	ubEvents   = ubColors * ubPerColor
	// One spin iteration is three dependent shift-xor pairs, about six
	// cycles: short events are ≈100 cycles, long ones 10–50 Kcycles.
	ubShortIters   = 16
	ubLongMinIters = 1700
	ubLongMaxIters = 8300
	ubLongPercent  = 2
	// ubShapes round shapes are drawn from the seed and cycled.
	ubShapes       = 64
	ubRoundTimeout = 10 * time.Second
	// ubSpanEvery keeps the spans of one traced round in this many: a
	// round is ubEvents exec spans.
	ubSpanEvery = 128
	// ubHomeCore is the core every color of a round is homed on.
	ubHomeCore = 0
)

// spin is the handlers' fixed work: n dependent xorshift steps.
func spin(n int32) uint64 {
	x := uint64(n) | 1
	for i := int32(0); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// ubEvent is one posted event and what its handler observed. The
// handler writes the observation fields; the generator reads them after
// the round's completion signal.
type ubEvent struct {
	ci    int32 // color index
	iters int32
	stamp bool // record start/end
	runs  atomic.Int32
	start int64
	end   int64
	sink  uint64
}

// ubRound is the state one generator shares with the handlers.
type ubRound struct {
	events   []ubEvent
	batch    []mely.BatchEvent
	busy     [ubColors]atomic.Int32 // 1 while a handler of the color runs
	overlaps atomic.Int64
	left     atomic.Int64
	doneAt   atomic.Int64
	done     chan struct{}
}

func newUBRound() *ubRound {
	return &ubRound{events: make([]ubEvent, ubEvents), done: make(chan struct{}, 1)}
}

func (u *ubRound) handle(ctx *mely.Ctx) {
	ev := ctx.Data().(*ubEvent)
	var start int64
	if ev.stamp {
		start = nowNs()
	}
	g := &u.busy[ev.ci]
	entered := g.CompareAndSwap(0, 1)
	if !entered {
		u.overlaps.Add(1)
	}
	ev.sink = spin(ev.iters)
	ev.runs.Add(1)
	if entered {
		g.Store(0)
	}
	if ev.stamp {
		ev.start, ev.end = start, nowNs()
	}
	if u.left.Add(-1) == 0 {
		u.doneAt.Store(nowNs())
		select {
		case u.done <- struct{}{}:
		default: // a duplicated event already signalled; the checker reports it
		}
	}
}

// roundFaults checks a completed round: every event ran exactly once
// and no two events of one color overlapped. It returns the number of
// failed events and a description of the first fault. (Where an event
// ran is not checked: a color whose last event just finished on a
// thief still holds its lease there, so the next round may deliver it
// to the thief without a steal.)
func roundFaults(events []ubEvent, overlaps int64) (int64, error) {
	var failed int64
	var first error
	for i := range events {
		if n := events[i].runs.Load(); n != 1 {
			failed++
			if first == nil {
				first = fmt.Errorf("event %d ran %d times", i, n)
			}
		}
	}
	if overlaps > 0 {
		failed += overlaps
		if first == nil {
			first = fmt.Errorf("%d events overlapped another event of their color", overlaps)
		}
	}
	return failed, first
}

// probeColors picks n colors that all home on core `home`, through the
// public API alone: a PolicyMely runtime (no stealing) with the same
// core count runs one event per candidate color and reports
// Ctx.CoreID. A second pass checks that the chosen colors stay there.
func probeColors(cores int, seed int64, n int, home int) ([]mely.Color, error) {
	rt, err := mely.New(mely.Config{Cores: cores, Policy: mely.PolicyMely})
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	ran := map[mely.Color]int{}
	h := rt.Register("probe", func(ctx *mely.Ctx) {
		mu.Lock()
		ran[ctx.Color()] = ctx.CoreID()
		mu.Unlock()
	})
	if err := rt.Start(); err != nil {
		return nil, err
	}
	defer rt.Stop()
	pass := func(colors []mely.Color) (map[mely.Color]int, error) {
		mu.Lock()
		clear(ran)
		mu.Unlock()
		for _, c := range colors {
			if err := rt.Post(h, c, nil); err != nil {
				return nil, err
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rt.Drain(ctx); err != nil {
			return nil, fmt.Errorf("probe drain: %w", err)
		}
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(ran), nil
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	candidates := make([]mely.Color, 0, 8*n*cores)
	for len(candidates) < cap(candidates) {
		if c := mely.Color(rng.Uint64()); c > 1 {
			candidates = append(candidates, c)
		}
	}
	first, err := pass(candidates)
	if err != nil {
		return nil, err
	}
	var chosen []mely.Color
	for _, c := range candidates {
		if first[c] == home && len(chosen) < n {
			chosen = append(chosen, c)
		}
	}
	if len(chosen) < n {
		return nil, fmt.Errorf("only %d of %d candidate colors home on core %d", len(chosen), len(candidates), home)
	}
	second, err := pass(chosen)
	if err != nil {
		return nil, err
	}
	for _, c := range chosen {
		if core, ok := second[c]; !ok || core != home {
			return nil, fmt.Errorf("color %#x homed on core %d in the first probe pass and on core %d in the second", uint64(c), home, core)
		}
	}
	return chosen, nil
}

// ubShapesFor draws the per-event spin counts of ubShapes rounds.
func ubShapesFor(seed int64) [][]int32 {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	shapes := make([][]int32, ubShapes)
	for s := range shapes {
		shapes[s] = make([]int32, ubEvents)
		for i := range shapes[s] {
			if rng.IntN(100) < ubLongPercent {
				shapes[s][i] = int32(ubLongMinIters + rng.IntN(ubLongMaxIters-ubLongMinIters+1))
			} else {
				shapes[s][i] = ubShortIters
			}
		}
	}
	return shapes
}

type ubInstance struct {
	rt *mely.Runtime
	h  mely.Handler
}

func (i ubInstance) runtime() *mely.Runtime { return i.rt }
func (i ubInstance) teardown()              { i.rt.Stop() }

func runUnbalanced(o options, rep *report) error {
	cores := runtime.NumCPU()
	colors, err := probeColors(cores, o.seed, ubColors, ubHomeCore)
	if err != nil {
		return err
	}
	rep.params["cores"] = cores
	rep.params["colors"] = ubColors
	rep.params["events_per_color"] = ubPerColor
	rep.params["long_percent"] = ubLongPercent
	rep.params["short_iters"] = ubShortIters
	rep.params["long_iters"] = []int{ubLongMinIters, ubLongMaxIters}
	rep.params["home_core"] = ubHomeCore

	u := newUBRound()
	u.batch = make([]mely.BatchEvent, ubEvents)
	for i := range u.events {
		u.events[i].ci = int32(i % ubColors)
		u.batch[i] = mely.BatchEvent{Color: colors[i%ubColors], Data: &u.events[i]}
	}
	p := newPhase()
	g := &ubGen{u: u, p: p, shapes: ubShapesFor(o.seed),
		lat: newLatencies(o.seconds), post: newLatencies(o.seconds), qwait: newLatencies(o.seconds)}
	latSum := newLatSummary(o.seconds)
	seg, err := runSegments(o, p,
		func() (instance, error) {
			rt, err := mely.New(mely.Config{Cores: cores})
			if err != nil {
				return nil, err
			}
			h := rt.Register("unbalanced", u.handle)
			return ubInstance{rt: rt, h: h}, rt.Start()
		},
		func(inst instance) func() {
			g.rt = inst.runtime()
			for i := range u.batch {
				u.batch[i].Handler = inst.(ubInstance).h
			}
			return startLoop(g.run)
		},
		func(from, to int) { latSum.fold([]latencies{g.lat}, from, to) })
	if err != nil {
		return err
	}

	rep.attempted, rep.failed = g.attempted, g.failed
	if g.err != nil {
		rep.fault("%v", g.err)
	}
	ws := seg.ws
	endToEnd(rep, seg, latSum)
	statsLayers(rep, ws)
	eventLayers(rep, ws, g.post, g.qwait, g.execNs, g.execN)
	rep.setLayer("trace.overhead_pct", overheadPct(ws))
	return finishTrace(o, rep, []*spanLog{&g.log})
}

// ubGen is the single generator: one timed PostBatch per round, then a
// wait on the completion signal.
type ubGen struct {
	u      *ubRound
	rt     *mely.Runtime
	p      *phase
	shapes [][]int32

	round             int
	attempted, failed int64
	err               error

	lat, post, qwait latencies
	execNs, execN    int64
	log              spanLog
}

func (g *ubGen) run(stop *atomic.Bool) {
	u := g.u
	timeout := time.NewTimer(ubRoundTimeout)
	defer timeout.Stop()
	for ; !stop.Load() && g.err == nil; g.round++ {
		round := g.round
		win := g.p.win.Load()
		tracing := win >= 0 && g.p.tracing.Load()
		shape := g.shapes[round%len(g.shapes)]
		for i := range u.events {
			ev := &u.events[i]
			ev.iters, ev.stamp = shape[i], tracing
			ev.runs.Store(0)
		}
		u.left.Store(int64(len(u.batch)))
		g.attempted += int64(len(u.batch))
		t0 := nowNs()
		err := g.rt.PostBatch(u.batch)
		t1 := nowNs()
		if err != nil {
			g.failed += int64(len(u.batch))
			g.err = fmt.Errorf("round %d: PostBatch: %w", round, err)
			return
		}
		if !timeout.Stop() {
			select {
			case <-timeout.C:
			default:
			}
		}
		timeout.Reset(ubRoundTimeout)
		select {
		case <-u.done:
		case <-timeout.C:
			g.failed += u.left.Load()
			g.err = fmt.Errorf("round %d: %d events still pending after %v", round, u.left.Load(), ubRoundTimeout)
			return
		}
		doneAt := u.doneAt.Load()
		failed, ferr := roundFaults(u.events, u.overlaps.Swap(0))
		if ferr != nil {
			g.failed += failed
			if g.err == nil {
				g.err = fmt.Errorf("round %d: %w", round, ferr)
			}
		}
		g.p.ops.Add(int64(len(u.events)) - failed)
		g.lat.add(win, doneAt-t0)
		if tracing {
			g.record(win, round, t0, t1, doneAt)
		}
	}
}

// record feeds one traced round into the per-layer samples, and keeps
// its spans when the round is sampled.
func (g *ubGen) record(win int32, round int, t0, t1, doneAt int64) {
	n := int64(len(g.u.events))
	g.post.add(win, (t1-t0)/n)
	for i := range g.u.events {
		ev := &g.u.events[i]
		if i%sampleEvery == 0 {
			g.qwait.add(win, max(0, ev.start-t1))
		}
		g.execNs += ev.end - ev.start
		g.execN++
	}
	if round%ubSpanEvery != 0 {
		return
	}
	op, root := int64(round), nextSpanID()
	g.log.add(nextSpanID(), root, op, "post", t0, t1)
	for i := range g.u.events {
		ev := &g.u.events[i]
		g.log.add(nextSpanID(), root, op, "exec", ev.start, ev.end)
	}
	g.log.add(root, 0, op, "op", t0, doneAt)
}
