package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/melyruntime/mely"
)

// swsResponse builds a response the way internal/sws prebuilds them.
func swsResponse(status string, body []byte) []byte {
	return []byte("HTTP/1.1 " + status + "\r\nServer: sws/mely\r\nContent-Type: application/octet-stream\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + string(body))
}

func TestCheckResponseRejectsPlantedFaults(t *testing.T) {
	body := swsBody(7)
	if err := checkResponse(swsResponse("200 OK", body), body); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	flipped := bytes.Clone(body)
	flipped[100] ^= 1
	faults := map[string][]byte{
		"status 404":     swsResponse("404 Not Found", body),
		"flipped byte":   swsResponse("200 OK", flipped),
		"other file":     swsResponse("200 OK", swsBody(8)),
		"short body":     swsResponse("200 OK", body)[:len(swsResponse("200 OK", body))-1],
		"trailing bytes": append(swsResponse("200 OK", body), 'x'),
		"no length":      []byte("HTTP/1.1 200 OK\r\n\r\n" + string(body)),
	}
	for name, resp := range faults {
		if err := checkResponse(resp, body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSWSClientAgainstServers runs the client against the real server
// (no failures) and against a server that corrupts one file's body
// (that request fails).
func TestSWSClientAgainstServers(t *testing.T) {
	inst, err := setupSWS(swsFileSet(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.teardown()
	if c := clientRun(t, inst.srv.Addr().String(), 300); c.failed != 0 || c.attempted != 300 {
		t.Fatalf("real server: %d of %d failed: %v", c.failed, c.attempted, c.firstErr)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go plantedServer(ln, "/file3.bin")
	c := clientRun(t, ln.Addr().String(), 300)
	if c.failed == 0 || c.firstErr == nil || !strings.Contains(c.firstErr.Error(), "/file3.bin") {
		t.Fatalf("corrupted /file3.bin not detected: %d failed, first error %v", c.failed, c.firstErr)
	}
}

// clientRun issues up to n requests on one connection, stopping at the
// first failure.
func clientRun(t *testing.T, addr string, n int) *swsClient {
	t.Helper()
	c := newSWSClient(options{seed: 1, seconds: 1}, 0, newPhase())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n && c.request(conn); i++ {
	}
	return c
}

// plantedServer serves every file correctly except bad, whose body has
// one byte flipped.
func plantedServer(ln net.Listener, bad string) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			br := bufio.NewReader(conn)
			for {
				line, err := br.ReadString('\n')
				if err != nil {
					return
				}
				for { // skip the headers
					h, err := br.ReadString('\n')
					if err != nil {
						return
					}
					if h == "\r\n" {
						break
					}
				}
				path := strings.Fields(line)[1]
				i, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(path, "/file"), ".bin"))
				body := swsBody(i)
				if path == bad {
					body[len(body)/2] ^= 1
				}
				if _, err := conn.Write(swsResponse("200 OK", body)); err != nil {
					return
				}
			}
		}()
	}
}

// runRound posts one unbalanced round (batch may differ from the events
// the checker inspects) and returns the checker's verdict.
func runRound(t *testing.T, plant func(u *ubRound, h mely.Handler, colors []mely.Color) []mely.BatchEvent) (int64, error) {
	t.Helper()
	colors, err := probeColors(2, 1, ubColors, ubHomeCore)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := mely.New(mely.Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := newUBRound()
	h := rt.Register("unbalanced", u.handle)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	shape := ubShapesFor(1)[0]
	for i := range u.events {
		u.events[i].ci, u.events[i].iters = int32(i%ubColors), shape[i]
	}
	batch := plant(u, h, colors)
	u.left.Store(int64(len(batch)))
	if err := rt.PostBatch(batch); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	return roundFaults(u.events, u.overlaps.Load())
}

func fullBatch(u *ubRound, h mely.Handler, colors []mely.Color) []mely.BatchEvent {
	batch := make([]mely.BatchEvent, len(u.events))
	for i := range u.events {
		batch[i] = mely.BatchEvent{Handler: h, Color: colors[u.events[i].ci], Data: &u.events[i]}
	}
	return batch
}

func TestRoundCheckerRejectsPlantedFaults(t *testing.T) {
	if n, err := runRound(t, fullBatch); n != 0 || err != nil {
		t.Fatalf("clean round: %d failed: %v", n, err)
	}
	plants := map[string]func(u *ubRound, h mely.Handler, colors []mely.Color) []mely.BatchEvent{
		"duplicate": func(u *ubRound, h mely.Handler, colors []mely.Color) []mely.BatchEvent {
			b := fullBatch(u, h, colors)
			return append(b, b[42])
		},
		"lost": func(u *ubRound, h mely.Handler, colors []mely.Color) []mely.BatchEvent {
			return fullBatch(u, h, colors)[1:]
		},
		// A handler of color 3 that never leaves looks, to every event
		// of that color, like an overlapping one.
		"overlap": func(u *ubRound, h mely.Handler, colors []mely.Color) []mely.BatchEvent {
			u.busy[3].Store(1)
			return fullBatch(u, h, colors)
		},
	}
	for name, plant := range plants {
		if n, err := runRound(t, plant); n == 0 || err == nil {
			t.Errorf("%s: not detected", name)
		} else {
			t.Logf("%s: %d failed: %v", name, n, err)
		}
	}
}

// spillHarness is a spilling runtime with the spill workload's handler.
func spillHarness(t *testing.T) (*mely.Runtime, mely.Handler, *spillState) {
	t.Helper()
	rt, err := mely.New(mely.Config{Cores: 2, MaxQueuedEvents: 16, OverloadPolicy: mely.OverloadSpill, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := newSpillState(options{seconds: 1}, newPhase(), 1)
	h := rt.Register("spill", s.handle)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return rt, h, s
}

// postSeqs posts color 0's events with the given sequence numbers,
// drains, and returns the checker's findings: FIFO faults seen by the
// handler and events lost against want posted.
func postSeqs(t *testing.T, seqs []uint64, want uint64) (fifo, lost int64) {
	rt, h, s := spillHarness(t)
	for _, q := range seqs {
		if err := rt.Post(h, s.colors[0], spillPayload(make([]byte, 16), q, 0)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().SpilledEvents == 0 {
		t.Fatal("nothing spilled: the test does not reach the spill path")
	}
	var posted [spColors]uint64
	posted[0] = want
	lost, _ = checkDelivered(posted, &s.next)
	return s.fifoFaults.Load(), lost
}

func TestSpillCheckerRejectsPlantedFaults(t *testing.T) {
	seqs := make([]uint64, 400)
	for i := range seqs {
		seqs[i] = uint64(i + 1)
	}
	if fifo, lost := postSeqs(t, seqs, 400); fifo != 0 || lost != 0 {
		t.Fatalf("clean sequence: %d FIFO faults, %d lost", fifo, lost)
	}
	swapped := append([]uint64(nil), seqs...)
	swapped[200], swapped[201] = swapped[201], swapped[200]
	if fifo, _ := postSeqs(t, swapped, 400); fifo == 0 {
		t.Error("reordered events not detected")
	}
	if fifo, lost := postSeqs(t, seqs[:399], 400); fifo != 0 || lost != 1 {
		t.Errorf("lost tail event: %d FIFO faults, %d lost (want 0, 1)", fifo, lost)
	}
	dup := append(append([]uint64(nil), seqs[:300]...), seqs[299:]...)
	if fifo, _ := postSeqs(t, dup, 400); fifo == 0 {
		t.Error("duplicated event not detected")
	}

	// A payload the spill store cannot encode is a spill error.
	rt, h, s := spillHarness(t)
	for i := 0; i < 64; i++ {
		if err := rt.Post(h, s.colors[1], &struct{}{}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().SpillErrors == 0 || s.fifoFaults.Load() == 0 {
		t.Errorf("unencodable payloads: SpillErrors %d, handler faults %d; want both > 0",
			rt.Stats().SpillErrors, s.fifoFaults.Load())
	}
}

func TestQuietWindows(t *testing.T) {
	win := func(traced bool, steal, ticks int64) window {
		return window{traced: traced, s1: sample{steal: steal, ticks: ticks}}
	}
	cases := []struct {
		ws   []window
		want []int
	}{
		// Disturbed windows drop out; the traced one never counts.
		{[]window{win(false, 0, 100), win(false, 50, 100), win(false, 1, 100), win(true, 0, 100), win(false, 30, 100)}, []int{0, 2}},
		// Busy all run long: every window.
		{[]window{win(false, 40, 100), win(false, 41, 100), win(false, 42, 100)}, []int{0, 1, 2}},
		// One quiet window among eight: still a quarter of them.
		{[]window{win(false, 0, 100), win(false, 20, 100), win(false, 30, 100), win(false, 40, 100),
			win(false, 50, 100), win(false, 60, 100), win(false, 70, 100), win(false, 80, 100)}, []int{0, 1}},
	}
	for i, c := range cases {
		if got := quietWindows(c.ws); !slices.Equal(got, c.want) {
			t.Errorf("case %d: quietWindows = %v, want %v", i, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "post", Start: 0, End: 10},
		{ID: 3, Parent: 1, Op: 1, Name: "exec", Start: 20, End: 60},
		{ID: 4, Parent: 1, Op: 1, Name: "exec", Start: 50, End: 70},
		{ID: 5, Parent: 1, Op: 1, Name: "exec", Start: 90, End: 120}, // clipped at 100
		{ID: 6, Op: 7, Name: "connect", Start: 0, End: 5},
	}
	self, ops := selfTimes(spans)
	if ops != 1 {
		t.Fatalf("ops = %d, want 1", ops)
	}
	want := map[string]int64{"op": 100 - 10 - 50 - 10, "post": 10, "exec": 40 + 20 + 30, "connect": 5}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's
// metric and workload tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics)
}

// TestWorkloadsRunClean runs every workload for two seconds in both
// modes. It checks that each run is correct, that every end-to-end
// metric is above 0, and that each layer's work lands where the
// workload claims it.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a few seconds")
	}
	for name, run := range workloads {
		for _, tr := range []bool{false, true} {
			rep := newReport()
			o := options{workload: name, seed: 3, seconds: 2, trace: tr, out: t.TempDir()}
			if err := run(o, rep); err != nil {
				t.Fatalf("%s trace=%v: %v", name, tr, err)
			}
			if rep.failed != 0 || len(rep.faults) != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", name, tr, rep.failed, rep.attempted, rep.faults)
			}
			if !tr {
				for _, d := range endToEndMetrics {
					if rep.e2e[d.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, d.name, rep.e2e[d.name].Value)
					}
				}
				continue
			}
			// Each layer's work lands where the workload claims it.
			if raceEnabled {
				continue
			}
			layer := func(n string) float64 { return rep.layer[n].Value }
			switch name {
			case "sws":
				if v := layer("sched.events_per_op"); v < 4 || v > 4.1 {
					t.Errorf("sws: sched.events_per_op = %v, want about 4", v)
				}
			case "unbalanced":
				if v := layer("steal.stolen_event_share"); v < 0.05 {
					t.Errorf("unbalanced: steal.stolen_event_share = %v, want well above 0", v)
				}
			case "spill":
				if v := layer("adm.spilled_share"); v < 0.5 {
					t.Errorf("spill: adm.spilled_share = %v, want above one half", v)
				}
			}
		}
	}
}
