package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
)

// span is one timed call the benchmark made into a layer, or one
// handler body it ran. Spans of one operation share op; parent is the
// id of the span that caused this one (0 for the operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

var spanIDs atomic.Int64

func nextSpanID() int64 { return spanIDs.Add(1) }

// spanLog is one goroutine's span buffer, kept in memory until the run
// ends.
type spanLog struct{ spans []span }

// add records a span; a root takes its id from nextSpanID before its
// children are recorded, so they can name it as their parent.
func (l *spanLog) add(id, parent, op int64, name string, start, end int64) {
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
}

// selfTimes returns, per span name, the summed self time in ns — a
// span's duration minus the part of it its children cover — and the
// number of operations ("op" root spans) they belong to. Other roots,
// such as a connect that serves many operations, are sampled at the
// operations' rate, so their self time per operation stays unbiased.
func selfTimes(spans []span) (map[string]int64, int) {
	children := map[int64][]span{}
	roots := 0
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "op" {
			roots++
		} else if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		self[s.Name] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self, roots
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]int64) int { return int(x[0] - y[0]) })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// selfLayers maps span names to the per-layer self-time metric they
// feed. Every workload reports every entry (0 where it has no such
// span) so the per-layer metric set is the same on all of them.
var selfLayers = []struct{ span, metric string }{
	{"op", "self.gap_us_per_op"},
	{"post", "self.post_us_per_op"},
	{"exec", "self.exec_us_per_op"},
	{"drain", "self.drain_us_per_op"},
	{"connect", "self.connect_us_per_op"},
	{"send", "self.send_us_per_op"},
	{"wait", "self.wait_us_per_op"},
	{"recv", "self.recv_us_per_op"},
}

// finishTrace reports per-layer self time per operation and writes the
// spans, one JSON object per line, to spans-<workload>.jsonl.
func finishTrace(o options, rep *report, logs []*spanLog) error {
	var spans []span
	for _, l := range logs {
		spans = append(spans, l.spans...)
	}
	self, ops := selfTimes(spans)
	for _, sl := range selfLayers {
		rep.setLayer(sl.metric, ratio(float64(self[sl.span]), float64(ops))/1e3)
	}
	rep.params["trace_spans"] = len(spans)
	rep.params["trace_ops"] = ops
	if !o.trace {
		return nil
	}
	f, err := os.Create(filepath.Join(o.out, fmt.Sprintf("spans-%s.jsonl", o.workload)))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
