package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans of one operation share Op; Parent indexes the span
// that caused this one (-1 for an operation's root).
type span struct {
	Op     uint64 `json:"op"`
	Parent int32  `json:"parent"`
	Phase  string `json:"phase"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op costing a nil check. The
// benchmark calls into the kernel from one goroutine, so the tracer takes
// no lock.
type tracer struct {
	t0    time.Time
	ops   uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// op allocates the id shared by the spans of one operation.
func (t *tracer) op() uint64 {
	if t == nil {
		return 0
	}
	t.ops++
	return t.ops
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(op uint64, parent int32, phase, layer, name string) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Op: op, Parent: parent, Phase: phase, Layer: layer, Name: name, Start: now})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
}

// selfTime sums, per layer, the time of the phase's spans not covered by
// their child spans. Children of one span never overlap: the benchmark
// calls into layers sequentially within an operation.
func (t *tracer) selfTime(phase string) map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.Phase == phase {
			out[s.Layer] += time.Duration(s.End - s.Start - child[i])
		}
	}
	return out
}

// roots counts the operations (root spans) of a phase.
func (t *tracer) roots(phase string) int {
	n := 0
	for _, s := range t.spans {
		if s.Phase == phase && s.Parent < 0 {
			n++
		}
	}
	return n
}

// writeJSONL dumps every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
