package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded by the harness around a phase, a
// window, or a batch of calls into one exported entry point of a layer.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs pay nothing.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, f func()) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
