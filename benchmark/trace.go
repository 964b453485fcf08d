package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
)

// Span is one timed call into a layer, recorded by the harness around the
// call (spans inside the program are a later change). Spans of one block or
// one request share ID; Parent is the index of the causing span in its
// tracer (in a span file: the line number, from 0), -1 for a root.
type Span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Attr carries one integer attribute (the replica index of an
	// apply_pending span); -1 when unused.
	Attr int `json:"attr"`
}

// tracer keeps spans in a preallocated buffer and writes them out when the
// run ends. A nil tracer records nothing, so timed loops carry one branch.
// It is not safe for concurrent use: each load-generator goroutine owns one.
type tracer struct {
	spans   []Span
	dropped int
}

// maxSpans bounds one tracer (a query_hot run would otherwise record
// millions of identical route_query spans); spans past it are counted.
const maxSpans = 1 << 17

func newTracer() *tracer { return &tracer{spans: make([]Span, 0, maxSpans)} }

// open starts a span and returns its index, -1 when the buffer is full.
func (t *tracer) open(name string, id int64, parent int, start int64) int {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, Span{Name: name, ID: id, Parent: parent, StartNS: start, Attr: -1})
	return len(t.spans) - 1
}

func (t *tracer) close(i int, end int64) {
	if t != nil && i >= 0 {
		t.spans[i].EndNS = end
	}
}

// add records a finished span.
func (t *tracer) add(name string, id int64, parent int, start, end int64) int {
	i := t.open(name, id, parent, start)
	t.close(i, end)
	return i
}

// writeSpans writes the tracers of one run as JSON lines under dir.
func writeSpans(dir, file string, tracers ...*tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := 0
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			if err := enc.Encode(&s); err != nil {
				f.Close()
				return err
			}
		}
		base += len(t.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
