package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the enclosing span's ID (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so call sites need no branches.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// activeSpan is a span that has begun but not ended.
type activeSpan struct {
	t     *Tracer
	id    int64
	s     Span
	start time.Time
}

// Begin opens a span. parent is the enclosing span's ID, or 0.
func (t *Tracer) Begin(name string, parent, req int64) activeSpan {
	if t == nil {
		return activeSpan{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	now := time.Now()
	return activeSpan{t: t, id: id, start: now, s: Span{ID: id, Parent: parent, Req: req, Name: name}}
}

// BeginAt opens a span whose start is an earlier instant (a request's
// scheduled send time).
func (t *Tracer) BeginAt(name string, parent, req int64, at time.Time) activeSpan {
	sp := t.Begin(name, parent, req)
	sp.start = at
	return sp
}

// ID is the span's identifier, for children to name as parent.
func (a activeSpan) ID() int64 { return a.id }

// End closes the span and records it.
func (a activeSpan) End() {
	if a.t == nil {
		return
	}
	end := time.Now()
	a.s.Start = a.start.Sub(a.t.epoch).Nanoseconds()
	a.s.End = end.Sub(a.t.epoch).Nanoseconds()
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// layerTime is a layer's share of a trace.
type layerTime struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	WallMS float64 `json:"wall_ms"`
	SelfMS float64 `json:"self_ms"`
}

// layerOf maps a span name ("chain.submit_batch") to its layer ("chain").
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes aggregates spans by layer. A span's self time is its duration
// minus the part of its interval that its children cover (children may
// overlap each other, so their union is subtracted, not their sum).
func selfTimes(spans []Span) []layerTime {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := make(map[string]*layerTime)
	for _, s := range spans {
		lt := by[layerOf(s.Name)]
		if lt == nil {
			lt = &layerTime{Layer: layerOf(s.Name)}
			by[lt.Layer] = lt
		}
		dur := s.End - s.Start
		self := dur - coveredNS(s, children[s.ID])
		lt.Spans++
		lt.WallMS += float64(dur) / 1e6
		lt.SelfMS += float64(self) / 1e6
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// coveredNS is the length of the union of the children's intervals,
// clipped to the parent's interval.
func coveredNS(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}
