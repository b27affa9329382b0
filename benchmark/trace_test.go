package main

import (
	"math"
	"testing"
)

func TestSelfTimesSubtractsChildUnion(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "gen.request", Start: 0, End: 100e6},
		// Overlapping children cover [10ms, 70ms): 60ms, not 80ms.
		{ID: 2, Parent: 1, Name: "api.submit", Start: 10e6, End: 50e6},
		{ID: 3, Parent: 1, Name: "api.submit", Start: 30e6, End: 70e6},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "api.get", Start: 90e6, End: 120e6},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Layer] = lt
	}
	if g := got["gen"]; math.Abs(g.SelfMS-30) > 1e-9 || g.WallMS != 100 || g.Spans != 1 {
		t.Errorf("gen: %+v, want self 30ms of 100ms", g)
	}
	if a := got["api"]; a.Spans != 3 || math.Abs(a.SelfMS-110) > 1e-9 {
		t.Errorf("api: %+v, want 3 spans, self 110ms", a)
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("x.y", 0, 1)
	sp.End()
	if sp.ID() != 0 || tr.Spans() != nil {
		t.Error("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.Begin("a.root", 0, 7)
	child := tr.Begin("b.child", root.ID(), 7)
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Parent != root.ID() || spans[1].Req != 7 || spans[1].End < spans[0].End {
		t.Errorf("spans %+v", spans)
	}
}
