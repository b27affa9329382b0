package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileMatchesInclusiveMethod(t *testing.T) {
	xs := []float64{7, 1, 3, 5}
	// Python: statistics.quantiles([1,3,5,7], n=4, method="inclusive") == [2.5, 4.0, 5.5]
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2.5}, {0.5, 4}, {0.75, 5.5}, {1, 7}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 7 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
	if got := median([]float64{4}); got != 4 {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestSummarizeCountsSamplesBeyondP99(t *testing.T) {
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	s := summarize(ds)
	if s.Count != 1000 || s.MaxMS != 1000 || s.P50MS != 500.5 {
		t.Fatalf("summary %+v", s)
	}
	if s.Beyond != 10 {
		t.Errorf("%d samples beyond p99, want 10", s.Beyond)
	}
}
