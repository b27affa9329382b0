package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks, the same rule as Python's
// statistics.quantiles(method="inclusive"). xs need not be sorted; it is
// not modified. An empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencySummary is the diagnostic view of one latency sample.
type latencySummary struct {
	Count  int     `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
	Beyond int     `json:"samples_beyond_p99"`
}

func summarize(ds []time.Duration) latencySummary {
	ms := durValues(ds, time.Millisecond)
	s := latencySummary{Count: len(ms)}
	if len(ms) == 0 {
		return s
	}
	s.P50MS = sortedQuantile(ms, 0.5)
	s.P90MS = sortedQuantile(ms, 0.9)
	s.P99MS = sortedQuantile(ms, 0.99)
	s.MaxMS = ms[len(ms)-1]
	for _, v := range ms {
		if v > s.P99MS {
			s.Beyond++
		}
	}
	return s
}

// durValues returns the durations in the given unit, sorted.
func durValues(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}
