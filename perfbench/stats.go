package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// regDelta is the change in an obs registry over the measured phase;
// set-up repetitions before it leave their counts in the registry.
type regDelta struct{ before, after obs.Snapshot }

func (d regDelta) counter(name string) int64 {
	return d.after.Counters[name] - d.before.Counters[name]
}

func (d regDelta) gauge(name string) float64 { return d.after.Gauges[name] }

func (d regDelta) histogram(name string) obs.HistogramSnapshot {
	a, b := d.after.Histograms[name], d.before.Histograms[name]
	out := obs.HistogramSnapshot{Count: a.Count - b.Count, Sum: a.Sum - b.Sum, Bounds: a.Bounds}
	out.Counts = make([]uint64, len(a.Counts))
	for i := range a.Counts {
		out.Counts[i] = a.Counts[i]
		if i < len(b.Counts) {
			out.Counts[i] -= b.Counts[i]
		}
	}
	return out
}

// histQuantile estimates a quantile from bucket counts, interpolating
// linearly inside the bucket that holds it (the lowest bucket starts at
// 0, the overflow bucket is reported at its lower bound).
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var seen float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			return lo + (h.Bounds[i]-lo)*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

func histMean(h obs.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
