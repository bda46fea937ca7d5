package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one operation's wall-clock durations in a window.
type samples []time.Duration

func (s *samples) add(d time.Duration) { *s = append(*s, d) }

// ms returns the durations as milliseconds, sorted ascending.
func (s samples) ms() []float64 {
	out := make([]float64, len(s))
	for i, d := range s {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// quantile is the q-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; 0 on an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// medianOf sorts a copy of v and returns its median.
func medianOf(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return quantile(c, 0.5)
}

// iqrOf is the distance between the first and third quartile of v.
func iqrOf(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return quantile(c, 0.75) - quantile(c, 0.25)
}

// sumMS is the total of the durations in milliseconds.
func (s samples) sumMS() float64 {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return float64(t) / float64(time.Millisecond)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
