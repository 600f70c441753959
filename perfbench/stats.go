package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; xs need not be sorted and
// is not modified. An empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles is the ladder the percentile rule picks from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestPercentile applies the reporting rule for timings: the
// highest percentile of the ladder that leaves at least ten samples
// beyond it among n samples. ok is false when even the median does
// not (n < 20).
func highestPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// durationsMs converts a sample of durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}
