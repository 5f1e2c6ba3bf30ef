package metrics

import "math"

// Mean returns the arithmetic mean of xs, or 0 when empty. The paper uses
// the arithmetic mean to average ML-task slowdowns (Fig. 13).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// HarmonicMean returns the harmonic mean of xs, or 0 when empty or when any
// element is non-positive. The paper uses the harmonic mean to average CPU
// task throughputs (Fig. 13), which is the standard choice for rates.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) {
			return 0
		}
		s += 1 / x
	}
	return float64(len(xs)) / s
}

// GeoMean returns the geometric mean of xs, or 0 when empty or when any
// element is non-positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Median returns the median of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// TrailingMedian returns the median of the last window entries of xs (all
// of xs when it is shorter, or when window <= 0). The cluster runtime's
// barrier timeout derives its straggler threshold from this: a trailing
// window tracks drift in the service's own step time, so the threshold
// adapts instead of being an absolute constant. The window is sorted in
// buf, which is reused when its capacity suffices (nil allocates), so a
// caller evaluating the median every step can keep one buffer.
func TrailingMedian(xs []float64, window int, buf []float64) float64 {
	if window > 0 && len(xs) > window {
		xs = xs[len(xs)-window:]
	}
	return percentileInPlace(append(buf[:0], xs...), 50)
}
