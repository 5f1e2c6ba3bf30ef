package main

import (
	"math"
	"sort"
	"time"
)

// tailLevels are the percentiles a tail figure may report, highest
// first, in tenths of a percent (integers keep the rank arithmetic exact).
var tailLevels = []int{999, 990, 950, 900, 750, 500}

// minBeyond is how many samples must lie above a reported percentile for
// it to mean anything.
const minBeyond = 10

// rank is the 0-based nearest-rank index of per-mille level pm among n
// sorted samples: the smallest sample with at least pm/1000 of all
// samples at or below it.
func rank(n, pm int) int {
	return max((n*pm+999)/1000-1, 0)
}

// tailLevel returns the highest level in tailLevels that leaves at least
// minBeyond of n samples above it, or the median when none does.
func tailLevel(n int) int {
	for _, pm := range tailLevels {
		if n-1-rank(n, pm) >= minBeyond {
			return pm
		}
	}
	return 500
}

// quantile returns the per-mille pm nearest-rank quantile of sorted, or
// NaN when empty.
func quantile(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), pm)]
}

// summary is a timing sample set reduced to the figures the benchmark
// reports: its median and its highest well-supported tail percentile.
type summary struct {
	N      int
	P50    float64
	Tail   float64 // value at level TailAt
	TailAt int     // per mille, chosen by tailLevel(N)
}

// summarize sorts a copy of xs and reduces it.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := tailLevel(len(s))
	return summary{N: len(s), P50: quantile(s, 500), Tail: quantile(s, at), TailAt: at}
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or NaN when empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// failShare is the share of attempted operations that did not succeed:
// (failed + refused) / attempted. A refused request (429/503) counts as a
// failure because it misses any latency limit.
func failShare(attempted, failed, refused int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed+refused) / float64(attempted)
}

// lateness is how long after its due time a request was actually sent;
// sending early (never done by the generator) counts as on time.
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
