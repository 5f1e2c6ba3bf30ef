package main

import (
	"math"
	"testing"
	"time"
)

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
	}{
		{10000, 999}, {9999, 990}, {1000, 990}, {999, 950}, {200, 950},
		{199, 900}, {100, 900}, {99, 750}, {40, 750}, {39, 500}, {5, 500}, {0, 500},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeStatesNAndPicksNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // reversed: summarize must sort
	}
	s := summarize(xs)
	if s.N != 1000 || s.TailAt != 990 {
		t.Fatalf("N=%d TailAt=%v, want 1000 and 0.99", s.N, s.TailAt)
	}
	// Nearest rank: 990 of 1000 samples lie at or below the p99 value,
	// leaving exactly ten beyond it.
	if s.P50 != 500 || s.Tail != 990 {
		t.Errorf("p50=%v p99=%v, want 500 and 990", s.P50, s.Tail)
	}
	if xs[0] != 1000 {
		t.Error("summarize reordered its input")
	}
	small := summarize([]float64{3, 1, 2})
	if small.N != 3 || small.TailAt != 500 || small.Tail != 2 {
		t.Errorf("small sample: %+v", small)
	}
	if e := summarize(nil); e.N != 0 || !math.IsNaN(e.P50) {
		t.Errorf("empty sample: %+v", e)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestLatenessFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	if l := lateness(due, due.Add(3*time.Millisecond)); l != 3*time.Millisecond {
		t.Errorf("late send: %v", l)
	}
	if l := lateness(due, due.Add(-time.Millisecond)); l != 0 {
		t.Errorf("early send counts as on time, got %v", l)
	}
	if l := lateness(due, due); l != 0 {
		t.Errorf("on-time send: %v", l)
	}
}

func TestFailShareCountsRefusedAsFailed(t *testing.T) {
	if f := failShare(200, 3, 7); f != 0.05 {
		t.Errorf("failShare = %v, want 0.05", f)
	}
	if f := failShare(0, 0, 0); f != 0 {
		t.Errorf("no attempts: %v", f)
	}
}
