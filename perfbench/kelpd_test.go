package main

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestScheduleIsSeededWithOneAdvanceInThree(t *testing.T) {
	plan := kelpdPlan{sessions: 50, faultEvery: 5}
	k := newKelpd(plan, 7, "", nil)
	a := k.schedule(rand.New(rand.NewSource(3)), 3000, 1000)
	b := newKelpd(plan, 7, "", nil).schedule(rand.New(rand.NewSource(3)), 3000, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	advances := 0
	for i, o := range a {
		if o.class == clsAdvance {
			advances++
		}
		if i > 0 && o.due < a[i-1].due {
			t.Fatalf("due times not monotone at %d", i)
		}
		if o.sess < 0 || o.sess >= plan.sessions {
			t.Fatalf("session %d out of range", o.sess)
		}
	}
	if advances != 1000 {
		t.Errorf("%d advances, want exactly 1000", advances)
	}
	if d := a[len(a)-1].due.Seconds(); d < 2.7 || d > 3.3 {
		t.Errorf("3000 requests at 1000/s span %.2fs", d)
	}
}

func TestFaultsOnePerPopularityBlockNeverTheHottest(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		k := newKelpd(kelpdPlan{sessions: 52, faultEvery: 5}, seed, "", nil)
		if k.faulty[k.perm[0]] {
			t.Errorf("seed %d: the hottest session is faulted", seed)
		}
		for b := 0; b < 52; b += 5 {
			n := 0
			for r := b; r < min(b+5, 52); r++ {
				if k.faulty[k.perm[r]] {
					n++
				}
			}
			if n != 1 {
				t.Errorf("seed %d: block at rank %d has %d faulted sessions, want 1", seed, b, n)
			}
		}
	}
}
