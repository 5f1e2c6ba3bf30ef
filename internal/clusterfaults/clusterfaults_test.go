package clusterfaults

import (
	"reflect"
	"strings"
	"testing"
)

func TestSpecStringParseRoundTrip(t *testing.T) {
	specs := []Spec{
		{},
		{Seed: 7, Crash: 0.05},
		{Seed: 9, Crash: 0.06, Downtime: 1.5, RestartFail: 0.3, Hang: 0.25, HangDur: 0.6, Degrade: 0.1},
		{Hang: 0.125},
	}
	for _, s := range specs {
		got, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s.String(), err)
		}
		if got != s {
			t.Errorf("round trip: %q -> %+v, want %+v", s.String(), got, s)
		}
	}
	if (Spec{}).String() != "off" {
		t.Errorf("zero spec renders %q, want off", (Spec{}).String())
	}
	for _, in := range []string{"", "off", "  off  "} {
		s, err := ParseSpec(in)
		if err != nil || s.Enabled() {
			t.Errorf("ParseSpec(%q) = %+v, %v; want disabled zero spec", in, s, err)
		}
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"crash", `clusterfaults: "crash" is not key=value`},
		{"bogus=1", `clusterfaults: unknown key "bogus"`},
		{"crash=x", ""}, // not a number
		{"seed=-1", `clusterfaults: seed: strconv.ParseUint: parsing "-1": invalid syntax`},
		{"crash=-0.5", ""},         // negative rate
		{"restartfail=1.5", ""},    // not a probability
		{"downtime=-2", ""},        // negative duration
		{"hangdur=NaN", ""},        // NaN duration
		{"crash=0.1,hang=Inf", ""}, // infinite rate
	} {
		_, err := ParseSpec(c.in)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", c.in)
		} else if c.want != "" && err.Error() != c.want {
			t.Errorf("ParseSpec(%q) error = %q, want %q", c.in, err, c.want)
		}
	}
}

func TestEnabled(t *testing.T) {
	if (Spec{}).Enabled() {
		t.Error("zero spec enabled")
	}
	// Shape-only fields never enable injection on their own.
	if (Spec{Seed: 1, Downtime: 5, HangDur: 2, RestartFail: 1}).Enabled() {
		t.Error("spec with only shaping fields enabled")
	}
	for _, s := range []Spec{{Crash: 0.1}, {Hang: 0.1}, {Degrade: 0.1}} {
		if !s.Enabled() {
			t.Errorf("%+v not enabled", s)
		}
	}
}

func TestNilInjectorIsNoOp(t *testing.T) {
	var i *Injector
	if i.Crash(0, 1) || i.Hang(0, 1) || i.Degrade(0, 1) || i.RestartFails(0) {
		t.Error("nil injector fired a fault")
	}
	if i.Spec() != (Spec{}) {
		t.Error("nil injector has a spec")
	}
}

func TestInjectorValidation(t *testing.T) {
	if _, err := NewInjector(Spec{Crash: -1}, 2); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := NewInjector(Spec{}, 0); err == nil {
		t.Error("zero workers accepted")
	}
	inj := MustInjector(Spec{Crash: 0.1}, 2)
	if inj.Spec().Downtime != DefaultDowntime || inj.Spec().HangDur != DefaultHangDur {
		t.Errorf("defaults not resolved: %+v", inj.Spec())
	}
}

// drawAll replays a fixed consultation pattern and returns every outcome.
func drawAll(inj *Injector, workers, steps int) []bool {
	var out []bool
	for s := 0; s < steps; s++ {
		for w := 0; w < workers; w++ {
			out = append(out, inj.Hang(w, 0.05))
			out = append(out, inj.Crash(w, 0.05))
			out = append(out, inj.Degrade(w, 0.05))
		}
	}
	for w := 0; w < workers; w++ {
		out = append(out, inj.RestartFails(w))
	}
	return out
}

func TestSameSeedSameFaultSequence(t *testing.T) {
	spec := Spec{Seed: 123, Crash: 2, Hang: 3, Degrade: 1, RestartFail: 0.5}
	a := drawAll(MustInjector(spec, 3), 3, 200)
	b := drawAll(MustInjector(spec, 3), 3, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical (seed, spec) diverged")
	}
	spec2 := spec
	spec2.Seed = 124
	c := drawAll(MustInjector(spec2, 3), 3, 200)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

// Enabling one class must not shift another class's stream: crash draws
// are identical whether or not hangs are also enabled.
func TestClassStreamsAreIndependent(t *testing.T) {
	crashOnly := MustInjector(Spec{Seed: 5, Crash: 2}, 2)
	crashAndHang := MustInjector(Spec{Seed: 5, Crash: 2, Hang: 5}, 2)
	for s := 0; s < 500; s++ {
		for w := 0; w < 2; w++ {
			crashAndHang.Hang(w, 0.05) // extra draws on the hang streams
			a := crashOnly.Crash(w, 0.05)
			b := crashAndHang.Crash(w, 0.05)
			if a != b {
				t.Fatalf("crash stream shifted at step %d worker %d", s, w)
			}
		}
	}
}

// Worker streams are independent: adding a worker never changes an
// existing worker's fate.
func TestWorkerStreamsAreIndependent(t *testing.T) {
	spec := Spec{Seed: 11, Crash: 2}
	two := MustInjector(spec, 2)
	three := MustInjector(spec, 3)
	for s := 0; s < 500; s++ {
		three.Crash(2, 0.05) // worker 2 consumes its own stream only
		for w := 0; w < 2; w++ {
			if two.Crash(w, 0.05) != three.Crash(w, 0.05) {
				t.Fatalf("worker %d fate changed with cluster size at step %d", w, s)
			}
		}
	}
}

func TestRateSemantics(t *testing.T) {
	inj := MustInjector(Spec{Seed: 1, Hang: 1}, 1) // crash rate 0
	for s := 0; s < 1000; s++ {
		if inj.Crash(0, 10) {
			t.Fatal("zero-rate class fired")
		}
	}
	// An enormous hazard over a long exposure practically always fires.
	hot := MustInjector(Spec{Seed: 1, Crash: 1000}, 1)
	fired := 0
	for s := 0; s < 100; s++ {
		if hot.Crash(0, 1) {
			fired++
		}
	}
	if fired < 100 {
		t.Errorf("saturated hazard fired %d/100", fired)
	}
}

func TestStringOrderIsStable(t *testing.T) {
	s := Spec{Seed: 3, Degrade: 0.1, Crash: 0.2, Hang: 0.3}
	want := "seed=3,crash=0.2,hang=0.3,degrade=0.1"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if !strings.HasPrefix(s.String(), "seed=") {
		t.Error("seed not first")
	}
}
