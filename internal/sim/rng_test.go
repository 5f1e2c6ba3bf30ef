package sim

import "testing"

// The first draws of one node-style and one cluster-style stream, pinned
// so the fault injectors' sequences (and every faulted table and event
// stream built on them) cannot drift with a change to the seeding.
func TestStreamGoldenDraws(t *testing.T) {
	for _, c := range []struct {
		name string
		s    Stream
		want [8]float64
	}{
		{"seed=7 class=drop", NewStream(7, "drop"), [8]float64{
			0.7065294836302438, 0.9001324888560784, 0.7216958016096601, 0.6424823273330783,
			0.9369663969098277, 0.02207834428527289, 0.618323576088024, 0.9271153466404779,
		}},
		{"seed=7 class=crash worker=2", NewWorkerStream(7, "crash", 2), [8]float64{
			0.15081833490951335, 0.2448820340565392, 0.3978611972221675, 0.28283806937579936,
			0.9402408729172166, 0.0459682045075267, 0.8799620843485174, 0.618105028994639,
		}},
	} {
		for k, want := range c.want {
			if got := c.s.Float64(); got != want {
				t.Errorf("%s: draw %d = %v, want %v", c.name, k, got, want)
			}
		}
	}
}
