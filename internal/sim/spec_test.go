package sim_test

import (
	"testing"

	"kelp/internal/clusterfaults"
	"kelp/internal/faults"
)

// FuzzFaultSpec drives both fault-spec parsers with arbitrary input (kelpd
// accepts spec strings from clients in POST /sessions): parsing must never
// panic, and every accepted spec must survive a String round trip.
func FuzzFaultSpec(f *testing.F) {
	for _, s := range []string{
		"", "off", " OFF ", "seed=7", "seed=7,drop=0.2,actstick=0.05",
		"spikemag=+Inf", "Drop = 0.5 , seed = 3", "drop=-0", "drop=0x1p-2",
		"seed=7,crash=0.04,hang=0.15,degrade=0.04,restartfail=0.3",
		"crash=1e-320,downtime=2,hangdur=0.5", "bogus=1", "seed=-1", "a=b=c", ",,",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if s, err := faults.ParseSpec(in); err == nil {
			again, err := faults.ParseSpec(s.String())
			if err != nil || again != s {
				t.Errorf("faults round trip of %q via %q: %+v, %v; want %+v", in, s.String(), again, err, s)
			}
		}
		if s, err := clusterfaults.ParseSpec(in); err == nil {
			again, err := clusterfaults.ParseSpec(s.String())
			if err != nil || again != s {
				t.Errorf("clusterfaults round trip of %q via %q: %+v, %v; want %+v", in, s.String(), again, err, s)
			}
		}
	})
}
