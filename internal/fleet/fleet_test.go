package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"kelp/internal/cluster"
	"kelp/internal/clusterfaults"
	"kelp/internal/events"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// synthMeasure is a deterministic, purely arithmetic Measurer for tests:
// background interference costs throughput, Kelp shields most of it, batch
// tasks cost a little more, and the seed variant adds a small per-machine
// step-time skew.
func synthMeasure(shape MachineShape) (*Measurement, error) {
	if shape.Idle() {
		return nil, fmt.Errorf("idle shape %v measured", shape)
	}
	meas := &Measurement{BatchItemsPerSec: 5 * float64(shape.Batch)}
	if !shape.HasWorker {
		return meas, nil
	}
	rate := 10.0
	penalty := 0.0
	if shape.HasBackground {
		penalty += 0.12 * float64(shape.Background+1)
	}
	penalty += 0.03 * float64(shape.Batch)
	if shape.KelpOn {
		penalty *= 0.2
	}
	rate *= 1 - penalty
	d := (1 / rate) * (1 + 0.01*float64(shape.Variant))
	times := make([]float64, 60)
	for k := range times {
		times[k] = float64(k+1) * d
	}
	meas.StepsPerSec = 1 / d
	meas.StepTimes = times
	return meas, nil
}

// testConfig is a small fleet every test can afford.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Machines = 300
	cfg.Jobs = 4
	cfg.WorkersPerJob = 4
	cfg.BatchTasks = 90
	return cfg
}

func TestFleetConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{Machines: 10, Jobs: 1, WorkersPerJob: 1, Policy: "nope"},
		{Machines: 10, Jobs: 3, WorkersPerJob: 4, Policy: PolicyRandom},
		{Machines: 10, Jobs: 1, WorkersPerJob: 1, Policy: PolicyRandom, KelpFraction: 1.5},
		{Machines: 10, Jobs: 1, WorkersPerJob: 1, Policy: PolicyRandom, BatchTasks: -1},
		{Machines: 10, Jobs: 1, WorkersPerJob: 1, Policy: PolicyRandom, SeedVariants: -1},
		{Machines: 10, Jobs: 1, WorkersPerJob: 1, Policy: PolicyRandom, Horizon: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	for _, p := range Policies() {
		cfg := testConfig()
		cfg.Policy = p
		a, err := Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		b, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Machines(), b.Machines()) {
			t.Errorf("%s: same seed placed differently", p)
		}
		cfg.Seed++
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Machines(), c.Machines()) {
			t.Errorf("%s: different seeds placed identically", p)
		}
	}
}

func TestPlacementInvariants(t *testing.T) {
	for _, p := range Policies() {
		cfg := testConfig()
		cfg.Policy = p
		f, err := Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		workers := make(map[int]int)
		batch := 0
		for _, m := range f.Machines() {
			if m.Job >= 0 {
				workers[m.Job]++
			}
			if m.Batch < 0 || m.Batch > MaxBatchPerMach {
				t.Fatalf("%s: machine %d holds %d batch tasks", p, m.ID, m.Batch)
			}
			batch += m.Batch
		}
		if len(workers) != cfg.Jobs {
			t.Errorf("%s: %d jobs placed, want %d", p, len(workers), cfg.Jobs)
		}
		for j, n := range workers {
			if n != cfg.WorkersPerJob {
				t.Errorf("%s: job %d has %d workers, want %d", p, j, n, cfg.WorkersPerJob)
			}
		}
		if batch != cfg.BatchTasks {
			t.Errorf("%s: %d batch tasks placed, want %d", p, batch, cfg.BatchTasks)
		}
	}
}

// The Kelp-aware policy must put every worker on the protected population
// when it is large enough to hold them.
func TestKelpAwareWorkerPlacement(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = PolicyKelpAware
	f, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range f.Machines() {
		if m.Job >= 0 && !m.KelpOn {
			t.Fatalf("kelp-aware policy placed job %d's worker on Kelp-off machine %d", m.Job, m.ID)
		}
	}
}

// The distress-aware policy's rebalance pass must leave no worker machine
// above the watermark while non-worker headroom exists; random keeps its
// saturating placements.
func TestDistressRebalance(t *testing.T) {
	cfg := testConfig()
	cfg.BatchTasks = 400 // enough pressure that random saturates some ML machines
	saturated := func(p Policy) int {
		cfg.Policy = p
		f, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for i := range f.Machines() {
			m := &f.Machines()[i]
			if m.Job >= 0 && m.estLoad() > SaturateMark {
				n++
			}
		}
		return n
	}
	if n := saturated(PolicyDistress); n != 0 {
		t.Errorf("distress policy left %d saturated worker machines", n)
	}
	if n := saturated(PolicyRandom); n == 0 {
		t.Skip("random placement saturated no worker machine at this seed; contrast not exercised")
	}
}

func TestEscalate(t *testing.T) {
	s := MachineShape{HasWorker: true}
	s = s.Escalate()
	if !s.HasBackground || s.Background != workload.LevelMedium {
		t.Fatalf("clean shape escalated to %+v", s)
	}
	s = s.Escalate()
	if s.Background != workload.LevelHigh {
		t.Fatalf("medium shape escalated to %+v", s)
	}
	if s.Escalate().Background != workload.LevelHigh {
		t.Fatal("high shape escalated past high")
	}
}

// Fleet results must be byte-identical at any simulation parallelism.
func TestSimulateParallelIdentical(t *testing.T) {
	run := func(parallel int) *Result {
		cfg := testConfig()
		cfg.Faults = clusterfaults.Spec{Seed: 7, Crash: 0.02, Downtime: 1.5, Hang: 0.1, HangDur: 0.5}
		cfg.Horizon = 60 * sim.Second
		res, err := Run(cfg, synthMeasure, parallel)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
		t.Errorf("parallel 1 vs 8 diverged:\n%+v\n%+v", a, b)
	}
}

// Under colocation the Kelp-on population must out-produce the Kelp-off
// population, and an all-Kelp fleet must beat an all-Baseline one.
func TestKelpPopulationWins(t *testing.T) {
	cfg := testConfig()
	res, err := Run(cfg, synthMeasure, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkersOn == 0 || res.WorkersOff == 0 {
		t.Fatalf("mixed fleet has empty population: %+v", res)
	}
	if res.MPGKelpOn <= res.MPGKelpOff {
		t.Errorf("MPG kelp-on %.3f <= kelp-off %.3f", res.MPGKelpOn, res.MPGKelpOff)
	}
	off := cfg
	off.KelpFraction = 0
	on := cfg
	on.KelpFraction = 1
	roff, err := Run(off, synthMeasure, 0)
	if err != nil {
		t.Fatal(err)
	}
	ron, err := Run(on, synthMeasure, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ron.MPG <= roff.MPG {
		t.Errorf("all-Kelp fleet MPG %.3f <= all-Baseline %.3f", ron.MPG, roff.MPG)
	}
}

// Degrade faults require escalated-shape measurements; Tick must wire them
// into the members' degraded series.
func TestDegradeSeriesWired(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = clusterfaults.Spec{Seed: 3, Degrade: 0.05}
	cfg.Horizon = 60 * sim.Second
	res, err := Run(cfg, synthMeasure, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MPG <= 0 || res.MPG > 1 {
		t.Errorf("MPG = %v under degrade faults", res.MPG)
	}
}

func TestTickRequiresSimulate(t *testing.T) {
	f, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Tick(); err == nil {
		t.Error("Tick before Simulate accepted")
	}
}

// A recorder sees the placement decisions; the Kelp-aware policy's
// colocate-then-trim loop emits saturations, evictions and rebalances, and
// the recorder never changes results.
func TestFleetEvents(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = PolicyKelpAware
	quiet, err := Run(cfg, synthMeasure, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := events.MustNew(1 << 14)
	cfg.Events = rec
	recorded, err := Run(cfg, synthMeasure, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Events = nil
	if !reflect.DeepEqual(quiet, recorded) {
		t.Error("attaching a recorder changed fleet results")
	}
	counts := make(map[events.Type]int)
	for _, e := range rec.Events() {
		counts[e.Type]++
	}
	if counts[events.FleetPlace] < cfg.Jobs+1 {
		t.Errorf("fleet.place events = %d, want >= %d", counts[events.FleetPlace], cfg.Jobs+1)
	}
	if counts[events.MachineSaturate] == 0 {
		t.Error("no machine.saturate events under batch pressure")
	}
	if counts[events.FleetEvict] == 0 || counts[events.FleetEvict] != counts[events.FleetRebalance] {
		t.Errorf("evict/rebalance events = %d/%d, want equal and > 0",
			counts[events.FleetEvict], counts[events.FleetRebalance])
	}
}

// An all-workers-dead job must drag the fleet MPG down via a zero, not
// poison it with NaN (the cluster aggregation bugfix, seen fleet-side).
func TestAllDeadJobContributesZero(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = clusterfaults.Spec{Seed: 5, Crash: 1000, Downtime: 0.5, RestartFail: 1}
	cfg.Recovery = cluster.RecoveryConfig{MaxRestarts: 1}
	cfg.Horizon = 30 * sim.Second
	res, err := Run(cfg, synthMeasure, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MPG != 0 || res.AvailabilityGoodput != 0 {
		t.Errorf("all-dead fleet reports MPG=%v avail=%v, want 0/0", res.MPG, res.AvailabilityGoodput)
	}
	for _, j := range res.Jobs {
		if j.DeadWorkers != cfg.WorkersPerJob {
			t.Fatalf("job %d: %d dead workers, want %d", j.Job, j.DeadWorkers, cfg.WorkersPerJob)
		}
	}
}

// At 100,000 machines placement must stay deterministic: two builds of one
// config place identically and compose identical results.
func TestBuildDeterministic100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-machine fleet; skipped under -short")
	}
	for _, p := range Policies() {
		cfg := DefaultConfig()
		cfg.Machines = 100000
		cfg.BatchTasks = cfg.Machines * 3 / 10
		cfg.Policy = p
		var fleets [2]*Fleet
		var results [2]*Result
		for k := range fleets {
			f, err := Build(cfg)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			if err := f.Simulate(synthMeasure, 0); err != nil {
				t.Fatal(err)
			}
			res, err := f.Tick()
			if err != nil {
				t.Fatal(err)
			}
			fleets[k], results[k] = f, res
		}
		if !reflect.DeepEqual(fleets[0].Machines(), fleets[1].Machines()) {
			t.Errorf("%s: same seed placed 100k machines differently", p)
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("%s: same seed composed differently:\n%+v\n%+v", p, results[0], results[1])
		}
	}
}

// BenchmarkFleetBuild times placement alone: drawing 20,000 machines and
// placing the study's jobs and batch backlog (0.3 tasks per machine), per
// policy.
func BenchmarkFleetBuild(b *testing.B) {
	for _, p := range Policies() {
		b.Run(string(p), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Machines = 20000
			cfg.BatchTasks = cfg.Machines * 3 / 10
			cfg.Policy = p
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetTick pins the fleet composition hot path: per-job
// lock-step composition plus fault replay over canned measurements
// (simulation cost is excluded — that is the node model's benchmark).
func BenchmarkFleetTick(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Faults = clusterfaults.Spec{Seed: 7, Crash: 0.02, Downtime: 1.5, Hang: 0.1, HangDur: 0.5}
	cfg.Horizon = 120 * sim.Second
	f, err := Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Simulate(synthMeasure, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}
