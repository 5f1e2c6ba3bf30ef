package policy

import (
	"testing"

	"kelp/internal/accel"
	"kelp/internal/cgroup"
	"kelp/internal/node"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

func newGPUPlatform() accel.Platform { return accel.NewGPU() }

func newNode(t *testing.T) *node.Node {
	t.Helper()
	n, err := node.New(node.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Baseline: "BL", CoreThrottle: "CT", KelpSubdomain: "KP-SD", Kelp: "KP", Kind(9): "Kind(9)"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if len(Kinds()) != 4 {
		t.Error("Kinds() should list all four configurations")
	}
}

func TestOptionsValidate(t *testing.T) {
	n := newNode(t)
	if err := DefaultOptions().Validate(n); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Options){
		func(o *Options) { o.Socket = 9 },
		func(o *Options) { o.MLCores = 0 },
		func(o *Options) { o.MLCores = 99 },
		func(o *Options) { o.CATWays = -1 },
		func(o *Options) { o.CATWays = 99 },
		func(o *Options) { o.SamplePeriod = 0 },
		func(o *Options) { o.MinLowCores = 0 },
		func(o *Options) { o.MaxBackfillCores = 99 },
	}
	for i, mut := range mutations {
		o := DefaultOptions()
		mut(&o)
		if err := o.Validate(n); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestApplyBaseline(t *testing.T) {
	n := newNode(t)
	a, err := Apply(n, Baseline, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != nil || a.Throttler != nil || a.Backfill != "" {
		t.Errorf("baseline should have no controller: %+v", a)
	}
	if n.Memory().Config().SNCEnabled {
		t.Error("baseline should run with SNC off")
	}
	ml, _ := n.Cgroups().Group(a.ML)
	low, _ := n.Cgroups().Group(a.Low)
	if ml.CPUs().Len() != 6 {
		t.Errorf("ML cores = %d", ml.CPUs().Len())
	}
	if low.CPUs().Len() != 22 {
		t.Errorf("low cores = %d, want 22", low.CPUs().Len())
	}
	if ml.LLCWays() != 0 {
		t.Error("baseline should not partition the LLC")
	}
	if len(ml.CPUs().Intersect(low.CPUs())) != 0 {
		t.Error("ML and low cpusets overlap")
	}
}

func TestApplyCoreThrottle(t *testing.T) {
	n := newNode(t)
	a, err := Apply(n, CoreThrottle, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Throttler == nil {
		t.Fatal("CT should install a throttler")
	}
	ml, _ := n.Cgroups().Group(a.ML)
	low, _ := n.Cgroups().Group(a.Low)
	if ml.LLCWays() == 0 || low.LLCWays() == 0 {
		t.Error("CT should partition the LLC via CAT")
	}
	if ml.LLCWays()&low.LLCWays() != 0 {
		t.Error("CAT partitions overlap")
	}
	if n.Memory().Config().SNCEnabled {
		t.Error("CT runs with SNC off")
	}
}

func TestApplyKelpSubdomain(t *testing.T) {
	n := newNode(t)
	a, err := Apply(n, KelpSubdomain, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime == nil {
		t.Fatal("KP-SD should install the Kelp runtime")
	}
	if a.Backfill != "" {
		t.Error("KP-SD must not backfill")
	}
	if !n.Memory().Config().SNCEnabled {
		t.Error("KP-SD requires SNC")
	}
	ml, _ := n.Cgroups().Group(a.ML)
	low, _ := n.Cgroups().Group(a.Low)
	if ml.MemPolicy().Subdomain != 0 || low.MemPolicy().Subdomain != 1 {
		t.Errorf("subdomain placement wrong: ml=%+v low=%+v", ml.MemPolicy(), low.MemPolicy())
	}
	// ML cores all in subdomain 0, low cores all in subdomain 1.
	for _, id := range ml.CPUs() {
		c, _ := n.Processor().Core(id)
		if c.Subdomain != 0 {
			t.Errorf("ML core %d in subdomain %d", id, c.Subdomain)
		}
	}
	for _, id := range low.CPUs() {
		c, _ := n.Processor().Core(id)
		if c.Subdomain != 1 {
			t.Errorf("low core %d in subdomain %d", id, c.Subdomain)
		}
	}
}

func TestApplyKelp(t *testing.T) {
	n := newNode(t)
	a, err := Apply(n, Kelp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime == nil || a.Backfill == "" {
		t.Fatalf("KP should install runtime + backfill group: %+v", a)
	}
	bf, err := n.Cgroups().Group(a.Backfill)
	if err != nil {
		t.Fatal(err)
	}
	if bf.MemPolicy().Subdomain != 0 {
		t.Errorf("backfill memory should live in the high subdomain: %+v", bf.MemPolicy())
	}
	if bf.CPUs().Len() != 0 {
		t.Error("backfill should start with zero cores")
	}
}

func TestBackfillNeverTouchesMLCores(t *testing.T) {
	n := newNode(t)
	o := DefaultOptions()
	a, err := Apply(n, Kelp, o)
	if err != nil {
		t.Fatal(err)
	}
	// Calm system so the runtime boosts backfill to the max.
	calm, _ := workload.NewLoop("calm", workload.LoopConfig{
		Threads: 1, UnitWork: 1e-3,
		Mem: workload.MemProfile{StreamBWPerCore: 0.05 * workload.GB},
	})
	if err := n.AddTask(calm, a.Low); err != nil {
		t.Fatal(err)
	}
	n.Run(3 * sim.Second)
	if a.Runtime.BackfillCores() != o.MaxBackfillCores {
		t.Fatalf("backfill = %d, want %d", a.Runtime.BackfillCores(), o.MaxBackfillCores)
	}
	ml, _ := n.Cgroups().Group(a.ML)
	bf, _ := n.Cgroups().Group(a.Backfill)
	if overlap := ml.CPUs().Intersect(bf.CPUs()); overlap.Len() != 0 {
		t.Errorf("backfill stole ML cores: %v", overlap)
	}
}

func TestThrottlerValidation(t *testing.T) {
	n := newNode(t)
	if _, err := n.Cgroups().Create("g", 0); err != nil {
		t.Fatal(err)
	}
	pool := n.Processor().SocketCores(0)
	good := ThrottlerConfig{
		Socket: 0, Group: "g", Pool: pool, MinCores: 1, MaxCores: pool.Len(),
		Watermarks:   DefaultThrottlerWatermarks(76.8e9, 90e-9),
		SamplePeriod: 0.1,
	}
	if _, err := NewThrottler(n, good); err != nil {
		t.Fatal(err)
	}
	bad := []func(*ThrottlerConfig){
		func(c *ThrottlerConfig) { c.Group = "" },
		func(c *ThrottlerConfig) { c.Group = "ghost" },
		func(c *ThrottlerConfig) { c.MinCores = 0 },
		func(c *ThrottlerConfig) { c.MaxCores = 0 },
		func(c *ThrottlerConfig) { c.MaxCores = pool.Len() + 1 },
		func(c *ThrottlerConfig) { c.SamplePeriod = 0 },
	}
	for i, mut := range bad {
		c := good
		mut(&c)
		if _, err := NewThrottler(n, c); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := NewThrottler(nil, good); err == nil {
		t.Error("nil node accepted")
	}
}

func TestThrottlerReactsToAggression(t *testing.T) {
	n := newNode(t)
	a, err := Apply(n, CoreThrottle, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	agg, _ := workload.NewDRAMAggressor(workload.LevelHigh)
	if err := n.AddTask(agg, a.Low); err != nil {
		t.Fatal(err)
	}
	start := a.Throttler.Cores()
	n.Run(3 * sim.Second)
	if got := a.Throttler.Cores(); got >= start {
		t.Errorf("throttler never reduced cores: %d -> %d", start, got)
	}
	if len(a.Throttler.History()) == 0 {
		t.Error("no decisions recorded")
	}
}

func TestThrottlerRecoversWhenCalm(t *testing.T) {
	n := newNode(t)
	a, err := Apply(n, CoreThrottle, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	calm, _ := workload.NewLoop("calm", workload.LoopConfig{
		Threads: 2, UnitWork: 1e-3,
		Mem: workload.MemProfile{StreamBWPerCore: 0.05 * workload.GB},
	})
	if err := n.AddTask(calm, a.Low); err != nil {
		t.Fatal(err)
	}
	n.Run(2 * sim.Second)
	if got, max := a.Throttler.Cores(), 22; got != max {
		t.Errorf("cores = %d under calm load, want %d", got, max)
	}
}

func TestApplyFineGrained(t *testing.T) {
	n := newNode(t)
	a, err := Apply(n, FineGrained, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != nil || a.Throttler != nil || a.MBA != nil {
		t.Error("HW-FG needs no software controller")
	}
	if !n.Memory().Config().FineGrainedQoS {
		t.Error("fine-grained QoS not enabled")
	}
	if n.Memory().Config().SNCEnabled {
		t.Error("HW-FG runs with SNC off (no fragmentation)")
	}
	ml, _ := n.Cgroups().Group(a.ML)
	if ml.Priority() != cgroup.High {
		t.Error("ML group must be high priority for request-level QoS")
	}
	// End to end: the hardware protects the ML task without any runtime.
	mlTask, _ := workload.NewCNN3(newGPUPlatform())
	if err := n.AddTask(mlTask, a.ML); err != nil {
		t.Fatal(err)
	}
	agg, _ := workload.NewDRAMAggressor(workload.LevelHigh)
	if err := n.AddTask(agg, a.Low); err != nil {
		t.Fatal(err)
	}
	n.Run(1 * sim.Second)
	r, err := n.LastRates("CNN3")
	if err != nil {
		t.Fatal(err)
	}
	if r.BWFraction < 0.99 {
		t.Errorf("ML bandwidth contended under HW-FG: %+v", r)
	}
	if r.Backpressure < 1 {
		t.Errorf("ML backpressured under HW-FG: %+v", r)
	}
	ra, _ := n.LastRates(agg.Name())
	if ra.BWFraction > 0.9 {
		t.Errorf("aggressor uncontended under HW-FG: %+v", ra)
	}
}

func TestApplyMBAThrottle(t *testing.T) {
	n := newNode(t)
	a, err := Apply(n, MBAThrottle, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.MBA == nil {
		t.Fatal("MBAThrottle should install the MBA controller")
	}
	if a.MBA.Percent() != 100 {
		t.Errorf("initial MBA = %d, want 100", a.MBA.Percent())
	}
	agg, _ := workload.NewDRAMAggressor(workload.LevelHigh)
	if err := n.AddTask(agg, a.Low); err != nil {
		t.Fatal(err)
	}
	n.Run(3 * sim.Second)
	if got := a.MBA.Percent(); got >= 100 {
		t.Errorf("MBA never throttled under DRAM-H: %d%%", got)
	}
	if len(a.MBA.History()) == 0 {
		t.Error("no decisions recorded")
	}
}

// TestMBAHurtsCacheResidentWork demonstrates the paper's §VI-D criticism:
// the MBA rate controller throttles LLC-served requests too, so throttling
// a cache-resident task costs it throughput even though it generates
// almost no DRAM traffic.
func TestMBAHurtsCacheResidentWork(t *testing.T) {
	run := func(mba int) float64 {
		n := newNode(t)
		if _, err := n.Cgroups().Create("g", cgroup.Low); err != nil {
			t.Fatal(err)
		}
		if err := n.Cgroups().SetCPUs("g", n.Processor().SocketCores(0).Take(8)); err != nil {
			t.Fatal(err)
		}
		if err := n.Cgroups().SetMBA("g", mba); err != nil {
			t.Fatal(err)
		}
		// An LLC-resident kernel: heavy cache reuse, negligible DRAM.
		l, err := workload.NewLLCAggressor(n.Config().Memory.LLCSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.AddTask(l, "g"); err != nil {
			t.Fatal(err)
		}
		n.Run(500 * sim.Millisecond)
		n.StartMeasurement()
		n.Run(1 * sim.Second)
		return l.Throughput(n.Now())
	}
	full := run(100)
	throttled := run(20)
	if !(throttled < full*0.75) {
		t.Errorf("MBA at 20%% left cache-resident work at %.1f of %.1f — the LLC side effect is missing",
			throttled, full)
	}
}

func TestMBAControllerValidation(t *testing.T) {
	n := newNode(t)
	if _, err := NewMBAController(nil, MBAControllerConfig{}); err == nil {
		t.Error("nil node accepted")
	}
	if _, err := NewMBAController(n, MBAControllerConfig{Group: "ghost", SamplePeriod: 1}); err == nil {
		t.Error("missing group accepted")
	}
	n.Cgroups().Create("g", cgroup.Low)
	if _, err := NewMBAController(n, MBAControllerConfig{Group: "g", SamplePeriod: 0}); err == nil {
		t.Error("zero period accepted")
	}
}

func TestAllKindsIncludesExtensions(t *testing.T) {
	if len(AllKinds()) != 6 {
		t.Errorf("AllKinds = %v", AllKinds())
	}
	if MBAThrottle.String() != "MBA" || FineGrained.String() != "HW-FG" {
		t.Error("extension names wrong")
	}
}

func TestApplyRejectsDuplicateApplication(t *testing.T) {
	n := newNode(t)
	if _, err := Apply(n, Baseline, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(n, Baseline, DefaultOptions()); err == nil {
		t.Error("second Apply on the same node accepted")
	}
}

func TestAppliedSnapshotRestore(t *testing.T) {
	var none *Applied
	if st := none.Snapshot(); st != (ControllerState{}) {
		t.Errorf("nil Applied snapshot = %+v, want empty", st)
	}
	if err := none.Restore(ControllerState{}); err != nil {
		t.Errorf("nil Applied rejected an empty snapshot: %v", err)
	}

	n := newNode(t)
	a, err := Apply(n, CoreThrottle, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	agg, _ := workload.NewDRAMAggressor(workload.LevelHigh)
	if err := n.AddTask(agg, a.Low); err != nil {
		t.Fatal(err)
	}
	n.Run(3 * sim.Second)
	st := a.Snapshot()
	if st.Throttler == nil || st.Runtime != nil || st.MBA != nil {
		t.Fatalf("CT snapshot = %+v, want the throttler only", st)
	}
	if err := none.Restore(st); err == nil {
		t.Error("nil Applied accepted a throttler snapshot")
	}
	if err := a.Restore(ControllerState{}); err == nil {
		t.Error("CT policy accepted a snapshot without its throttler")
	}

	b, err := Apply(newNode(t), CoreThrottle, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	if b.Throttler.Cores() != a.Throttler.Cores() || len(b.Throttler.History()) != len(a.Throttler.History()) {
		t.Errorf("restored throttler at %d cores / %d decisions, want %d / %d",
			b.Throttler.Cores(), len(b.Throttler.History()), a.Throttler.Cores(), len(a.Throttler.History()))
	}
}
