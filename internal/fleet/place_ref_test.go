package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kelp/internal/events"
)

// The reference placer: the original linear-scan implementation, kept
// only as a test oracle. Every batch placement and rebalance move scans
// all machines through a predicate, which makes it quadratic in fleet
// size; the indexed placer in place.go must reproduce its placements and
// its placement event stream exactly.

// refBuild is Build with the reference placer.
func refBuild(cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f, rng := drawMachines(cfg)
	if err := f.refPlace(rng); err != nil {
		return nil, err
	}
	f.collectShapes()
	return f, nil
}

func (f *Fleet) refPlace(rng *rand.Rand) error {
	for j := 0; j < f.cfg.Jobs; j++ {
		if err := f.refPlaceJob(j, rng); err != nil {
			return err
		}
	}
	f.refPlaceBatch(rng)
	f.refSaturationPass()
	return nil
}

func (f *Fleet) refWorkerCandidates(rng *rand.Rand) []*Machine {
	var cand []*Machine
	for i := range f.machines {
		if f.machines[i].Job < 0 {
			cand = append(cand, &f.machines[i])
		}
	}
	switch f.cfg.Policy {
	case PolicyRandom:
		rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	case PolicyBandwidth:
		sortByLoad(cand)
	case PolicyDistress:
		sort.SliceStable(cand, func(i, j int) bool {
			di := cand[i].estLoad()+workerLoadEst > SaturateMark
			dj := cand[j].estLoad()+workerLoadEst > SaturateMark
			if di != dj {
				return !di
			}
			return lessLoad(cand[i], cand[j])
		})
	case PolicyKelpAware:
		sort.SliceStable(cand, func(i, j int) bool {
			if cand[i].KelpOn != cand[j].KelpOn {
				return cand[i].KelpOn
			}
			return lessLoad(cand[i], cand[j])
		})
	}
	return cand
}

func (f *Fleet) refPlaceJob(j int, rng *rand.Rand) error {
	cand := f.refWorkerCandidates(rng)
	if len(cand) < f.cfg.WorkersPerJob {
		return fmt.Errorf("fleet: job %d needs %d machines, %d free", j, f.cfg.WorkersPerJob, len(cand))
	}
	kelpOn := 0
	for w := 0; w < f.cfg.WorkersPerJob; w++ {
		cand[w].Job = j
		if cand[w].KelpOn {
			kelpOn++
		}
	}
	if f.cfg.Events.Enabled() {
		f.cfg.Events.Emit(0, events.FleetPlace, "fleet", map[string]any{
			"job":     j,
			"workers": f.cfg.WorkersPerJob,
			"kelp_on": kelpOn,
			"policy":  string(f.cfg.Policy),
		})
	}
	return nil
}

func (f *Fleet) refPlaceBatch(rng *rand.Rand) {
	if f.cfg.BatchTasks == 0 {
		return
	}
	for t := 0; t < f.cfg.BatchTasks; t++ {
		if m := f.refPickBatchMachine(rng); m != nil {
			m.Batch++
		}
	}
	placed := 0
	for i := range f.machines {
		placed += f.machines[i].Batch
	}
	if f.cfg.Events.Enabled() {
		f.cfg.Events.Emit(0, events.FleetPlace, "fleet", map[string]any{
			"batch_tasks": placed,
			"requested":   f.cfg.BatchTasks,
			"policy":      string(f.cfg.Policy),
		})
	}
}

func (f *Fleet) refPickBatchMachine(rng *rand.Rand) *Machine {
	switch f.cfg.Policy {
	case PolicyRandom:
		for try := 0; try < 4*len(f.machines); try++ {
			m := &f.machines[rng.Intn(len(f.machines))]
			if m.Batch < MaxBatchPerMach {
				return m
			}
		}
		return f.refMinLoadMachine(func(m *Machine) bool { return m.Batch < MaxBatchPerMach })
	case PolicyBandwidth:
		return f.refMinLoadMachine(func(m *Machine) bool { return m.Batch < MaxBatchPerMach })
	case PolicyDistress:
		if m := f.refMinLoadMachine(func(m *Machine) bool {
			return m.Batch < MaxBatchPerMach && m.Job < 0 && m.estLoad()+batchLoadEst <= SaturateMark
		}); m != nil {
			return m
		}
		if m := f.refMinLoadMachine(func(m *Machine) bool {
			return m.Batch < MaxBatchPerMach && m.estLoad()+batchLoadEst <= SaturateMark
		}); m != nil {
			return m
		}
		return f.refMinLoadMachine(func(m *Machine) bool { return m.Batch < MaxBatchPerMach })
	case PolicyKelpAware:
		if m := f.refMinLoadMachine(func(m *Machine) bool {
			return m.Batch < MaxBatchPerMach && m.Job >= 0 && m.KelpOn
		}); m != nil {
			return m
		}
		if m := f.refMinLoadMachine(func(m *Machine) bool {
			return m.Batch < MaxBatchPerMach && m.Job < 0 && m.estLoad()+batchLoadEst <= SaturateMark
		}); m != nil {
			return m
		}
		return f.refMinLoadMachine(func(m *Machine) bool { return m.Batch < MaxBatchPerMach })
	}
	return nil
}

// refMinLoadMachine returns the eligible machine with the lowest
// estimated load (lowest ID on ties), or nil when none is eligible.
func (f *Fleet) refMinLoadMachine(ok func(*Machine) bool) *Machine {
	var best *Machine
	for i := range f.machines {
		m := &f.machines[i]
		if !ok(m) {
			continue
		}
		if best == nil || m.estLoad() < best.estLoad() {
			best = m
		}
	}
	return best
}

func (f *Fleet) refSaturationPass() {
	rebalance := f.cfg.Policy == PolicyDistress || f.cfg.Policy == PolicyKelpAware
	for i := range f.machines {
		m := &f.machines[i]
		if m.Job < 0 || m.estLoad() <= SaturateMark {
			continue
		}
		if f.cfg.Events.Enabled() {
			f.cfg.Events.Emit(0, events.MachineSaturate, "fleet", map[string]any{
				"machine": m.ID,
				"est_bw":  m.estLoad(),
				"job":     m.Job,
			})
		}
		if !rebalance {
			continue
		}
		for m.Batch > 0 && m.estLoad() > SaturateMark {
			dst := f.refMinLoadMachine(func(d *Machine) bool {
				return d.Job < 0 && d.Batch < MaxBatchPerMach &&
					d.estLoad()+batchLoadEst <= SaturateMark
			})
			if dst == nil {
				dst = f.refMinLoadMachine(func(d *Machine) bool {
					return d.Job < 0 && d.Batch < MaxBatchPerMach
				})
			}
			if dst == nil {
				break
			}
			m.Batch--
			dst.Batch++
			if f.cfg.Events.Enabled() {
				f.cfg.Events.Emit(0, events.FleetEvict, "fleet", map[string]any{
					"machine": m.ID,
					"reason":  "saturation",
				})
				f.cfg.Events.Emit(0, events.FleetRebalance, "fleet", map[string]any{
					"from": m.ID,
					"to":   dst.ID,
				})
			}
		}
	}
}

// comparePlacers builds cfg with both placers, a recorder attached to
// each, and fails unless machines, shapes and placement events match. It
// runs as a parallel subtest: the reference placer is quadratic.
func comparePlacers(t *testing.T, cfg Config) {
	name := fmt.Sprintf("n=%d/%s/kelp=%v/seed=%d/batch=%d",
		cfg.Machines, cfg.Policy, cfg.KelpFraction, cfg.Seed, cfg.BatchTasks)
	t.Run(name, func(t *testing.T) {
		t.Parallel()
		build := func(b func(Config) (*Fleet, error)) (*Fleet, []events.Event) {
			rec := events.MustNew(1 << 16)
			c := cfg
			c.Events = rec
			f, err := b(c)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Dropped() > 0 {
				t.Fatalf("recorder dropped %d events", rec.Dropped())
			}
			return f, rec.Events()
		}
		got, gotEv := build(Build)
		want, wantEv := build(refBuild)
		for i, w := range want.Machines() {
			if g := got.Machines()[i]; g != w {
				t.Fatalf("machine %d placed %+v, reference %+v", i, g, w)
			}
		}
		if !reflect.DeepEqual(got.Shapes(), want.Shapes()) {
			t.Fatal("shapes differ from the reference placer")
		}
		if !reflect.DeepEqual(gotEv, wantEv) {
			t.Fatalf("placement events differ from the reference placer (%d vs %d)", len(gotEv), len(wantEv))
		}
	})
}

// The indexed placer must reproduce the linear-scan reference exactly:
// machines, shapes and the fleet.place/fleet.evict/fleet.rebalance/
// machine.saturate stream, for every policy, Kelp mix and seed, at light
// batch load and near the per-machine batch cap.
func TestPlacementMatchesReference(t *testing.T) {
	for _, n := range []int{300, 2000} {
		for _, p := range Policies() {
			for _, kf := range []float64{0, 0.1, 0.5, 1} {
				for seed := int64(1); seed <= 3; seed++ {
					for _, batch := range []int{n * 3 / 10, n * 38 / 10} {
						cfg := DefaultConfig()
						cfg.Machines = n
						cfg.BatchTasks = batch
						cfg.Policy = p
						cfg.KelpFraction = kf
						cfg.Seed = seed
						comparePlacers(t, cfg)
					}
				}
			}
		}
	}
	if testing.Short() {
		return
	}
	// The study's own configuration at 20k machines; the reference is
	// quadratic, so only the study's batch density.
	for _, p := range Policies() {
		cfg := DefaultConfig()
		cfg.Machines = 20000
		cfg.BatchTasks = cfg.Machines * 3 / 10
		cfg.Policy = p
		comparePlacers(t, cfg)
	}
}

// The batch index must agree with the linear scan in every class through
// arbitrary batch changes, including exact load ties, which both break by
// lowest ID.
func TestBatchIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := &Fleet{machines: make([]Machine, 200)}
	for i := range f.machines {
		m := &f.machines[i]
		m.ID = i
		m.Load = 0.1 * float64(rng.Intn(4))
		m.KelpOn = rng.Intn(2) == 0
		m.Job = -1
		if rng.Intn(3) == 0 {
			m.Job = rng.Intn(4)
		}
	}
	ix := newBatchIndex(f.machines)
	classes := []struct {
		name string
		h    *machineHeap
		ok   func(*Machine) bool
	}{
		{"all", &ix.all, func(m *Machine) bool { return m.Batch < MaxBatchPerMach }},
		{"free", &ix.free, func(m *Machine) bool { return m.Batch < MaxBatchPerMach && m.Job < 0 }},
		{"kelp", &ix.kelp, func(m *Machine) bool { return m.Batch < MaxBatchPerMach && m.Job >= 0 && m.KelpOn }},
	}
	for step := 0; step < 5000; step++ {
		m := &f.machines[rng.Intn(len(f.machines))]
		d := 1
		if m.Batch == MaxBatchPerMach || (m.Batch > 0 && rng.Intn(5) < 2) {
			d = -1
		}
		ix.addBatch(m, d)
		for _, c := range classes {
			if got, want := c.h.top(), f.refMinLoadMachine(c.ok); got != want {
				t.Fatalf("step %d: %s heap top %+v, scan %+v", step, c.name, got, want)
			}
		}
	}
}
