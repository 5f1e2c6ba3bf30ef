package fleet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"kelp/internal/events"
)

// place assigns every job's workers and every batch task to machines under
// the configured policy, then (for the distress-aware policies) runs one
// rebalance pass that moves batch work off saturated worker machines. All
// decisions are serial and draw only from the given seeded rng, so
// placement is deterministic in (Config, Seed).
//
// Batch placement and rebalancing pick least-loaded machines from indexed
// heaps (batchIndex), so the whole pass costs
// O((jobs·workers + batch + moves)·log n) on n machines.
func (f *Fleet) place(rng *rand.Rand) error {
	if err := f.placeJobs(rng); err != nil {
		return err
	}
	ix := newBatchIndex(f.machines)
	f.placeBatch(rng, ix)
	f.saturationPass(ix)
	return nil
}

// placeJobs assigns each job's workers to the policy's top-ranked free
// machines. The non-random policies rank on keys that stay fixed while
// workers are placed (batch comes later), so the ranking is computed once
// and job j takes the next WorkersPerJob entries; the random policy
// reshuffles the remaining free machines for every job.
func (f *Fleet) placeJobs(rng *rand.Rand) error {
	cand := make([]*Machine, 0, len(f.machines))
	next := 0
	for j := 0; j < f.cfg.Jobs; j++ {
		if j == 0 || f.cfg.Policy == PolicyRandom {
			cand, next = f.workerCandidates(cand[:0], rng), 0
		}
		if len(cand)-next < f.cfg.WorkersPerJob {
			return fmt.Errorf("fleet: job %d needs %d machines, %d free", j, f.cfg.WorkersPerJob, len(cand)-next)
		}
		f.placeJob(j, cand[next:next+f.cfg.WorkersPerJob])
		next += f.cfg.WorkersPerJob
	}
	return nil
}

// workerCandidates appends to cand the machines able to host a worker (no
// worker yet), ordered by the policy's preference.
func (f *Fleet) workerCandidates(cand []*Machine, rng *rand.Rand) []*Machine {
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
		// Below-watermark machines first (each group least-loaded first):
		// a worker should not land on a machine already near saturation.
		sort.SliceStable(cand, func(i, j int) bool {
			di := cand[i].estLoad()+workerLoadEst > SaturateMark
			dj := cand[j].estLoad()+workerLoadEst > SaturateMark
			if di != dj {
				return !di
			}
			return lessLoad(cand[i], cand[j])
		})
	case PolicyKelpAware:
		// Kelp-on machines first — the protected population is where ML
		// belongs — then by headroom within each population.
		sort.SliceStable(cand, func(i, j int) bool {
			if cand[i].KelpOn != cand[j].KelpOn {
				return cand[i].KelpOn
			}
			return lessLoad(cand[i], cand[j])
		})
	}
	return cand
}

// placeJob assigns job j's workers to the given machines and emits one
// fleet.place event.
func (f *Fleet) placeJob(j int, workers []*Machine) {
	kelpOn := 0
	for _, m := range workers {
		m.Job = j
		if m.KelpOn {
			kelpOn++
		}
	}
	if f.cfg.Events.Enabled() {
		f.cfg.Events.Emit(0, events.FleetPlace, "fleet", map[string]any{
			"job":     j,
			"workers": len(workers),
			"kelp_on": kelpOn,
			"policy":  string(f.cfg.Policy),
		})
	}
}

// placeBatch assigns every batch task to a machine under the policy and
// emits one summarizing fleet.place event.
func (f *Fleet) placeBatch(rng *rand.Rand, ix *batchIndex) {
	if f.cfg.BatchTasks == 0 {
		return
	}
	placed := 0
	for t := 0; t < f.cfg.BatchTasks; t++ {
		if m := f.pickBatchMachine(rng, ix); m != nil {
			ix.addBatch(m, 1)
			placed++
		}
	}
	if f.cfg.Events.Enabled() {
		f.cfg.Events.Emit(0, events.FleetPlace, "fleet", map[string]any{
			"batch_tasks": placed,
			"requested":   f.cfg.BatchTasks,
			"policy":      string(f.cfg.Policy),
		})
	}
}

// pickBatchMachine selects the machine for one batch task, or nil when the
// whole fleet is at the per-machine batch cap. Every choice is the
// least-loaded machine (lowest ID on ties) of some eligible set.
func (f *Fleet) pickBatchMachine(rng *rand.Rand, ix *batchIndex) *Machine {
	switch f.cfg.Policy {
	case PolicyRandom:
		// Rejection-sample a machine with batch headroom; fall back to the
		// least-loaded one when the fleet is nearly full so placement
		// always ends.
		for try := 0; try < 4*len(f.machines); try++ {
			m := &f.machines[rng.Intn(len(f.machines))]
			if m.Batch < MaxBatchPerMach {
				return m
			}
		}
		return ix.all.top()
	case PolicyBandwidth:
		return ix.all.top()
	case PolicyDistress:
		// Prefer machines that stay below the watermark and host no
		// worker; then the least-loaded machine with headroom, which is
		// below the watermark whenever any machine is.
		if m := underMark(ix.free.top()); m != nil {
			return m
		}
		return ix.all.top()
	case PolicyKelpAware:
		// Colocate onto Kelp-protected worker machines first, watermark be
		// damned — node-level QoS keeps the ML side safe, and the
		// saturation pass afterwards trims overloaded machines back (the
		// colocate-then-trim loop). Overflow to idle-ish non-worker
		// machines, then anywhere with headroom.
		if m := ix.kelp.top(); m != nil {
			return m
		}
		if m := underMark(ix.free.top()); m != nil {
			return m
		}
		return ix.all.top()
	}
	return nil
}

// underMark returns m if one more batch task keeps it at or below the
// watermark, else nil. The test is monotone in estLoad, so applied to a
// heap's top it answers for the least-loaded below-watermark machine of
// that heap: the top is it, or no machine of the heap qualifies.
func underMark(m *Machine) *Machine {
	if m != nil && m.estLoad()+batchLoadEst <= SaturateMark {
		return m
	}
	return nil
}

// saturationPass inspects every worker machine's estimated load. Machines
// across the watermark emit machine.saturate; under the distress-aware
// policies (PolicyDistress, PolicyKelpAware) their batch tasks are then
// evicted down to the watermark and rebalanced onto best-effort-only
// machines — on a distressed ML machine, batch is either throttled to
// scraps (Kelp) or poisoning the worker (Baseline), so even a busier
// machine with no SLO to protect is a strictly better home. For the
// Kelp-aware policy this is the trim half of its colocate-then-trim loop;
// random and plain bin-packing keep their saturating placements, which is
// exactly the contrast the fleet study measures.
func (f *Fleet) saturationPass(ix *batchIndex) {
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
			// The least-loaded best-effort-only machine with batch
			// capacity: below the watermark whenever any such machine is.
			dst := ix.free.top()
			if dst == nil {
				break
			}
			ix.addBatch(m, -1)
			ix.addBatch(dst, 1)
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

// batchIndex holds the machines with batch headroom (Batch <
// MaxBatchPerMach) in three min-heaps, one per eligibility class the
// policies choose from. It is built once workers are placed; from then on
// only Batch changes, so Job and KelpOn fix each machine's class.
type batchIndex struct {
	all  machineHeap // every machine with headroom
	free machineHeap // ... hosting no worker
	kelp machineHeap // ... hosting a worker on a Kelp-on machine
}

// newBatchIndex indexes machines whose workers are placed and which hold
// no batch yet, so every machine has headroom.
func newBatchIndex(ms []Machine) *batchIndex {
	ix := &batchIndex{}
	for _, h := range []*machineHeap{&ix.all, &ix.free, &ix.kelp} {
		h.ms = ms
		h.pos = make([]int, len(ms))
		for i := range h.pos {
			h.pos[i] = -1
		}
	}
	for i := range ms {
		ix.all.append(i)
		if h := ix.class(&ms[i]); h != nil {
			h.append(i)
		}
	}
	heap.Init(&ix.all)
	heap.Init(&ix.free)
	heap.Init(&ix.kelp)
	return ix
}

// class returns the heap besides all that m belongs to, or nil for a
// worker machine running Baseline.
func (ix *batchIndex) class(m *Machine) *machineHeap {
	switch {
	case m.Job < 0:
		return &ix.free
	case m.KelpOn:
		return &ix.kelp
	}
	return nil
}

// addBatch changes m's batch count by d and restores every heap m belongs
// to.
func (ix *batchIndex) addBatch(m *Machine, d int) {
	m.Batch += d
	ix.all.update(m.ID)
	if h := ix.class(m); h != nil {
		h.update(m.ID)
	}
}

// machineHeap is an indexed min-heap of machine indices (container/heap)
// ordered by (estLoad, ID): its top is the machine a linear scan for the
// lowest estimated load, lowest ID on ties, would pick. pos records each
// machine's slot (-1 when absent) so a machine whose load changed is fixed
// or removed in O(log n).
type machineHeap struct {
	ms   []Machine
	heap []int
	pos  []int
}

func (h *machineHeap) Len() int { return len(h.heap) }

func (h *machineHeap) Less(a, b int) bool {
	x, y := &h.ms[h.heap[a]], &h.ms[h.heap[b]]
	if lx, ly := x.estLoad(), y.estLoad(); lx != ly {
		return lx < ly
	}
	return x.ID < y.ID
}

func (h *machineHeap) Swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.pos[h.heap[a]], h.pos[h.heap[b]] = a, b
}

func (h *machineHeap) Push(x any) { h.append(x.(int)) }

func (h *machineHeap) Pop() any {
	i := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.pos[i] = -1
	return i
}

// append adds machine i at the end of the heap slice without restoring
// the heap order.
func (h *machineHeap) append(i int) {
	h.pos[i] = len(h.heap)
	h.heap = append(h.heap, i)
}

// top returns the least-loaded machine, or nil when the heap is empty.
func (h *machineHeap) top() *Machine {
	if len(h.heap) == 0 {
		return nil
	}
	return &h.ms[h.heap[0]]
}

// update restores the heap after machine i's batch count changed: a
// machine at the batch cap leaves, one below it is re-sifted or re-enters.
func (h *machineHeap) update(i int) {
	p := h.pos[i]
	switch {
	case h.ms[i].Batch >= MaxBatchPerMach:
		if p >= 0 {
			heap.Remove(h, p)
		}
	case p >= 0:
		heap.Fix(h, p)
	default:
		heap.Push(h, i)
	}
}

// lessLoad orders machines by census load, lowest ID on ties.
func lessLoad(a, b *Machine) bool {
	if a.Load != b.Load {
		return a.Load < b.Load
	}
	return a.ID < b.ID
}

// sortByLoad sorts machines least-loaded first, stable by ID.
func sortByLoad(ms []*Machine) {
	sort.SliceStable(ms, func(i, j int) bool { return lessLoad(ms[i], ms[j]) })
}
