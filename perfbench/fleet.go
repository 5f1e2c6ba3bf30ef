package main

import (
	"fmt"
	"time"

	"kelp/internal/experiments"
	"kelp/internal/fleet"
)

// fleetMachines is the fleet size of the study phase.
const fleetMachines = 20000

// fleetOut is one fleet study: its rows and layer counters.
type fleetOut struct {
	rows  []experiments.FleetStudyRow
	build time.Duration // summed over cases
	simul time.Duration
	tick  time.Duration
	// shapes is the summed count of distinct machine shapes simulated.
	shapes int
	// buildAllocs / tickAllocs are heap allocations (Mallocs) during
	// Build and Tick, summed over cases; both run serially.
	buildAllocs, tickAllocs uint64
}

// fleetSteps returns one step per experiments.FleetStudyCases entry at
// fleetMachines: fleet.Build → Simulate → Tick, configured exactly as
// experiments.FleetStudy does, with the fleet seed taken from the workload
// seed. Each step appends its row to out; traced, each case is a
// fleet.case span with the three calls as its children.
func fleetSteps(h *experiments.Harness, fleetSeed int64, tr *tracer, out *fleetOut) []step {
	m := h.MachineMeasurer()
	var steps []step
	for _, fc := range experiments.FleetStudyCases() {
		cfg := fleet.DefaultConfig()
		cfg.Machines = fleetMachines
		cfg.BatchTasks = fleetMachines * 3 / 10
		cfg.Policy = fc.Policy
		cfg.KelpFraction = fc.KelpFraction
		cfg.Faults = experiments.FleetFaultSpec(7)
		cfg.Horizon = experiments.ClusterFaultHorizon
		cfg.Seed = fleetSeed
		steps = append(steps, step{name: fc.Name, run: func() error {
			_, err := tr.timed("fleet.case", 0, func(parent uint64) error {
				return out.runCase(fc.Name, cfg, m, h.Parallel, tr, parent)
			})
			return err
		}})
	}
	return steps
}

// runCase builds, simulates and ticks one study case and appends its row.
func (out *fleetOut) runCase(name string, cfg fleet.Config, m fleet.Measurer, parallel int, tr *tracer, parent uint64) error {
	var f *fleet.Fleet
	var res *fleet.Result
	a0 := memStats().Mallocs
	d, err := tr.timed("fleet.build", parent, func(uint64) (e error) { f, e = fleet.Build(cfg); return })
	out.buildAllocs += memStats().Mallocs - a0
	if err != nil {
		return fmt.Errorf("fleet %s build: %w", name, err)
	}
	out.build += d
	out.shapes += len(f.Shapes())
	d, err = tr.timed("fleet.simulate", parent, func(uint64) error { return f.Simulate(m, parallel) })
	if err != nil {
		return fmt.Errorf("fleet %s simulate: %w", name, err)
	}
	out.simul += d
	a0 = memStats().Mallocs
	d, err = tr.timed("fleet.tick", parent, func(uint64) (e error) { res, e = f.Tick(); return })
	out.tickAllocs += memStats().Mallocs - a0
	if err != nil {
		return fmt.Errorf("fleet %s tick: %w", name, err)
	}
	out.tick += d
	out.rows = append(out.rows, experiments.FleetStudyRow{Case: name, Result: res})
	return nil
}

// text renders the study's table as kelpbench -exp fleet prints it.
func (out *fleetOut) text() string {
	return fmt.Sprintln(experiments.FleetTable(out.rows, fleetMachines))
}

// checkFleetMPG asserts Kelp wins fleet goodput under identical random
// placement: the all-Kelp fleet beats the Kelp-free one, and in the mixed
// fleet the Kelp-on population beats the Kelp-off one.
func checkFleetMPG(rows []experiments.FleetStudyRow) error {
	by := map[string]*fleet.Result{}
	for _, r := range rows {
		by[r.Case] = r.Result
	}
	off, on, mixed := by["random/kelp-0%"], by["random/kelp-100%"], by["random/kelp-50%"]
	if off == nil || on == nil || mixed == nil {
		return fmt.Errorf("fleet: random-placement cases missing")
	}
	if !(on.MPG > off.MPG) {
		return fmt.Errorf("fleet: Kelp-on MPG %.3f not above Kelp-off %.3f", on.MPG, off.MPG)
	}
	if !(mixed.MPGKelpOn > mixed.MPGKelpOff) {
		return fmt.Errorf("fleet: mixed fleet Kelp-on MPG %.3f not above Kelp-off %.3f", mixed.MPGKelpOn, mixed.MPGKelpOff)
	}
	return nil
}
