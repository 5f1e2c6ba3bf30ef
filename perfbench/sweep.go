package main

import (
	"fmt"
	"strings"
	"time"

	"kelp/internal/experiments"
	"kelp/internal/fleet"
	"kelp/internal/node"
	"kelp/internal/policy"
	"kelp/internal/sim"
	"kelp/internal/trace"
)

// newHarness builds the default evaluation harness for a workload seed.
// warm keeps incremental resolve on (the default); !warm is kelpbench
// -coldstart's NoIncremental.
func newHarness(warm bool, seed int64, parallel int) *experiments.Harness {
	h := experiments.NewHarness()
	h.Parallel = parallel
	h.Node.Seed = seed
	h.Node.NoIncremental = !warm
	return h
}

// setWarm sets the process-global warm-start switch and empties the
// warm-start cache, so each repetition starts as a fresh process would.
func setWarm(warm bool) {
	experiments.SetWarmStart(warm)
	experiments.ResetWarmCache()
}

// expNames lists the sweep's entry points in kelpbench -exp all order
// (fig14 is rendered from fig13's rows and has no entry point of its own).
var expNames = []string{"table1", "fig2", "fig3", "fig5", "fig7", "fig9", "fig10",
	"fig13", "fig15", "knee", "ratio", "futurework", "fig16"}

// step is one unit of timed work: an experiment entry point of the sweep
// or one case of the fleet study.
type step struct {
	name string
	run  func() error
}

// sweepOut is one sweep's rendered tables and per-entry-point timings.
type sweepOut struct {
	b       strings.Builder // the rendered tables; see text
	expTime map[string]time.Duration
	overall []experiments.OverallRow
}

func newSweepOut() *sweepOut { return &sweepOut{expTime: make(map[string]time.Duration)} }

// text returns the tables the steps rendered so far (all of them once
// every step has run).
func (out *sweepOut) text() string { return out.b.String() }

// sweepSteps returns every experiment entry point of kelpbench -exp all,
// in its order. The steps render their tables into out byte for byte as
// kelpbench prints them, so they must run in order.
func sweepSteps(h *experiments.Harness, out *sweepOut) []step {
	emit := func(a ...any) { fmt.Fprintln(&out.b, a...) }
	fns := map[string]func() error{
		"table1": func() error { emit(experiments.Table1Table()); return nil },
		"fig2": func() error {
			rows, above70, err := experiments.Figure2(fleet.DefaultCensusConfig())
			if err == nil {
				emit(experiments.Figure2Table(rows, above70))
			}
			return err
		},
		"fig3": func() error {
			r, err := experiments.Figure3(trace.DefaultConfig())
			if err != nil {
				return err
			}
			emit(experiments.Figure3Table(r))
			emit("standalone:", r.Standalone.Render(0.2e-3))
			emit("colocated :", r.Colocated.Render(0.2e-3))
			emit()
			return nil
		},
		"fig5": func() error {
			rows, err := experiments.Figure5(h)
			if err == nil {
				emit(experiments.SensitivityTable("Figure 5: workload sensitivity to shared resource interference", rows))
			}
			return err
		},
		"fig7": func() error {
			rows, err := experiments.Figure7(h)
			if err == nil {
				emit(experiments.BackpressureTable(rows))
			}
			return err
		},
		"fig9": func() error {
			rows, err := experiments.Figure9(h)
			if err != nil {
				return err
			}
			experiments.NormalizeCPU(rows, 1)
			emit(experiments.CaseStudyTable("Figures 9 & 11: CNN1 + Stitch sweep", "Stitch instances", rows))
			emit(experiments.CaseStudyChart("Fig. 9a: CNN1 perf vs Stitch instances", rows))
			return nil
		},
		"fig10": func() error {
			rows, err := experiments.Figure10(h)
			if err != nil {
				return err
			}
			experiments.NormalizeCPU(rows, 2)
			emit(experiments.CaseStudyTable("Figures 10 & 12: RNN1 + CPUML sweep", "CPUML threads", rows))
			emit(experiments.CaseStudyChart("Fig. 10a: RNN1 QPS vs CPUML threads", rows))
			return nil
		},
		"fig13": func() error {
			rows, err := experiments.Figure13(h)
			if err != nil {
				return err
			}
			out.overall = rows
			emit(experiments.OverallTable(rows))
			emit(experiments.EfficiencyTable(experiments.Figure14(rows)))
			return nil
		},
		"fig15": func() error {
			rows, err := experiments.Figure15(h)
			if err == nil {
				emit(experiments.SensitivityTable("Figure 15: sensitivity including remote memory interference", rows))
			}
			return err
		},
		"knee": func() error {
			rows, err := experiments.KneeSweep(h, nil)
			if err != nil {
				return err
			}
			emit(experiments.KneeTable(rows))
			emit(experiments.KneeChart(rows))
			return nil
		},
		"ratio": func() error {
			rows, err := experiments.RatioSweep(h)
			if err == nil {
				emit(experiments.RatioTable(rows))
			}
			return err
		},
		"futurework": func() error {
			rows, err := experiments.FutureWork(h)
			if err == nil {
				emit(experiments.FutureWorkTable(rows))
			}
			return err
		},
		"fig16": func() error {
			rows, err := experiments.Figure16(h)
			if err == nil {
				emit(experiments.RemoteSweepTable(rows))
			}
			return err
		},
	}
	steps := make([]step, len(expNames))
	for i, name := range expNames {
		steps[i] = step{name: name, run: fns[name]}
	}
	return steps
}

// runSweep runs the sweep's steps back to back, each as a span under
// parent.
func runSweep(h *experiments.Harness, tr *tracer, parent uint64) (*sweepOut, error) {
	out := newSweepOut()
	for _, st := range sweepSteps(h, out) {
		d, err := tr.timed("experiments."+st.name, parent, func(uint64) error { return st.run() })
		if err != nil {
			return nil, fmt.Errorf("sweep %s: %w", st.name, err)
		}
		out.expTime[st.name] = d
	}
	return out, nil
}

// checkFig13 asserts the paper's ML-performance ordering on the Fig. 13
// averages: BL < CT < KP <= KP-SD, i.e. mean ML slowdown BL > CT > KP >= KP-SD.
func checkFig13(rows []experiments.OverallRow) error {
	slow := map[policy.Kind]float64{}
	for _, s := range experiments.Summarize(rows) {
		slow[s.Policy] = s.MeanMLSlowdown
	}
	bl, ct, kp, sd := slow[policy.Baseline], slow[policy.CoreThrottle], slow[policy.Kelp], slow[policy.KelpSubdomain]
	if !(bl > ct && ct > kp && kp >= sd) {
		return fmt.Errorf("fig13 ML slowdown order broken: BL %.3f CT %.3f KP %.3f KP-SD %.3f", bl, ct, kp, sd)
	}
	return nil
}

// cellProbe times one experiments.Run of the Fig. 9 sweep point (CNN1 +
// 6 Stitch under Kelp) twice: the first call warms up (a warm-start miss),
// the repeat restores the cached warmup when warm start is on (a hit).
func cellProbe(h *experiments.Harness, tr *tracer) (miss, hit time.Duration, err error) {
	opts := h.Opts
	opts.MLCores = experiments.CNN1.MLCores()
	s := experiments.Scenario{
		ML: experiments.CNN1, CPU: experiments.StitchSweep(6), Policy: policy.Kelp,
		Opts: opts, Node: h.Node, Warmup: h.Warmup, Measure: h.Measure,
	}
	experiments.ResetWarmCache()
	var first, second *experiments.Result
	miss, err = tr.timed("experiments.cell_miss", 0, func(uint64) (e error) { first, e = experiments.Run(s); return })
	if err != nil {
		return 0, 0, err
	}
	hit, err = tr.timed("experiments.cell_hit", 0, func(uint64) (e error) { second, e = experiments.Run(s); return })
	if err != nil {
		return 0, 0, err
	}
	if first.MLThroughput != second.MLThroughput || first.CPUUnits != second.CPUUnits {
		return 0, 0, fmt.Errorf("cell probe: repeat run differs (ML %v vs %v, CPU %v vs %v)",
			first.MLThroughput, second.MLThroughput, first.CPUUnits, second.CPUUnits)
	}
	return miss, hit, nil
}

// tickProbe is the simulation-layer probe: it builds one Fig. 9 cell by
// hand and steps its engine in timed chunks.
type tickProbe struct {
	tickNS      float64 // per Engine.Tick, incremental resolve on
	tickFullNS  float64 // per Engine.Tick, NoIncremental
	ticks       uint64  // Engine.Steps over both runs
	fullResolve float64 // full memsys fixed points per tick, incremental run
}

// probeTicks steps the Fig. 9 cell with and without incremental resolve.
func probeTicks(seed int64, tr *tracer) (*tickProbe, error) {
	p := &tickProbe{}
	for _, incremental := range []bool{true, false} {
		cfg := node.DefaultConfig()
		cfg.Seed = seed
		cfg.NoIncremental = !incremental
		name := "sim.tick_full"
		if incremental {
			name = "sim.tick"
		}
		var perTick float64
		var steps, resolves uint64
		_, err := tr.timed(name, 0, func(id uint64) error {
			n, err := buildProbeCell(cfg)
			if err != nil {
				return err
			}
			eng := n.Engine()
			// Let controllers settle before timing.
			n.Run(500 * sim.Millisecond)
			seq0, steps0 := n.Memory().Last().Seq(), eng.Steps()
			const chunks, perChunk = 20, 100
			var busy time.Duration
			for c := 0; c < chunks; c++ {
				start := time.Now()
				for i := 0; i < perChunk; i++ {
					eng.Tick()
				}
				end := time.Now()
				tr.record(tr.newID(), id, 0, name+"_chunk", start, end)
				busy += end.Sub(start)
			}
			steps = eng.Steps() - steps0
			resolves = n.Memory().Last().Seq() - seq0
			perTick = float64(busy.Nanoseconds()) / float64(steps)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("tick probe: %w", err)
		}
		p.ticks += steps
		if incremental {
			p.tickNS = perTick
			p.fullResolve = float64(resolves) / float64(steps)
		} else {
			p.tickFullNS = perTick
		}
	}
	return p, nil
}

// buildProbeCell assembles CNN1 + 6 Stitch under Kelp from the public
// constructors, as experiments.Run would.
func buildProbeCell(cfg node.Config) (*node.Node, error) {
	ml := experiments.CNN1
	cfg.Memory.CoherenceFactor = ml.Platform().HostCoherencePenalty
	n, err := node.New(cfg)
	if err != nil {
		return nil, err
	}
	opts := policy.DefaultOptions()
	opts.MLCores = ml.MLCores()
	applied, err := policy.Apply(n, policy.Kelp, opts)
	if err != nil {
		return nil, err
	}
	if _, err := experiments.NewMLTask(n, ml, applied.ML); err != nil {
		return nil, err
	}
	for i, spec := range experiments.StitchSweep(6) {
		t, err := experiments.NewCPUTask(spec, i, cfg.Memory.LLCSize)
		if err != nil {
			return nil, err
		}
		group := applied.Low
		if spec.Backfill && applied.Backfill != "" {
			group = applied.Backfill
		}
		if err := n.AddTask(t, group); err != nil {
			return nil, err
		}
	}
	return n, nil
}
