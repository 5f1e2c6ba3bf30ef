// Command perfbench is the repository's end-to-end benchmark. One run
// drives the three public surfaces of the Kelp reproduction in one process
// — the kelpd session server (httpd.New / Handler over loopback HTTP), the
// full kelpbench experiment sweep (experiments.*) and the 20,000-machine
// fleet study (fleet.Build / Simulate / Tick) — checks every output for
// correctness, and prints each metric by name with its unit. The last
// stdout line is one JSON object: {"correct","attempted","failed","metrics"}.
//
//	perfbench --workload warm|cold --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans around
// the same calls (in this package only), writes them as JSON Lines and
// reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fixedRate is the request rate of the fixed-rate phase: 0.22 of the
// median kelpd.max_rate_rps measured on a 2-vCPU VM (see README.md).
const fixedRate = 1500

// workload is one named input set.
type workload struct {
	warm       bool // warm-start cache and incremental resolve on
	sweepReps  int  // sweep repetitions; the median wall time is reported
	fleetReps  int  // fleet study repetitions, likewise
	snapEvery  int  // kelpd snapshot cadence (-1 = replay-only recovery)
	descriptor string
}

var workloads = map[string]workload{
	"warm": {warm: true, sweepReps: 5, fleetReps: 3, snapEvery: 0,
		descriptor: "warm-start cache + incremental resolve on; kelpd snapshots every 16 records"},
	"cold": {warm: false, sweepReps: 1, fleetReps: 1, snapEvery: -1,
		descriptor: "warm start off + NoIncremental (kelpbench -coldstart); kelpd replay-only recovery"},
}

func main() {
	name := flag.String("workload", "", "workload: warm or cold")
	seed := flag.Int64("seed", 1, "workload seed (1 reproduces kelpbench's default tables)")
	seconds := flag.Int("seconds", 8, "length of the kelpd fixed-rate phase, in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "scratch directory for persist dirs and traces")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload warm|cold, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	rep, err := run(os.Stdout, *name, wl, *seed, *seconds, *traceFlag == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// checks collects correctness failures; any failure marks the run incorrect.
type checks struct {
	w      io.Writer
	failed []string
}

func (c *checks) check(name string, err error) {
	if err != nil {
		c.failed = append(c.failed, name+": "+err.Error())
		fmt.Fprintf(c.w, "check %-24s FAIL %v\n", name, err)
		return
	}
	fmt.Fprintf(c.w, "check %-24s ok\n", name)
}

func run(w io.Writer, name string, wl workload, seed int64, seconds int, traced bool, outDir string) (*report, error) {
	nproc := runtime.NumCPU()
	runDir := filepath.Join(outDir, fmt.Sprintf("run-%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	fmt.Fprintf(w, "perfbench workload=%s (%s) seed=%d seconds=%d trace=%v\n", name, wl.descriptor, seed, seconds, traced)
	fmt.Fprintf(w, "stamp commit=%s go=%s nproc=%d gomaxprocs=%d persist_fs=%s\n",
		commit(), runtime.Version(), nproc, runtime.GOMAXPROCS(0), fsType(runDir))

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	ck := &checks{w: w}
	m := map[string]metric{}
	put := func(key string, v float64, unit string) { m[key] = metric{Value: v, Unit: unit} }
	rng := rand.New(rand.NewSource(seed))
	setWarm(wl.warm)

	// kelpd: the persisted set-up, the fixed-rate phase and its checks.
	plan := kelpdPlan{
		sessions: 200, faultEvery: 5, advanceMS: 20,
		rate: fixedRate, probeReads: 5000,
		ladderBase: 500, probeSec: 0.75, ladderStep: 1.05, ladderLen: 80, limitMS: 5,
		setups: 21, recoveries: 11, snapEvery: wl.snapEvery, conns: nproc, verify: 4,
	}
	plan.fixedN = int(plan.rate * float64(seconds))
	k := newKelpd(plan, seed, filepath.Join(runDir, "persist"), tr)
	settle()
	persistSetup, err := k.setup()
	if err != nil {
		return nil, err
	}
	defer k.stop()

	var fixed, fixedUntraced *phaseStats
	settle()
	if traced {
		// The same schedule length untraced first: the tracing overhead.
		k.tr = nil
		fixedUntraced = k.openLoop("fixed-untraced", k.schedule(rng, plan.fixedN, plan.rate))
		k.tr = tr
	}
	k.takeReadHandler() // only the measured phase's reads count
	fixed = k.openLoop("fixed", k.schedule(rng, plan.fixedN, plan.rate))
	readHandler := summarize(k.takeReadHandler())
	printPhase(w, fixed)
	if fixedUntraced != nil {
		printPhase(w, fixedUntraced)
	}

	// Untimed: serial replay identity, allocations per read, state
	// digests, disk and health.
	ck.check("kelpd.replay", k.verifyReplay(rng))
	readAllocs, err := k.readAllocs(rng)
	if err != nil {
		return nil, err
	}
	before, err := k.digests()
	if err != nil {
		return nil, err
	}
	hBefore, err := k.health()
	if err != nil {
		return nil, err
	}
	k.stop()
	walB, snapB, err := diskUsage(k.dir)
	if err != nil {
		return nil, err
	}
	// The measured section: the sweep and fleet repetitions, with the
	// kelpd set-ups and recoveries spread between their steps.
	sent0, failed0, _ := k.totals()
	var setups, recoveries []float64
	var setupReqs int // every set-up request succeeded, or setup failed
	var hAfter map[string]any
	var small []func() error
	for i := 0; i < plan.setups; i++ {
		small = append(small, func() error {
			// setup_s times set-ups without persistence: with it, three
			// quarters of a set-up is waiting for 800 fsyncs, whose
			// latency on a shared disk moved the median of identical runs
			// by up to 1.6x (README.md). The persisted set-up the phases
			// run on is timed once, per layer.
			sk := newKelpd(plan, seed, "", tr)
			settle()
			d, err := sk.setup()
			sk.stop()
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
			n, _, _ := sk.totals()
			setupReqs += n
			return nil
		})
	}
	var recovers []func() error
	for i := 0; i < plan.recoveries; i++ {
		recovers = append(recovers, func() error {
			settle()
			d, err := k.start()
			if err != nil {
				return fmt.Errorf("recovery: %w", err)
			}
			defer k.stop()
			recoveries = append(recoveries, d.Seconds())
			if i > 0 {
				return nil
			}
			if hAfter, err = k.health(); err != nil {
				return err
			}
			after, err := k.digests()
			if err != nil {
				return err
			}
			ck.check("kelpd.recovery_identity", sameDigests(before, after))
			return nil
		})
	}
	fleetReps := wl.fleetReps
	if traced {
		fleetReps = 1 // traced once, for the fleet layer
	}
	sweeps := make([]*rep, wl.sweepReps)
	fleets := make([]*rep, fleetReps)
	var sweep *sweepOut
	var fl *fleetOut
	for i := range sweeps {
		out := newSweepOut()
		if i == 0 {
			sweep = out
		}
		sweeps[i] = newRep(wl.warm, sweepSteps(newHarness(wl.warm, seed, nproc), out))
	}
	for i := range fleets {
		out := &fleetOut{}
		if i == 0 {
			fl = out
		}
		fleets[i] = newRep(wl.warm, fleetSteps(newHarness(wl.warm, seed, nproc), seed+1, tr, out))
	}
	var heavy []func() error
	if wl.warm {
		// The warm-start cache is shared by the sweep and the fleet
		// study, so each repetition runs whole: sweep, fleet, sweep, ...
		for i := 0; i < max(len(sweeps), len(fleets)); i++ {
			if i < len(sweeps) {
				heavy = append(heavy, sweeps[i].tasks...)
			}
			if i < len(fleets) {
				heavy = append(heavy, fleets[i].tasks...)
			}
		}
	} else {
		// With the cache off the steps are independent, so the sweep and
		// the fleet study are spread over the same stretch of time.
		heavy = interleave(sweeps[0].tasks, fleets[0].tasks)
	}
	// After every task the reference kernel samples the host's speed;
	// the run's median scales the section's timings (README.md).
	var ref []float64
	for _, task := range interleave(heavy, interleave(small, recovers)) {
		if err := task(); err != nil {
			return nil, err
		}
		settle()
		ref = append(ref, refKernel())
	}
	slow := median(ref) / refKernelMS // > 1: the host ran slower than the reference
	fmt.Fprintf(w, "host: reference kernel median %.4f ms (n=%d), %.4fx the reference %.1f ms; setup_s, sweep_wall_s, fleet_wall_s and recovery_s are the raw medians below divided by %.4f\n",
		median(ref), len(ref), slow, refKernelMS, slow)
	sent1, failed1, _ := k.totals()
	fmt.Fprintf(w, "kelpd setup_s reps=%v (no persistence); persisted set-up %.4f s\n", fmtFloats(setups), persistSetup.Seconds())
	put("setup_s", median(setups)/slow, "s")
	fmt.Fprintf(w, "kelpd phase recovery sent=%d ok=%d failed=%d recovery_s reps=%v\n",
		sent1-sent0, sent1-sent0-(failed1-failed0), failed1-failed0, fmtFloats(recoveries))
	sweepWalls, fleetWalls := walls(sweeps), walls(fleets)
	fmt.Fprintf(w, "sweep wall_s reps=%v\n", fmtFloats(sweepWalls))
	fmt.Fprintf(w, "fleet wall_s reps=%v\n", fmtFloats(fleetWalls))

	// Traced runs only: the latency-limited rate ladder, on a recovered
	// server (on a shared machine its result moves too much between runs
	// to carry a bound), and the sweep once more with its spans.
	var maxRate float64
	var tracedSweep *sweepOut
	var tracedSweepWall time.Duration
	if traced {
		if _, err := k.start(); err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		var probes []*phaseStats
		maxRate, probes = k.ladder(rng)
		for _, p := range probes {
			printPhase(w, p)
		}
		fmt.Fprintf(w, "kelpd max rate %.1f req/s; the fixed rate is %.3f of it (advance p50 and backlog growth limit %.1f ms, step %.2fx; 0 = even %.0f req/s misses it)\n",
			maxRate, plan.rate/maxRate, plan.limitMS, plan.ladderStep, plan.ladderBase)
		k.stop()

		setWarm(wl.warm)
		tracedSweepWall, err = tr.timed("sweep", 0, func(id uint64) (e error) {
			tracedSweep, e = runSweep(newHarness(wl.warm, seed, nproc), tr, id)
			return
		})
		if err != nil {
			return nil, err
		}
		if tracedSweep.text() != sweep.text() {
			ck.check("sweep.traced_identity", fmt.Errorf("traced sweep tables differ"))
		}
	}

	// Untimed correctness of the sweep and fleet outputs.
	ck.check("fig13.order", checkFig13(sweep.overall))
	ck.check("fleet.kelp_wins", checkFleetMPG(fl.rows))
	if seed == defaultSeed {
		ck.check("sweep.digest", matchDigest("sweep", sweep.text(), sweepDigest))
		ck.check("fleet.digest", matchDigest("fleet", fl.text(), fleetDigest))
	}
	if !wl.warm {
		setWarm(true)
		warm, err := runSweep(newHarness(true, seed, nproc), nil, 0)
		if err != nil {
			return nil, err
		}
		var diff error
		if warm.text() != sweep.text() {
			diff = fmt.Errorf("warm and cold sweeps render different tables")
		}
		ck.check("sweep.warm_eq_cold", diff)
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	attempted, failed, refused := k.totals()
	attempted += setupReqs
	fmt.Fprintf(w, "kelpd reads: %.1f allocs per read (n=%d, sent one at a time); handler p50 %.4f ms p%g %.4f ms (n=%d, fixed-rate phase)\n",
		readAllocs, plan.probeReads, readHandler.P50, float64(readHandler.TailAt)/10, readHandler.Tail, readHandler.N)
	fmt.Fprintf(w, "requests attempted=%d failed=%d (refused %d) error_frac=%.6f\n",
		attempted, failed, refused, failShare(attempted, failed-refused, refused))

	put("sweep_wall_s", median(sweepWalls)/slow, "s")
	put("fleet_wall_s", median(fleetWalls)/slow, "s")
	put("peak_rss_mb", float64(ru.Maxrss)/1024, "MiB")
	put("sweep_alloc_mb", float64(sweeps[0].alloc)/(1<<20), "MiB")
	put("fleet_alloc_mb", float64(fleets[0].alloc)/(1<<20), "MiB")
	put("kelpd_alloc_mb", float64(fixed.allocBytes)/(1<<20), "MiB")
	put("read_allocs_per_req", readAllocs, "count")
	put("read_handler_p50_ms", readHandler.P50, "ms")
	put("recovery_s", median(recoveries)/slow, "s")
	put("disk_mb", float64(walB+snapB)/(1<<20), "MiB")
	if traced {
		layer := map[string]metric{}
		lput := func(key string, v float64, unit string) { layer[key] = metric{Value: v, Unit: unit} }
		for _, e := range expNames {
			lput("experiments."+e+"_s", tracedSweep.expTime[e].Seconds(), "s")
		}
		setWarm(wl.warm)
		miss, hit, err := cellProbe(newHarness(wl.warm, seed, nproc), tr)
		if err != nil {
			return nil, err
		}
		lput("experiments.cell_miss_ms", ms(miss), "ms")
		lput("experiments.cell_hit_ms", ms(hit), "ms")
		tp, err := probeTicks(seed, tr)
		if err != nil {
			return nil, err
		}
		lput("sim.tick_ns", tp.tickNS, "ns")
		lput("sim.tick_full_ns", tp.tickFullNS, "ns")
		lput("node.ticks", float64(tp.ticks), "count")
		lput("memsys.full_resolve_frac", tp.fullResolve, "ratio")
		lput("fleet.build_s", fl.build.Seconds(), "s")
		lput("fleet.simulate_s", fl.simul.Seconds(), "s")
		lput("fleet.tick_s", fl.tick.Seconds(), "s")
		lput("fleet.shapes", float64(fl.shapes), "count")
		lput("fleet.build_allocs", float64(fl.buildAllocs), "count")
		lput("fleet.tick_allocs", float64(fl.tickAllocs), "count")

		spans := tr.snapshot()
		httpdLayer(spans, k, [2]time.Time{fixed.start, fixed.start.Add(fixed.elapsed)}, lput)
		lput("httpd.allocs_per_req", float64(fixed.allocs)/float64(fixed.sent), "count")
		lput("httpd.shed_total", num(hBefore, "shed_total"), "count")
		lput("httpd.jobs_done", num(hBefore, "jobs_done"), "count")
		lput("durable.wal_mb", float64(walB)/(1<<20), "MiB")
		lput("durable.snap_mb", float64(snapB)/(1<<20), "MiB")
		lput("durable.snapshots", persistNum(hBefore, "snapshots"), "count")
		lput("durable.recovered_sessions", persistNum(hAfter, "recovered_sessions"), "count")
		lput("durable.replayed_records", persistNum(hAfter, "replayed_records"), "count")
		// These come from the untraced fixed-rate phase, the persisted
		// set-up and the ladder; on a shared machine they move too much
		// between runs to carry a bound (see README.md).
		lput("kelpd.advance_p50_ms", fixedUntraced.advance.P50, "ms")
		lput("kelpd.read_p50_ms", fixedUntraced.read.P50, "ms")
		lput("kelpd.advance_tail_ms", fixedUntraced.advance.Tail, "ms")
		lput("kelpd.read_tail_ms", fixedUntraced.read.Tail, "ms")
		lput("kelpd.persist_setup_s", persistSetup.Seconds(), "s")
		lput("kelpd.max_rate_rps", maxRate, "req/s")
		lput("loadgen.late_p50_ms", fixed.late.P50, "ms")
		lput("loadgen.late_p99_ms", fixed.late.Tail, "ms")
		lput("loadgen.sent", float64(fixed.sent), "count")
		lput("trace.overhead_sweep_s", tracedSweepWall.Seconds()-median(sweepWalls), "s")
		lput("trace.overhead_advance_p50_ms", fixed.advance.P50-fixedUntraced.advance.P50, "ms")
		lput("trace.spans", float64(len(spans)), "count")
		lput("host.ref_kernel_ms", median(ref), "ms")

		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.jsonl", name, seed))
		if err := writeJSONL(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "trace: %d spans written to %s\n", len(spans), path)
		printLayerTable(w, layerTable(spans))
		fmt.Fprintf(w, "tracing overhead: sweep_wall_s %+.4f s (traced %.4f vs untraced %.4f); advance_p50_ms %+.4f ms (traced %.4f vs untraced %.4f)\n",
			layer["trace.overhead_sweep_s"].Value, tracedSweepWall.Seconds(), median(sweepWalls),
			layer["trace.overhead_advance_p50_ms"].Value, fixed.advance.P50, fixedUntraced.advance.P50)
		printMetrics(w, "end-to-end (traced run, for reference)", m)
		printMetrics(w, "per-layer", layer)
		m = layer
	} else {
		printMetrics(w, "end-to-end", m)
	}
	for _, f := range ck.failed {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	return &report{Correct: len(ck.failed) == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// httpdLayer derives the per-route-class metrics from the spans: creates
// and admits from the set-ups, the other classes from the traced
// fixed-rate phase only.
func httpdLayer(spans []span, k *kelpd, window [2]time.Time, put func(string, float64, string)) {
	lo, hi := window[0].Sub(k.tr.origin), window[1].Sub(k.tr.origin)
	client := map[string][]float64{}
	handler := map[string][]float64{}
	for _, s := range spans {
		cls, isHandler := strings.CutSuffix(strings.TrimPrefix(s.Name, "httpd."), ".handler")
		if !strings.HasPrefix(s.Name, "httpd.") {
			continue
		}
		if cls != clsCreate && cls != clsAdmit && (s.Start < lo || s.Start > hi) {
			continue
		}
		if isHandler {
			handler[cls] = append(handler[cls], ms(s.dur()))
		} else {
			client[cls] = append(client[cls], ms(s.dur()))
		}
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, cls := range classes {
		c, h := summarize(client[cls]), summarize(handler[cls])
		fails := 0
		if cnt := k.counts[cls]; cnt != nil {
			fails = cnt[1]
		}
		put("httpd."+cls+".n", float64(c.N), "count")
		put("httpd."+cls+".fail", float64(fails), "count")
		put("httpd."+cls+".p50_ms", c.P50, "ms")
		put("httpd."+cls+".tail_ms", c.Tail, "ms")
		put("httpd."+cls+".handler_p50_ms", h.P50, "ms")
		put("httpd."+cls+".handler_tail_ms", h.Tail, "ms")
	}
}

// num reads a top-level number from a decoded /healthz body.
func num(h map[string]any, key string) float64 {
	v, _ := h[key].(float64)
	return v
}

func sameDigests(a, b [][32]byte) error {
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("session %s answers differently after recovery", sessName(i))
		}
	}
	return nil
}

func printPhase(w io.Writer, p *phaseStats) {
	fmt.Fprintf(w, "kelpd phase %-16s sent=%d ok=%d failed=%d rate=%.1f/s elapsed=%.3fs late_growth=%.3fms advance p50=%.3fms p%g=%.3fms (n=%d) read p50=%.3fms p%g=%.3fms (n=%d) late p50=%.3fms p%g=%.3fms\n",
		p.name, p.sent, p.ok, p.failed, p.rate, p.elapsed.Seconds(), p.lateGrowth,
		p.advance.P50, float64(p.advance.TailAt)/10, p.advance.Tail, p.advance.N,
		p.read.P50, float64(p.read.TailAt)/10, p.read.Tail, p.read.N,
		p.late.P50, float64(p.late.TailAt)/10, p.late.Tail)
}

func printMetrics(w io.Writer, title string, m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "== %s metrics ==\n", title)
	for _, k := range keys {
		fmt.Fprintf(w, "%-36s %14.6f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// rep is one repetition of the sweep or of the fleet study, as timed
// tasks: each runs one step after settle and adds the step's wall time and
// allocated bytes to the repetition's totals, so work run between two
// steps is not counted. The first task starts from an empty warm-start
// cache, as a fresh process would.
type rep struct {
	tasks []func() error
	wall  time.Duration
	alloc uint64
}

func newRep(warm bool, steps []step) *rep {
	r := &rep{}
	for i, st := range steps {
		r.tasks = append(r.tasks, func() error {
			if i == 0 {
				setWarm(warm)
			}
			settle()
			a0 := memStats().TotalAlloc
			t0 := time.Now()
			if err := st.run(); err != nil {
				return fmt.Errorf("%s: %w", st.name, err)
			}
			r.wall += time.Since(t0)
			r.alloc += memStats().TotalAlloc - a0
			return nil
		})
	}
	return r
}

// walls returns each repetition's wall time in seconds.
func walls(reps []*rep) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = r.wall.Seconds()
	}
	return xs
}

// interleave merges a and b, keeping the order within each, so that both
// advance through their tasks at an even pace.
func interleave(a, b []func() error) []func() error {
	out := make([]func() error, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j == len(b) || (i < len(a) && i*len(b) <= j*len(a)) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// settle lets earlier work finish before a timing starts: it collects the
// heap and flushes the kernel's dirty pages, so neither the garbage nor
// the writeback of files an earlier phase wrote or deleted lands in the
// next measurement (every timed kelpd step fsyncs).
func settle() {
	runtime.GC()
	syscall.Sync()
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// commit names the source revision run.sh put in PERFBENCH_COMMIT, or
// "unknown" when the binary runs on its own.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// fsType names the filesystem holding dir (fsync cost depends on it).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683e: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
