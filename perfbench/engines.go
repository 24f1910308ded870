package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mmu"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stackdist"
	"repro/internal/trace"
	"repro/internal/workload"
)

// engineSlice is the engines time slice. It lies beyond the run length
// (64M instructions at CPI below 3 is under 2^28 cycles), so every
// context switch is a syscall switch: the exactness domain in which
// screening must equal exact as integers. It stays below 2^56, where
// sched.Runner's virtual-clock conversion wraps (NOTES.md, defect 1).
const engineSlice = uint64(1) << 40

// enginesSpec sizes the engines workload.
type enginesSpec struct {
	procs    int    // paper-calibrated processes in the recording
	perProc  uint64 // instructions per process; a multiple of 400,000
	k        int    // exact points per run
	setups   int    // recordings made in set-up (setup_s is their median)
	sampling sample.Config
}

var (
	// enginesFull is the Scale-20 recording FastSweep and
	// BenchmarkSampledSweep use: 8 x 8M = 64M instructions.
	enginesFull = enginesSpec{procs: 8, perProc: 8_000_000, k: 2, setups: 3}
	// enginesTiny is the self-test size: 3.2M instructions, with a
	// sampling period short enough for more than 10 intervals.
	enginesTiny = enginesSpec{procs: 8, perProc: 400_000, k: 2, setups: 1,
		sampling: sample.Config{Interval: 2_000, Period: 60_000}}
)

func (sp enginesSpec) label() string { return fmt.Sprintf("%dx%d", sp.procs, sp.perProc) }

func (sp enginesSpec) sched() sched.Config {
	return sched.Config{Level: sp.procs, TimeSlice: engineSlice}
}

// point is one direct-mapped Fig. 6 configuration: the write-only base
// design with a unified or split L2 of the given total size.
type point struct {
	spec  experiments.ConfigSpec
	label string
}

func fig6Points() []point {
	var pts []point
	for _, size := range experiments.Fig6Sizes {
		for _, split := range []bool{false, true} {
			org := "unified"
			if split {
				org = "split"
			}
			pts = append(pts, point{
				spec:  experiments.ConfigSpec{Preset: "base", Policy: "writeonly", L2KW: size / 1024, Split: split},
				label: fmt.Sprintf("wo-%dkw-%s", size/1024, org),
			})
		}
	}
	return pts
}

// exactPoints picks the seed's k exact points, alternating unified and
// split so every run measures both L2 organizations.
func exactPoints(seed int64, k int) []point {
	all := fig6Points()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]point, k)
	for i := range pts {
		split := i % 2
		pts[i] = all[2*rng.Intn(len(experiments.Fig6Sizes))+split]
	}
	return pts
}

// jitterSeed is the sampling jitter seed of one pass: one of eight, so
// the golden file covers every seed's sampled runs.
func jitterSeed(seed int64, pass int) uint64 {
	return 1 + uint64((seed%8+8+int64(pass))%8)
}

// recordFresh makes the recording RecordPaperLike memoizes, without
// the memo: the same generator and packer, so set-up can be repeated.
func recordFresh(sp enginesSpec) []workload.Recorded {
	procs := workload.PaperLike(sp.procs, sp.perProc)
	rs := make([]workload.Recorded, len(procs))
	for i, p := range procs {
		rs[i] = workload.Recorded{Name: p.Name, Trace: trace.Pack(p.Stream)}
	}
	return rs
}

// engineSetup records sp.setups times and keeps the last recording,
// the memoized one FastSweep replays. It returns each set-up's time and
// the heap in use right after the kept recording.
func engineSetup(sp enginesSpec, setups int) ([]workload.Recorded, []float64, float64) {
	var times []float64
	var rec []workload.Recorded
	var heapMB float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if i < setups-1 {
			_ = recordFresh(sp)
		} else {
			rec = workload.RecordPaperLike(sp.procs, sp.perProc)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setups-1 {
			runtime.GC()
			debug.FreeOSMemory()
			continue
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapMB = float64(ms.HeapInuse) / (1 << 20)
	}
	return rec, times, heapMB
}

func recordingMB(rec []workload.Recorded) float64 {
	var b int
	for _, r := range rec {
		b += r.Trace.Bytes()
	}
	return float64(b) / (1 << 20)
}

func exactRun(sp enginesSpec, cfg core.Config, rec []workload.Recorded) (sim.Result, error) {
	return sim.Run(cfg, workload.ReplayProcesses(rec), sp.sched())
}

func sampledRun(sp enginesSpec, cfg core.Config, rec []workload.Recorded, jitter uint64) (sample.Result, error) {
	smp := sp.sampling
	smp.Seed = jitter
	return sample.Run(cfg, workload.ReplayProcesses(rec), sp.sched(), smp)
}

// screen runs one FastSweep pass over the memoized recording.
// FastSweep reports analyzer failures by panicking; that becomes an
// error here.
func screen(sp enginesSpec) (fs *experiments.FastSweepResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("screening: %v", r)
		}
	}()
	return experiments.FastSweep(experiments.Options{
		Scale: int(sp.perProc / 400_000), Level: sp.procs, TimeSlice: engineSlice,
	}), nil
}

// minSampledIntervals is the floor every sampled run must measure.
const minSampledIntervals = 10

func checkSampled(g *goldenSet, key string, r sample.Result, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	var few error
	if r.Intervals < minSampledIntervals {
		few = fmt.Errorf("%s: %d sampled intervals, want at least %d", key, r.Intervals, minSampledIntervals)
	}
	return errors.Join(few, g.check(key, sampledDigest(r)))
}

// checkScreening compares the one-pass analyzer's L2 counts with the
// exact run of one point, as integers. core.Stats does not split L2
// misses into reads and writes, so the comparison is per requester
// side: a split L2 checks each bank, a unified L2 the total.
func checkScreening(fs *experiments.FastSweepResult, pt point, st core.Stats) error {
	if fs.Res.Instructions != st.Instructions {
		return fmt.Errorf("screening %s: %d instructions, exact %d", pt.label, fs.Res.Instructions, st.Instructions)
	}
	size := pt.spec.L2KW * 1024
	type side struct {
		name             string
		class            stackdist.Class
		size             int
		accesses, misses uint64
	}
	sides := []side{{"L2", stackdist.ClassL2U, size, st.L2IAccesses + st.L2DAccesses, st.L2IMisses + st.L2DMisses}}
	if pt.spec.Split {
		sides = []side{
			{"L2-I", stackdist.ClassL2I, size / 2, st.L2IAccesses, st.L2IMisses},
			{"L2-D", stackdist.ClassL2D, size / 2, st.L2DAccesses, st.L2DMisses},
		}
	}
	for _, s := range sides {
		gc, ok := fs.Res.Class(s.class).Counts(s.size, 1)
		if !ok {
			return fmt.Errorf("screening %s: %s %dW not in the grid", pt.label, s.name, s.size)
		}
		if gc.Accesses() != s.accesses || gc.Misses() != s.misses {
			return fmt.Errorf("screening %s: %s %d accesses / %d misses (%d read, %d write), exact %d / %d",
				pt.label, s.name, gc.Accesses(), gc.Misses(), gc.ReadMisses, gc.WriteMisses, s.accesses, s.misses)
		}
	}
	return nil
}

// pctDiff is got relative to ref, in percent.
func pctDiff(got, ref float64) float64 { return 100 * (got - ref) / ref }

// sampledPasses sizes the engines run from the measuring time: one pass
// of sampled runs over the fourteen points per 10 s (at least one). The
// work is fixed by the argument, never by how fast the host is, so the
// mix of engine calls is the same on every run.
func sampledPasses(d time.Duration) int { return max(1, int(d/(10*time.Second))) }

// runEngines runs the three engines on the seed's inputs: exact on k
// points, one screening pass over the whole grid, then sampledPasses
// passes of sampled runs over every direct-mapped Fig. 6 point.
func runEngines(o runOpts) (*outcome, error) {
	sp := enginesFull
	if o.tiny {
		sp = enginesTiny
	}
	if o.Trace {
		return traceEngines(o, sp)
	}
	gold, err := loadGolden()
	if err != nil {
		return nil, err
	}
	chk := newChecks()
	rec, setupTimes, _ := engineSetup(sp, sp.setups)
	pts := exactPoints(o.Seed, sp.k)

	// Per engine: simulated instructions and host seconds.
	var callMs []float64
	var ex, sc, sa struct{ instr, sec float64 }
	exact := map[string]core.Stats{}
	timed := func(f func()) float64 {
		t0 := time.Now()
		f()
		d := time.Since(t0).Seconds()
		callMs = append(callMs, d*1000)
		return d
	}

	for _, pt := range pts {
		cfg, err := experiments.BuildConfig(pt.spec)
		if err != nil {
			chk.op(err)
			continue
		}
		var res sim.Result
		d := timed(func() { res, err = exactRun(sp, cfg, rec) })
		ex.instr, ex.sec = ex.instr+float64(res.Stats.Instructions), ex.sec+d
		exact[pt.label] = res.Stats
		st := res.Stats
		if o.perturbStats {
			st.Cycles++
		}
		chk.op(errors.Join(err, gold.check(sp.label()+"/exact/"+pt.label, statsDigest(st))))
	}

	var fs *experiments.FastSweepResult
	d := timed(func() { fs, err = screen(sp) })
	if err == nil {
		sc.instr, sc.sec = float64(fs.Res.Instructions), d
		errs := []error{gold.check(sp.label()+"/screening", screeningDigest(fs))}
		for _, pt := range pts {
			if st, ok := exact[pt.label]; ok {
				errs = append(errs, checkScreening(fs, pt, st))
			}
		}
		err = errors.Join(errs...)
	}
	chk.op(err)

	var cpiErrs []float64
	var sampledCalls int
	for pass := 0; pass < sampledPasses(o.Seconds); pass++ {
		jitter := jitterSeed(o.Seed, pass)
		for _, pt := range fig6Points() {
			cfg, err := experiments.BuildConfig(pt.spec)
			if err != nil {
				chk.op(err)
				continue
			}
			var r sample.Result
			d := timed(func() { r, err = sampledRun(sp, cfg, rec, jitter) })
			sa.instr, sa.sec = sa.instr+float64(r.TotalInstructions), sa.sec+d
			sampledCalls++
			key := fmt.Sprintf("%s/sampled/%s/j%d", sp.label(), pt.label, jitter)
			chk.op(checkSampled(gold, key, r, err))
			if st, ok := exact[pt.label]; ok && pass == 0 && err == nil {
				cpiErrs = append(cpiErrs, math.Abs(pctDiff(r.CPI.Mean, st.CPI())))
			}
		}
	}

	att, failed := chk.counts()
	calls := len(callMs)
	p50, p99 := quantile(callMs, 0.5), quantile(callMs, 0.99)
	setup := median(setupTimes)
	rss := peakRSSMB()
	out := &outcome{checks: chk, e2e: map[string]metric{
		"setup_s":     {setup, "s"},
		"peak_rss_mb": {rss, "MB"},
		"ok_share":    {1 - per(float64(failed), float64(att)), "ratio"},
		"rate_per_s":  {per(ex.instr+sc.instr+sa.instr, ex.sec+sc.sec+sa.sec), "1/s"},
		"p50_ms":      {p50, "ms"},
	}}
	out.summary = []string{
		fmt.Sprintf("engines: seed %d, exact points %s and %s, %d sampled runs", o.Seed, pts[0].label, pts[len(pts)-1].label, sampledCalls),
		summaryLine("exact_minstr_per_s", per(ex.instr, ex.sec)/1e6, "Minstr/s", len(pts), "exact runs"),
		summaryLine("screening_minstr_per_s", per(sc.instr, sc.sec)/1e6, "Minstr/s", 1, "screening pass"),
		summaryLine("sampled_minstr_per_s", per(sa.instr, sa.sec)/1e6, "Minstr/s (all instructions consumed)", sampledCalls, "sampled runs"),
		summaryLine("sampled_cpi_err_pct", mean(cpiErrs), "% mean |sampled - exact| / exact", len(cpiErrs), "points"),
		summaryLine("engine_call_p50_ms", p50, "ms", calls, "engine calls"),
		summaryLine("engine_call_p99_ms", p99, "ms", calls, "engine calls"),
		summaryLine("setup_s", setup, "s (median)", len(setupTimes), "recordings"),
		summaryLine("peak_rss_mb", rss, "MB", 1, "process"),
		summaryLine("fail_share", per(float64(failed), float64(att)), "failed / attempted", att, "operations"),
	}
	return out, nil
}

// traceEngines is the traced engines run: the exact phase runs the same
// three calls as sim.Run (core.NewSystem, sched.Run, DrainWriteBuffer)
// with the cursor and the system wrapped, after one untraced run of the
// first point that the traced run must match and that prices tracing.
func traceEngines(o runOpts, sp enginesSpec) (*outcome, error) {
	gold, err := loadGolden()
	if err != nil {
		return nil, err
	}
	chk := newChecks()
	tr := newTracer()
	vals := map[string]float64{}
	spans := 0
	phase := func(layer, name string, f func()) float64 {
		spans++
		s := span{ID: spans, Layer: layer, Name: name, Start: tr.now()}
		f()
		s.End = tr.now()
		tr.add(s)
		return float64(s.dur()) / 1e9
	}

	var rec []workload.Recorded
	var heapMB float64
	recordS := phase("workload", "RecordPaperLike "+sp.label(), func() { rec, _, heapMB = engineSetup(sp, 1) })
	vals["workload.record_s"] = recordS
	vals["workload.recording_mb"] = recordingMB(rec)
	vals["workload.heap_after_record_mb"] = heapMB

	pts := exactPoints(o.Seed, sp.k)
	mem0 := readMem()
	ops := 0

	cfg0, err := experiments.BuildConfig(pts[0].spec)
	if err != nil {
		return nil, err
	}
	var ref sim.Result
	untracedS := phase("sim", "sim.Run "+pts[0].label, func() { ref, err = exactRun(sp, cfg0, rec) })
	ops++
	chk.op(err)
	vals["engines.exact_minstr_per_s"] = per(float64(ref.Stats.Instructions), untracedS) / 1e6

	var acc engineAcc
	var schedS, tracedS0 float64
	var sum core.Stats
	exact := map[string]core.Stats{}
	for i, pt := range pts {
		cfg, err := experiments.BuildConfig(pt.spec)
		if err != nil {
			chk.op(err)
			continue
		}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			chk.op(err)
			continue
		}
		procs := make([]sched.Process, len(rec))
		for j, r := range rec {
			procs[j] = sched.Process{Name: r.Name, Stream: &timedStream{c: r.Trace.NewCursor(), acc: &acc}}
		}
		d := phase("sched", "sched.Run "+pt.label, func() {
			_, err = sched.Run(timedTarget{sys, &acc}, procs, sp.sched())
			if err == nil {
				sys.DrainWriteBuffer()
			}
		})
		ops++
		schedS += d
		st := sys.Stats()
		var same error
		if i == 0 {
			tracedS0 = d
			if st != ref.Stats {
				same = fmt.Errorf("traced exact run of %s differs from sim.Run", pt.label)
			}
		}
		chk.op(errors.Join(err, same, gold.check(sp.label()+"/exact/"+pt.label, statsDigest(st))))
		exact[pt.label] = st
		sum.Add(&st)
	}
	events := float64(acc.events)
	vals["trace.decode_ns_per_event"] = per(float64(acc.batchNs), events)
	vals["core.step_ns_per_instr"] = per(float64(acc.stepNs), events)
	vals["sched.self_ns_per_instr"] = per(schedS*1e9-float64(acc.batchNs+acc.stepNs), events)
	vals["sched.events_per_batch"] = per(events, float64(acc.steps))
	kinstr := float64(sum.Instructions) / 1000
	vals["core.l1_misses_per_kinstr"] = per(float64(sum.L1IMisses+sum.L1DReadMisses+sum.L1DWriteMisses), kinstr)
	vals["core.l2_misses_per_kinstr"] = per(float64(sum.L2IMisses+sum.L2DMisses), kinstr)
	vals["mmu.tlb_misses_per_kinstr"] = per(float64(sum.ITLBMisses+sum.DTLBMisses), kinstr)
	vals["bench.trace_overhead_pct"] = pctDiff(tracedS0, untracedS)

	var fs *experiments.FastSweepResult
	screenS := phase("stackdist", "FastSweep", func() { fs, err = screen(sp) })
	ops++
	if err == nil {
		n := float64(fs.Res.Instructions)
		f := fs.Res.Filter
		vals["stackdist.ns_per_instr"] = per(screenS*1e9, n)
		vals["stackdist.l2_refs_per_kinstr"] = per(float64(f.L2IReads+f.L2DReads+f.L2DWrites), n/1000)
		vals["engines.screening_minstr_per_s"] = per(n, screenS) / 1e6
		errs := []error{gold.check(sp.label()+"/screening", screeningDigest(fs))}
		for _, pt := range pts {
			errs = append(errs, checkScreening(fs, pt, exact[pt.label]))
		}
		err = errors.Join(errs...)
	}
	chk.op(err)

	var sampledS, total, measured, intervals float64
	var cpiErrs []float64
	runs := 0
	jitter := jitterSeed(o.Seed, 0)
	for _, pt := range fig6Points() {
		cfg, err := experiments.BuildConfig(pt.spec)
		if err != nil {
			chk.op(err)
			continue
		}
		var r sample.Result
		sampledS += phase("sample", "sample.Run "+pt.label, func() { r, err = sampledRun(sp, cfg, rec, jitter) })
		ops++
		runs++
		total += float64(r.TotalInstructions)
		measured += float64(r.MeasuredInstructions)
		intervals += float64(r.Intervals)
		chk.op(checkSampled(gold, fmt.Sprintf("%s/sampled/%s/j%d", sp.label(), pt.label, jitter), r, err))
		if st, ok := exact[pt.label]; ok && err == nil {
			cpiErrs = append(cpiErrs, math.Abs(pctDiff(r.CPI.Mean, st.CPI())))
		}
	}
	vals["sample.ns_per_instr"] = per(sampledS*1e9, total)
	vals["sample.intervals"] = per(intervals, float64(runs))
	vals["sample.measured_share"] = per(measured, total)
	vals["sample.cpi_err_pct"] = mean(cpiErrs)
	vals["engines.sampled_minstr_per_s"] = per(total, sampledS) / 1e6

	var skipped int
	skipS := phase("trace", "Cursor.SkipScan pass", func() {
		for _, r := range rec {
			c := r.Trace.NewCursor()
			for {
				n, _ := c.SkipScan(1 << 30)
				if n == 0 {
					break
				}
				skipped += n
			}
		}
	})
	vals["trace.skip_ns_per_event"] = per(skipS*1e9, float64(skipped))

	var warmed int
	var warmErr error
	warmS := phase("core", "System.WarmScan pass", func() {
		sys, err := core.NewSystem(cfg0)
		if err != nil {
			warmErr = err
			return
		}
		for i, r := range rec {
			c := r.Trace.NewCursor()
			for {
				n, _, err := sys.WarmScan(mmu.PID(i+1), c, 1<<30)
				if err != nil {
					warmErr = err
					return
				}
				if n == 0 {
					break
				}
				warmed += n
			}
		}
	})
	chk.op(warmErr)
	vals["core.warm_ns_per_event"] = per(warmS*1e9, float64(warmed))

	mem1 := readMem()
	vals["runtime.alloc_kb_per_req"] = per(float64(mem1.alloc-mem0.alloc)/1024, float64(ops))
	vals["runtime.gc_per_kreq"] = per(float64(mem1.gcs-mem0.gcs), float64(ops)/1000)

	engineS := untracedS + schedS + screenS + sampledS
	out := &outcome{checks: chk, layer: layerResult(vals), spans: tr.take()}
	out.ledger = map[string]any{
		"tracing_overhead_pct": vals["bench.trace_overhead_pct"],
		"phase_split_s": map[string]float64{
			"record": recordS, "exact_untraced": untracedS, "exact_traced": schedS,
			"screening": screenS, "sampled": sampledS, "skip_pass": skipS, "warm_pass": warmS,
		},
		"phase_share": map[string]float64{
			"exact":     per(untracedS+schedS, engineS),
			"screening": per(screenS, engineS),
			"sampled":   per(sampledS, engineS),
		},
		"exact_layer_share": map[string]float64{
			"trace.decode": per(float64(acc.batchNs), schedS*1e9),
			"core.step":    per(float64(acc.stepNs), schedS*1e9),
			"sched.self":   per(schedS*1e9-float64(acc.batchNs+acc.stepNs), schedS*1e9),
		},
		"exact_points":   []string{pts[0].label, pts[len(pts)-1].label},
		"sample_cpi_err": cpiErrs,
		"metrics":        vals,
	}
	out.summary = []string{fmt.Sprintf("engines traced: seed %d, tracing overhead %.2f%% on %s",
		o.Seed, vals["bench.trace_overhead_pct"], pts[0].label)}
	return out, nil
}
