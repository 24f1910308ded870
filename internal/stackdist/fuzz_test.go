package stackdist_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stackdist"
	"repro/internal/synth"
	"repro/internal/trace"
)

// fuzzGeom decodes one byte into a 1- or 2-way L1 geometry: 256 to
// 2048 words, 4- or 8-word lines.
func fuzzGeom(b uint8) core.CacheGeom {
	return core.CacheGeom{
		SizeWords: 256 << (b & 3),
		LineWords: 4 << (b >> 2 & 1),
		Ways:      1 + int(b>>3&1),
	}
}

// fuzzTraceInstructions is the length of each fuzzed process.
const fuzzTraceInstructions = 15_000

// fuzzTrace records a synthetic process whose working sets overflow
// the fuzzed L1s and L2. Some stores are narrowed to misaligned bytes,
// so subblock placement sees partial-word writes too.
func fuzzTrace(seed uint64) *trace.Recorded {
	g := synth.New(synth.Config{
		Instructions: fuzzTraceInstructions,
		LoadFrac:     0.20,
		StoreFrac:    0.12,
		CodeBytes:    24 * 1024,
		DataBytes:    96 * 1024,
		SeqFrac:      0.5,
		HotFrac:      0.3,
		SyscallEvery: 1 + seed%3_000,
		Seed:         seed,
	})
	var evs []trace.Event
	var ev trace.Event
	for i := uint64(0); g.Next(&ev); i++ {
		if ev.Kind == trace.Store && (i^seed)%5 == 0 {
			ev.Size, ev.Data = 1, ev.Data|1
		}
		evs = append(evs, ev)
	}
	return trace.Pack(trace.NewMemTrace(evs))
}

// fullCoverageIntervals are sampling intervals that divide the fuzzed
// run (two processes of fuzzTraceInstructions each), so a Period ==
// Interval run measures every instruction in complete intervals.
var fullCoverageIntervals = []uint64{1_000, 1_500, 2_000, 2_500, 3_000, 5_000, 7_500}

// FuzzEngines checks the agreements the three engines promise on
// random inputs: a fuzzed L1 geometry for each side, write policy, L2
// associativity, and synthetic two-process workload, under a
// syscall-only time slice (the screening engine's exactness domain).
//
//   - Screening's filter counts, its L1-I and L2 grid points, and (for
//     write-back, where the grid's write-allocate LRU model is the
//     real L1-D) its L1-D grid point equal the exact engine's counts as
//     integers.
//   - The exact engine stepping packed words (StepScan) equals it
//     stepping materialized events (StepBatch).
//   - Sampling at 100% coverage (Period == Interval) measures exactly
//     the exact engine's Stats.
//   - WarmScan and WarmBatch leave identical cache state.
//   - WarmBatch and a Step replay leave identical cache state.
func FuzzEngines(f *testing.F) {
	for policy := uint8(0); policy < 4; policy++ {
		f.Add(uint8(0), uint8(4), policy, uint64(1))
		f.Add(uint8(9), uint8(13), policy|4, uint64(77))
	}
	f.Add(uint8(15), uint8(2), uint8(6), uint64(0x5eed))

	f.Fuzz(func(t *testing.T, igeom, dgeom, policyByte uint8, seed uint64) {
		cfg := core.Base()
		cfg.L1I, cfg.L1D = fuzzGeom(igeom), fuzzGeom(dgeom)
		cfg.WritePolicy = core.WritePolicy(policyByte & 3)
		// A line-wide write buffer, as in the base architecture, drains
		// a write-back victim as the one L2 write screening models.
		cfg.WBEntryWords = cfg.L1D.LineWords
		cfg.L2U.Geom = core.CacheGeom{SizeWords: 8 * 1024, LineWords: 32, Ways: 1 + int(policyByte>>2&1)}
		recs := []*trace.Recorded{fuzzTrace(seed), fuzzTrace(seed + 1)}
		procs := func() []sched.Process {
			ps := make([]sched.Process, len(recs))
			for i, r := range recs {
				ps[i] = sched.Process{Name: fmt.Sprint("p", i), Stream: r.NewCursor()}
			}
			return ps
		}
		scfg := sched.Config{TimeSlice: syscallOnlySlice}

		exact, err := sim.Run(cfg, procs(), scfg)
		if err != nil {
			t.Fatalf("sim.Run: %v", err)
		}
		// Each class's grid spans the fuzzed size, one coarser and one
		// finer size, at 1 and 2 ways: four nested set counts, so the
		// analyzer's set-refinement early exit is on the checked path.
		grid := func(g core.CacheGeom) stackdist.GridSpec {
			return stackdist.GridSpec{
				LineWords:  g.LineWords,
				SizesWords: []int{g.SizeWords / 2, g.SizeWords, 2 * g.SizeWords},
				Ways:       []int{1, 2},
			}
		}
		res, _, err := stackdist.Analyze(stackdist.Config{
			L1I: grid(cfg.L1I), L1D: grid(cfg.L1D), L2: grid(cfg.L2U.Geom),
			FilterL1I: cfg.L1I, FilterL1D: cfg.L1D, FilterPolicy: cfg.WritePolicy,
		}, procs(), scfg)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		compareScreening(t, cfg, res, exact.Stats)

		// Sampling every instruction (Period == Interval, an interval
		// that divides the run) equals the exact run before its final
		// write-buffer drain.
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		if _, err := sched.Run(sys, procs(), scfg); err != nil {
			t.Fatalf("exact run: %v", err)
		}
		// The exact run steps the cursors straight from their packed
		// words; the same run over materialized events must agree.
		evSys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		evProcs := procs()
		for i := range evProcs {
			evProcs[i].Stream = eventStream{evProcs[i].Stream.(*trace.Cursor)}
		}
		if _, err := sched.Run(evSys, evProcs, scfg); err != nil {
			t.Fatalf("exact run over events: %v", err)
		}
		if got, want := sys.Stats(), evSys.Stats(); got != want {
			t.Errorf("exact by scan diverged from exact by events:\nevents: %+v\nscan:   %+v", want, got)
		}
		interval := fullCoverageIntervals[seed%uint64(len(fullCoverageIntervals))]
		sampled, err := sample.Run(cfg, procs(), scfg, sample.Config{Interval: interval, Period: interval})
		if err != nil {
			t.Fatalf("sample.Run: %v", err)
		}
		if want := sys.Stats(); sampled.Measured != want {
			t.Errorf("interval %d: full-coverage sampling diverged from exact:\nexact:   %+v\nsampled: %+v",
				interval, want, sampled.Measured)
		}

		step, batch, scan := fingerprints(t, cfg, recs[0], 1+int(seed%1_500))
		if scan != batch {
			t.Errorf("WarmScan fingerprint %#x, WarmBatch %#x", scan, batch)
		}
		if batch != step {
			t.Errorf("WarmBatch fingerprint %#x, Step replay %#x", batch, step)
		}
	})
}

// eventStream hides a packed-trace cursor behind a plain BatchStream,
// so the scheduler steps its events through StepBatch, not StepScan.
type eventStream struct{ c *trace.Cursor }

func (e eventStream) Next(ev *trace.Event) bool   { return e.c.Next(ev) }
func (e eventStream) Batch(max int) []trace.Event { return e.c.Batch(max) }
func (e eventStream) Skip(n int)                  { e.c.Skip(n) }

// compareScreening lines one analyzer pass up against the exact run of
// the same configuration.
func compareScreening(t *testing.T, cfg core.Config, res *stackdist.Result, st core.Stats) {
	t.Helper()
	f := res.Filter
	type check struct {
		name      string
		got, want uint64
	}
	checks := []check{
		{"filter L1IAccesses", f.L1IAccesses, st.L1IAccesses},
		{"filter L1IMisses", f.L1IMisses, st.L1IMisses},
		{"filter L1DReads", f.L1DReads, st.L1DReads},
		{"filter L1DReadMisses", f.L1DReadMisses, st.L1DReadMisses},
		{"filter L1DWrites", f.L1DWrites, st.L1DWrites},
		{"filter L1DWriteMisses", f.L1DWriteMisses, st.L1DWriteMisses},
		{"filter WriteOnlyReadMisses", f.WriteOnlyReadMisses, st.WriteOnlyReadMisses},
		{"filter SubblockWordMisses", f.SubblockWordMisses, st.SubblockWordMisses},
		{"filter L2 accesses", f.L2IReads + f.L2DReads + f.L2DWrites, st.L2IAccesses + st.L2DAccesses},
		{"instructions", res.Instructions, st.Instructions},
	}
	point := func(c stackdist.Class, g core.CacheGeom) stackdist.GridCounts {
		gc, ok := res.Class(c).Counts(g.SizeWords, g.Ways)
		if !ok {
			t.Fatalf("%v %+v: not in grid", c, g)
		}
		return gc
	}
	l1i, l2 := point(stackdist.ClassL1I, cfg.L1I), point(stackdist.ClassL2U, cfg.L2U.Geom)
	checks = append(checks,
		check{"L1-I grid accesses", l1i.Accesses(), st.L1IAccesses},
		check{"L1-I grid misses", l1i.Misses(), st.L1IMisses},
		check{"L2 grid accesses", l2.Accesses(), st.L2IAccesses + st.L2DAccesses},
		check{"L2 grid misses", l2.Misses(), st.L2IMisses + st.L2DMisses},
	)
	if cfg.WritePolicy == core.WriteBack {
		l1d := point(stackdist.ClassL1D, cfg.L1D)
		checks = append(checks,
			check{"L1-D grid accesses", l1d.Accesses(), st.L1DReads + st.L1DWrites},
			check{"L1-D grid misses", l1d.Misses(), st.L1DReadMisses + st.L1DWriteMisses},
		)
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%v: %s: screening %d, exact %d", cfg.WritePolicy, c.name, c.got, c.want)
		}
	}
}

// fingerprints replays rec as one process three ways — Step (then a
// write-buffer drain), WarmBatch, and WarmScan, the warm paths in
// chunks of at most chunk events — and returns each final
// CacheFingerprint.
func fingerprints(t *testing.T, cfg core.Config, rec *trace.Recorded, chunk int) (step, batch, scan uint64) {
	t.Helper()
	fresh := func() (*core.System, *trace.Cursor) {
		s, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		return s, rec.NewCursor()
	}

	s, cur := fresh()
	var ev trace.Event
	for cur.Next(&ev) {
		if err := s.Step(1, &ev); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	s.DrainWriteBuffer()
	step = s.CacheFingerprint()

	s, cur = fresh()
	for b := cur.Batch(chunk); len(b) > 0; b = cur.Batch(chunk) {
		n, err := s.WarmBatch(1, b)
		if err != nil {
			t.Fatalf("WarmBatch: %v", err)
		}
		cur.Skip(n)
	}
	batch = s.CacheFingerprint()

	s, cur = fresh()
	for {
		n, _, err := s.WarmScan(1, cur, chunk)
		if err != nil {
			t.Fatalf("WarmScan: %v", err)
		}
		if n == 0 {
			break
		}
	}
	return step, batch, s.CacheFingerprint()
}
