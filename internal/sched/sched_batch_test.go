package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/trace"
)

// serialOnly hides StepBatch so sched.Run takes the per-event path on a
// real system.
type serialOnly struct{ s *core.System }

func (t serialOnly) Step(pid mmu.PID, ev *trace.Event) error { return t.s.Step(pid, ev) }
func (t serialOnly) Now() uint64                             { return t.s.Now() }

// batchWorkload builds per-process traces with stalls, loads, stores,
// and periodic syscalls, long enough to cross several time slices.
func batchWorkload(n int) []*trace.MemTrace {
	names := 3
	out := make([]*trace.MemTrace, names)
	for p := 0; p < names; p++ {
		var mt trace.MemTrace
		for i := 0; i < n+p*101; i++ {
			ev := trace.Event{PC: uint32(0x40000 + 4*(i%977)), Stall: uint8((i + p) % 4)}
			switch i % 7 {
			case 2:
				ev.Kind = trace.Load
				ev.Size = 4
				ev.Data = uint32(0x100000 + 8*((i*13+p)%4096))
			case 5:
				ev.Kind = trace.Store
				ev.Size = 4
				ev.Data = uint32(0x200000 + 8*((i*29+p)%4096))
			}
			if i%811 == 810 {
				ev.Syscall = true
			}
			mt.Append(ev)
		}
		out[p] = &mt
	}
	return out
}

func runWorkload(t *testing.T, batched bool, packed bool, scfg Config) (Result, core.Stats) {
	t.Helper()
	traces := batchWorkload(5000)
	procs := make([]Process, len(traces))
	for i, mt := range traces {
		var s trace.Stream = mt.Clone()
		if packed {
			s = trace.Pack(mt.Clone()).NewCursor()
		}
		procs[i] = Process{Name: []string{"alpha", "beta", "gamma"}[i], Stream: s}
	}
	sys, err := core.NewSystem(core.Base())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	var target Target = sys
	if !batched {
		target = serialOnly{sys}
	}
	res, err := Run(target, procs, scfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, sys.Stats()
}

// TestBatchedRunMatchesSerial drives the same multiprogrammed workload
// through the serial per-event path and the batched fast path (over
// both MemTrace batches and packed-trace cursors) and requires
// identical scheduling results and system statistics.
func TestBatchedRunMatchesSerial(t *testing.T) {
	cfgs := []Config{
		{TimeSlice: 2000},
		{TimeSlice: 2000, NoSyscallSwitch: true},
		{TimeSlice: 700, MaxInstructions: 9000},
		{Level: 2, TimeSlice: 3000},
		// Quantum edges: a switch after every instruction, one process
		// at a time on the default slice, and a slice that never expires.
		{TimeSlice: 1},
		{Level: 1},
		{TimeSlice: 1 << 62},
		// Every trace has a syscall at event 810, so the run stops on
		// beta's first syscall, right after alpha's switched to it.
		{TimeSlice: 1 << 40, MaxInstructions: 2 * 811},
	}
	for _, scfg := range cfgs {
		serialRes, serialStats := runWorkload(t, false, false, scfg)
		for _, packed := range []bool{false, true} {
			gotRes, gotStats := runWorkload(t, true, packed, scfg)
			if !reflect.DeepEqual(serialRes, gotRes) {
				t.Errorf("cfg %+v packed=%v: scheduling result diverged\nserial:  %+v\nbatched: %+v",
					scfg, packed, serialRes, gotRes)
			}
			if serialStats != gotStats {
				t.Errorf("cfg %+v packed=%v: system stats diverged\nserial:  %+v\nbatched: %+v",
					scfg, packed, serialStats, gotStats)
			}
		}
	}
}

// hiddenCursor is a packed-trace cursor behind a plain BatchStream, so
// the scheduler cannot see the *trace.Cursor and takes the event path
// (Batch, then StepBatch, WarmBatch or a Syscall walk, then Skip)
// instead of StepScan, WarmScan or SkipScan.
type hiddenCursor struct{ c *trace.Cursor }

func (h hiddenCursor) Next(ev *trace.Event) bool   { return h.c.Next(ev) }
func (h hiddenCursor) Batch(max int) []trace.Event { return h.c.Batch(max) }
func (h hiddenCursor) Skip(n int)                  { h.c.Skip(n) }

// scanProcs packs the batch workload into cursors, hidden or not.
func scanProcs(hide bool) []Process {
	traces := batchWorkload(5000)
	procs := make([]Process, len(traces))
	for i, mt := range traces {
		var s trace.Stream = trace.Pack(mt).NewCursor()
		if hide {
			s = hiddenCursor{s.(*trace.Cursor)}
		}
		procs[i] = Process{Name: []string{"alpha", "beta", "gamma"}[i], Stream: s}
	}
	return procs
}

// TestScanMatchesEventPath runs the same multiprogrammed workload over
// packed cursors (the scan paths) and over the same cursors hidden
// behind a plain BatchStream (the event paths), through Run and through
// a Runner, and requires identical scheduling results, system
// statistics and cache state. The Runner is driven in random budgets,
// once in measure mode only and once mixing measure, warm and skip.
func TestScanMatchesEventPath(t *testing.T) {
	cfgs := []Config{
		{TimeSlice: 2000},
		{TimeSlice: 2000, NoSyscallSwitch: true},
		{TimeSlice: 700, MaxInstructions: 9000},
		{Level: 2, TimeSlice: 3000},
		{TimeSlice: 1 << 62},
	}
	type outcome struct {
		res   Result
		stats core.Stats
		fp    uint64
	}
	newSystem := func() *core.System {
		sys, err := core.NewSystem(core.Base())
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		return sys
	}
	run := func(scfg Config, hide bool) outcome {
		sys := newSystem()
		res, err := Run(sys, scanProcs(hide), scfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return outcome{res, sys.Stats(), sys.CacheFingerprint()}
	}
	runner := func(scfg Config, hide, mixed bool) outcome {
		sys := newSystem()
		r, err := NewRunner(sys, scanProcs(hide), scfg)
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		r.SetNominalCPI(2.3)
		rng := rand.New(rand.NewSource(int64(scfg.TimeSlice)))
		for !r.Done() {
			mode := ModeMeasure
			if mixed {
				mode = Mode(rng.Intn(3))
			}
			if _, err := r.RunFor(1+uint64(rng.Intn(5000)), mode); err != nil {
				t.Fatalf("RunFor: %v", err)
			}
		}
		return outcome{r.Result(), sys.Stats(), sys.CacheFingerprint()}
	}
	for _, scfg := range cfgs {
		if scan, events := run(scfg, false), run(scfg, true); !reflect.DeepEqual(scan, events) {
			t.Errorf("Run, cfg %+v: scan path diverged\nscan:   %+v\nevents: %+v", scfg, scan, events)
		}
		for _, mixed := range []bool{false, true} {
			if scan, events := runner(scfg, false, mixed), runner(scfg, true, mixed); !reflect.DeepEqual(scan, events) {
				t.Errorf("Runner (mixed modes %v), cfg %+v: scan path diverged\nscan:   %+v\nevents: %+v",
					mixed, scfg, scan, events)
			}
		}
	}
}
