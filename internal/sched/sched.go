// Package sched implements the paper's multiprogramming model: a
// round-robin scheduler that multiplexes benchmark trace streams onto
// one simulated memory system, switching contexts when a process makes a
// voluntary system call or exhausts its time slice. It is the in-memory
// equivalent of the paper's UNIX-pipe file-descriptor multiplexor.
//
// Each benchmark is one process with its own PID-prefixed address space,
// so caches and the TLB are not flushed on switches. When a benchmark
// terminates, the next benchmark in order starts, until all have run.
package sched

import (
	"fmt"
	"math"

	"repro/internal/mmu"
	"repro/internal/trace"
)

// DefaultTimeSlice is the paper's chosen slice: 500,000 CPU cycles
// (2 ms at 4 ns/cycle), a compromise between the VAX 8800's measured
// 7.7 ms between context switches and 0.9 ms between interrupts.
const DefaultTimeSlice = 500_000

// Target is the simulated system the scheduler drives. *core.System
// satisfies it.
type Target interface {
	// Step simulates one instruction of process pid. A non-nil error
	// means the target faulted and cannot make further progress; the
	// scheduler stops and surfaces the error with process context.
	Step(pid mmu.PID, ev *trace.Event) error
	// Now returns the current cycle, used for time-slice accounting.
	Now() uint64
}

// BatchTarget is a Target that can additionally execute a whole slice
// of events in one call, eliminating the per-instruction interface
// dispatch. StepBatch must behave exactly like successive Steps, with
// two deterministic early stops: after an executed syscall event, and
// once the clock has advanced at least len(evs) cycles since entry
// (every instruction costs at least one cycle, so a batch of at most k
// events can never run past a deadline k cycles away by more than the
// final instruction — the same overshoot a serial Step loop has).
// *core.System satisfies it.
type BatchTarget interface {
	Target
	StepBatch(pid mmu.PID, evs []trace.Event) (n int, err error)
}

// ScanTarget is a BatchTarget with a zero-decode fast path over
// packed-trace cursors. StepScan(pid, c, max) must behave like
// StepBatch over c's next max events, consuming the n it executes: the
// same per-instruction semantics and the same early stops, after an
// executed syscall (which it reports) and once the clock has advanced
// at least max cycles, with max uncapped (no decode buffer is
// involved); with max > 0, n == 0 means the cursor is exhausted. The
// Runner, and so Run, uses it automatically for processes whose stream
// is a *trace.Cursor. *core.System and *stackdist.Analyzer satisfy it.
type ScanTarget interface {
	BatchTarget
	StepScan(pid mmu.PID, c *trace.Cursor, max int) (n int, syscall bool, err error)
}

// Process names a benchmark trace to run.
type Process struct {
	Name   string
	Stream trace.Stream
}

// Config parameterizes a multiprogrammed run.
type Config struct {
	// Level is the multiprogramming level: how many processes run
	// concurrently. Zero means 8, the paper's choice. If fewer
	// processes are supplied than the level, all of them run.
	Level int
	// TimeSlice is the slice length in cycles; zero means
	// DefaultTimeSlice.
	TimeSlice uint64
	// NoSyscallSwitch disables the pessimistic assumption that every
	// voluntary system call causes a context switch.
	NoSyscallSwitch bool
	// MaxInstructions stops the run early after this many instructions
	// in total (0 = run every process to completion). Used to bound
	// sweep costs.
	MaxInstructions uint64
}

// Result reports what the scheduler did.
type Result struct {
	Instructions    uint64
	Switches        uint64 // total context switches taken
	SyscallSwitches uint64 // switches caused by voluntary system calls
	SliceSwitches   uint64 // switches caused by time-slice expiry
	Completed       []string
	// PerProcess counts instructions executed by each named process.
	PerProcess map[string]uint64
	// CyclesPerSwitch is the average number of cycles between context
	// switches, the quantity the paper quotes (~310,000 for its
	// workload at a 500,000-cycle slice).
	CyclesPerSwitch float64
}

// Run multiplexes procs onto target and returns scheduling statistics.
// Processes beyond the multiprogramming level start, in order, as
// earlier ones terminate. It is a Runner driven to completion in
// measure mode.
//
// A non-nil error means the run stopped early: either the target
// faulted on a Step, or a process's trace stream failed mid-quantum (a
// corrupt tape, a broken pipe — any Stream whose Err() reports one).
// The Result still describes the instructions that did run, so callers
// in keep-going mode can report partial progress.
func Run(target Target, procs []Process, cfg Config) (Result, error) {
	r := newRunner(target, procs, cfg)
	_, err := r.RunFor(math.MaxUint64, ModeMeasure)
	return r.Result(), err
}

func (r *Result) finish(cycles uint64) {
	if r.Switches > 0 {
		r.CyclesPerSwitch = float64(cycles) / float64(r.Switches)
	}
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("%d instructions, %d switches (%d syscall, %d slice), %.0f cycles/switch, %d completed",
		r.Instructions, r.Switches, r.SyscallSwitches, r.SliceSwitches, r.CyclesPerSwitch, len(r.Completed))
}
