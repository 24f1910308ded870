package stackdist

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/sched"
	"repro/internal/trace"
)

// FilterStats counts the filter L1's traffic, mirroring the exact
// simulator's corresponding Stats fields so screening CPI estimates
// and validation tests can line the two up.
type FilterStats struct {
	L1IAccesses, L1IMisses        uint64
	L1DReads, L1DReadMisses       uint64
	L1DWrites, L1DWriteMisses     uint64
	WriteOnlyReadMisses           uint64
	SubblockWordMisses            uint64
	L2IReads, L2DReads, L2DWrites uint64
}

// Analyzer is the one-pass engine. It implements sched.Target,
// sched.BatchTarget and sched.ScanTarget, so it plugs into the same
// round-robin multiplexing as the cycle-accurate core.System; Step
// never fails (the analyzer has no invariant checker and no fault
// paths), so a pass over a well-formed recording always completes.
type Analyzer struct {
	cfg Config
	mmu *mmu.MMU

	classes [numClasses]*classAnalyzer
	filter  *core.L1 // the filter L1, whose misses make the L2 stream

	// now is the nominal clock: one cycle per instruction plus the
	// trace's recorded CPU stalls. Cache timing never advances it, so
	// the schedule depends only on the instruction streams — which is
	// exactly the cycle-accurate schedule whenever context switches
	// are syscall-driven rather than slice-expiry-driven.
	now          uint64
	instructions uint64
	maxPID       int

	filterStats FilterStats
}

// New builds an analyzer for the configuration.
func New(cfg Config) (*Analyzer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := mmu.New(cfg.MMU)
	if err != nil {
		return nil, fmt.Errorf("stackdist: MMU: %w", err)
	}
	// The base configuration's fetch sizes (one line) and
	// loads-pass-stores scheme (none) are the ones under which the
	// write buffer preserves the L2 reference order the classes see.
	fc := core.Base()
	fc.L1I, fc.L1D, fc.WritePolicy = cfg.FilterL1I, cfg.FilterL1D, cfg.FilterPolicy
	filter, err := core.NewL1(fc)
	if err != nil {
		return nil, fmt.Errorf("stackdist: filter: %w", err)
	}
	a := &Analyzer{cfg: cfg, mmu: m, filter: filter}
	a.classes[ClassL1I] = newClassAnalyzer(ClassL1I, cfg.L1I)
	a.classes[ClassL1D] = newClassAnalyzer(ClassL1D, cfg.L1D)
	a.classes[ClassL2U] = newClassAnalyzer(ClassL2U, cfg.L2)
	a.classes[ClassL2I] = newClassAnalyzer(ClassL2I, cfg.L2)
	a.classes[ClassL2D] = newClassAnalyzer(ClassL2D, cfg.L2)
	return a, nil
}

// Now returns the nominal clock (sched.Target).
func (a *Analyzer) Now() uint64 { return a.now }

// Step analyzes one instruction (sched.Target). The error is always
// nil; the signature satisfies the scheduler's contract.
func (a *Analyzer) Step(pid mmu.PID, ev *trace.Event) error {
	a.execute(pid, ev.PC, ev.Data, ev.Kind, ev.Size, ev.Stall)
	return nil
}

// StepBatch analyzes events back to back (sched.BatchTarget), with the
// same deterministic early-exit rule as core.System.StepBatch: return
// after an executed syscall, or once the clock has advanced at least
// len(evs) cycles since entry. Matching the rule exactly means the
// scheduler produces the same interleaving for the analyzer as for the
// simulator.
func (a *Analyzer) StepBatch(pid mmu.PID, evs []trace.Event) (int, error) {
	stop := a.now + uint64(len(evs))
	for i := range evs {
		ev := &evs[i]
		a.execute(pid, ev.PC, ev.Data, ev.Kind, ev.Size, ev.Stall)
		if ev.Syscall || a.now >= stop {
			return i + 1, nil
		}
	}
	return len(evs), nil
}

// StepScan analyzes and consumes up to max events of process pid
// straight from a packed cursor's words (sched.ScanTarget), with
// core.System.StepScan's contract: StepBatch's early stops with max in
// place of len(evs), syscall reporting a stop after a syscall, and,
// with max > 0, n == 0 meaning the cursor is exhausted. The error is
// always nil.
func (a *Analyzer) StepScan(pid mmu.PID, c *trace.Cursor, max int) (n int, syscall bool, err error) {
	stop := a.now + uint64(max)
	// Consume the cursor's decoded read-ahead first; RawWords is only
	// valid once no batched events are pending.
	for pending := c.Pending(); n < max && n < len(pending); {
		ev := &pending[n]
		a.execute(pid, ev.PC, ev.Data, ev.Kind, ev.Size, ev.Stall)
		n++
		if ev.Syscall || a.now >= stop {
			c.Skip(n)
			return n, ev.Syscall, nil
		}
	}
	c.Skip(n)
	words, w, end := c.RawWords()
	drained := n
	for n < max && w < end {
		pc, meta, data, next := trace.Decode(words, w)
		w = next
		n++
		a.execute(pid, pc, data, trace.Kind(meta>>trace.MetaKindShift),
			uint8(meta>>trace.MetaSizeShift), uint8(meta>>trace.MetaStallShift))
		if syscall = meta&trace.MetaSyscallBit != 0; syscall || a.now >= stop {
			break
		}
	}
	c.RawAdvance(w, n-drained) // raw-consumed events only
	return n, syscall, nil
}

// execute analyzes one instruction, the fetch and then the data
// reference: the one per-instruction body behind Step, StepBatch and
// StepScan. Same-page translations and the filter's hit probes inline,
// so a filter hit costs no call beyond the stack updates.
func (a *Analyzer) execute(pid mmu.PID, pc, data uint32, kind trace.Kind, size, stall uint8) {
	a.instructions++
	a.now += 1 + uint64(stall)
	p := int(pid)
	if p > a.maxPID {
		a.maxPID = p
	}
	paddr, ok := a.mmu.SamePageI(pid, pc)
	if !ok {
		paddr, _ = a.mmu.TranslateI(pid, pc)
	}
	a.classes[ClassL1I].access(paddr, false, p)
	a.filterStats.L1IAccesses++
	if !a.filter.FetchHit(paddr) {
		a.fetchFilter(paddr, p)
	}
	switch kind {
	case trace.Load:
		paddr, ok := a.mmu.SamePageD(pid, data)
		if !ok {
			paddr, _ = a.mmu.TranslateD(pid, data)
		}
		a.classes[ClassL1D].access(paddr, false, p)
		a.filterStats.L1DReads++
		if !a.filter.LoadHit(paddr) {
			a.loadFilter(paddr, p)
		}
	case trace.Store:
		a.store(pid, data, size)
	case trace.None:
		// Plain instruction: no data reference.
	}
}

// fetchFilter feeds an instruction fetch that FetchHit could not answer
// to the filter L1, whose misses feed the instruction side of the L2
// stream.
func (a *Analyzer) fetchFilter(paddr uint64, pid int) {
	o := a.filter.Fetch(paddr)
	if o == nil {
		return
	}
	a.filterStats.L1IMisses++
	a.l2Traffic(o, pid, true)
}

// loadFilter feeds a data read that LoadHit could not answer to the
// filter L1.
func (a *Analyzer) loadFilter(paddr uint64, pid int) {
	o := a.filter.Load(paddr)
	if o == nil {
		return
	}
	switch o.Miss {
	case core.L1WriteOnlyReadMiss:
		a.filterStats.WriteOnlyReadMisses++
	case core.L1SubblockWordMiss:
		a.filterStats.SubblockWordMisses++
	default:
		// A plain read miss.
	}
	a.filterStats.L1DReadMisses++
	a.l2Traffic(o, pid, false)
}

// store feeds a data write to the ClassL1D stacks and the filter L1.
func (a *Analyzer) store(pid mmu.PID, vaddr uint32, size uint8) {
	paddr, ok := a.mmu.SamePageD(pid, vaddr)
	if !ok {
		paddr, _ = a.mmu.TranslateD(pid, vaddr)
	}
	p := int(pid)
	a.classes[ClassL1D].access(paddr, true, p)
	a.filterStats.L1DWrites++
	o := a.filter.Store(paddr, size)
	if o == nil {
		return
	}
	if o.Miss != core.L1Hit {
		a.filterStats.L1DWriteMisses++
	}
	a.l2Traffic(o, p, false)
}

// l2Traffic feeds a filter access's L2 references to the L2 stream in
// the order the write buffer produces under LPSNone, where every
// refill drains the buffer before reading L2: a write-through word at
// store time, then the refill read, then the write-back victims.
func (a *Analyzer) l2Traffic(o *core.L1Outcome, pid int, instrSide bool) {
	if o.WriteThrough {
		a.l2Access(o.Word, true, pid, false)
	}
	if !o.Refill() {
		return
	}
	a.l2Access(o.Block, false, pid, instrSide)
	for _, addr := range o.WriteBacks {
		a.l2Access(addr, true, pid, false)
	}
}

// l2Access feeds one secondary-cache reference to the unified class
// and to the split class for its side.
func (a *Analyzer) l2Access(addr uint64, write bool, pid int, instrSide bool) {
	a.classes[ClassL2U].access(addr, write, pid)
	if instrSide {
		a.classes[ClassL2I].access(addr, write, pid)
		a.filterStats.L2IReads++
		return
	}
	a.classes[ClassL2D].access(addr, write, pid)
	if write {
		a.filterStats.L2DWrites++
	} else {
		a.filterStats.L2DReads++
	}
}

// Analyze runs one pass over the processes under the round-robin
// scheduler and returns the grid result. This is the package's main
// entry point: one call, one replay, every configuration.
func Analyze(cfg Config, procs []sched.Process, scfg sched.Config) (*Result, sched.Result, error) {
	a, err := New(cfg)
	if err != nil {
		return nil, sched.Result{}, err
	}
	sres, err := sched.Run(a, procs, scfg)
	if err != nil {
		return nil, sres, fmt.Errorf("stackdist: %w", err)
	}
	return a.Result(), sres, nil
}
