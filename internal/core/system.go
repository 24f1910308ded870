package core

import (
	"repro/internal/mmu"
	"repro/internal/trace"
)

// l2bank couples a secondary-cache array with its timing.
type l2bank struct {
	c      *cache
	timing BankTiming
}

// System is one simulated memory hierarchy: split L1, write buffer,
// unified or split L2, main memory, and the MMU. Feed it scheduled trace
// events with Step; read results from Stats.
//
// Timing is a single global cycle clock. Each instruction costs one
// issue cycle plus attributed stall cycles; the write buffer drains
// against the same clock in the background.
type System struct {
	cfg Config
	mmu *mmu.MMU

	l1       L1
	l2i, l2d *l2bank // aliases of the same bank when unified
	wb       *writeBuffer

	now          uint64
	memBusyUntil uint64 // main-memory occupancy from dirty-buffer drains
	flushBarrier uint64 // dirty-bit scheme: L2-D fetches wait past this
	nextCheck    uint64 // next self-check cycle when cfg.SelfCheck > 0
	fault        error  // first model fault; latched, Step refuses to run past it
	stats        Stats
}

// NewSystem validates cfg and builds a simulator.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := mmu.New(cfg.MMU)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg: cfg,
		mmu: m,
		l1:  newL1(&cfg),
	}
	if cfg.L2Split {
		s.l2i = &l2bank{c: newCache(cfg.L2I.Geom), timing: cfg.L2I.Timing}
		s.l2d = &l2bank{c: newCache(cfg.L2D.Geom), timing: cfg.L2D.Timing}
	} else {
		u := &l2bank{c: newCache(cfg.L2U.Geom), timing: cfg.L2U.Timing}
		s.l2i, s.l2d = u, u
	}
	overlap := uint64(2)
	if lat := uint64(s.l2d.timing.Latency); lat < overlap {
		overlap = lat
	}
	if cfg.WBNoOverlap {
		overlap = 0
	}
	s.wb = newWriteBuffer(cfg.WBEntries, overlap, s.wbService)
	return s, nil
}

// Config returns the configuration the system was built with.
func (s *System) Config() Config { return s.cfg }

// Err returns the latched model fault, or nil. Once a fault is
// recorded (a write-buffer overflow, a failed invariant check) the
// system refuses further work: every subsequent Step returns the same
// error, so partial statistics remain attributable to the cycles that
// ran before the fault.
func (s *System) Err() error { return s.fault }

// fail latches the first model fault.
func (s *System) fail(err error) {
	if s.fault == nil && err != nil {
		s.fault = err
	}
}

// Now returns the current cycle.
func (s *System) Now() uint64 { return s.now }

// MMU exposes the memory management unit (for TLB statistics).
func (s *System) MMU() *mmu.MMU { return s.mmu }

// Stats returns a snapshot of the accumulated statistics.
func (s *System) Stats() Stats {
	st := s.stats
	st.Cycles = s.now
	st.ITLBMisses = s.mmu.ITLB().Stats().Misses
	st.DTLBMisses = s.mmu.DTLB().Stats().Misses
	return st
}

// stallFor charges n stall cycles to cause and advances the clock.
func (s *System) stallFor(cause Cause, n uint64) {
	if n == 0 {
		return
	}
	s.stats.Stalls[cause] += n
	s.now += n
}

// stallUntil advances the clock to target, charging the wait to cause.
func (s *System) stallUntil(cause Cause, target uint64) {
	if target > s.now {
		s.stallFor(cause, target-s.now)
	}
}

// Step simulates one instruction of process pid. A non-nil error means
// the model faulted (write-buffer overflow, failed self-check); the
// fault is latched, so retrying the Step returns the same error.
func (s *System) Step(pid mmu.PID, ev *trace.Event) error {
	if s.fault != nil {
		return s.fault
	}
	s.execute(pid, ev.PC, ev.Data, ev.Kind, ev.Size, ev.Stall)
	return s.fault
}

// execute simulates one instruction unconditionally; callers check the
// latched fault before and after. It is the one per-instruction body
// behind Step, StepBatch and StepScan. The common case costs no call:
// the same-page translations, the L1-I and L1-D hit probes (hits that
// change no state) and the write buffer's retire guard all inline, and
// only a translation or an access they cannot answer goes to an
// outlined path. DESIGN.md §5 argues each early exit is exact.
func (s *System) execute(pid mmu.PID, pc, data uint32, kind trace.Kind, size, stall uint8) {
	s.stats.Instructions++
	// The issue cycle and the instruction's CPU stalls. Adding a zero
	// stall changes nothing, so the add needs no branch.
	s.stats.Stalls[CauseCPU] += uint64(stall)
	s.now += 1 + uint64(stall)
	paddr, samePage := s.mmu.SamePageI(pid, pc)
	if !samePage {
		paddr = s.chargeTLB(s.mmu.TranslateI(pid, pc))
	}
	s.stats.L1IAccesses++
	if !s.l1.FetchHit(paddr) {
		s.fetchL1(paddr)
	}
	switch kind {
	case trace.Load:
		paddr, samePage := s.mmu.SamePageD(pid, data)
		if !samePage {
			paddr = s.chargeTLB(s.mmu.TranslateD(pid, data))
		}
		s.stats.L1DReads++
		if !s.l1.LoadHit(paddr) {
			s.loadL1(paddr)
		}
	case trace.Store:
		s.store(pid, data, size)
	case trace.None:
		// No data reference; the fetch above was the only access.
	}
	s.wb.retire(s.now)
	if s.cfg.SelfCheck > 0 && s.now >= s.nextCheck {
		s.nextCheck = s.now + s.cfg.SelfCheck
		s.fail(s.CheckInvariants())
	}
}

// StepBatch simulates events of process pid back to back, without the
// per-instruction interface dispatch a caller would otherwise pay, and
// returns how many of evs were executed. Semantics are exactly n
// successive Step calls: the returned n counts every attempted
// instruction, including one that latched a fault (whose error is
// returned, as Step would).
//
// The batch ends early, with a nil error, at two deterministic points:
//
//   - after an executed syscall event, so a scheduler can honor
//     syscall-triggered context switches at the exact instruction a
//     serial Step loop would; and
//   - once the clock has advanced at least len(evs) cycles since entry.
//     Every instruction costs at least one cycle, so a caller that
//     wants to run to a deadline at most k cycles away passes at most k
//     events and never overshoots; re-checking Now after the batch
//     returns recovers the exact serial switch point.
func (s *System) StepBatch(pid mmu.PID, evs []trace.Event) (int, error) {
	if s.fault != nil {
		if len(evs) == 0 {
			return 0, s.fault
		}
		return 1, s.fault
	}
	stop := s.now + uint64(len(evs))
	for i := range evs {
		ev := &evs[i]
		s.execute(pid, ev.PC, ev.Data, ev.Kind, ev.Size, ev.Stall)
		if s.fault != nil {
			return i + 1, s.fault
		}
		if ev.Syscall || s.now >= stop {
			return i + 1, nil
		}
	}
	return len(evs), nil
}

// StepScan is StepBatch straight over a packed cursor: it simulates and
// consumes up to max events of process pid from c, decoding each from
// the packed words instead of materializing Events. It has StepBatch's
// contract with max in place of len(evs): it stops after an executed
// syscall (and reports it), or once the clock has advanced at least max
// cycles, and it returns the same n on a latched fault. So wherever at
// least max events remain it equals StepBatch over the cursor's next
// max events, already decoded or not. With max > 0, n == 0 means the
// cursor is exhausted.
func (s *System) StepScan(pid mmu.PID, c *trace.Cursor, max int) (n int, syscall bool, err error) {
	if s.fault != nil {
		var ev trace.Event
		if max > 0 && c.Next(&ev) {
			return 1, ev.Syscall, s.fault
		}
		return 0, false, s.fault
	}
	stop := s.now + uint64(max)
	// Consume the cursor's decoded read-ahead first; RawWords is only
	// valid once no batched events are pending.
	for pending := c.Pending(); n < max && n < len(pending); {
		ev := &pending[n]
		s.execute(pid, ev.PC, ev.Data, ev.Kind, ev.Size, ev.Stall)
		n++
		if ev.Syscall || s.fault != nil || s.now >= stop {
			c.Skip(n)
			return n, ev.Syscall, s.fault
		}
	}
	c.Skip(n)
	words, w, end := c.RawWords()
	drained := n
	for n < max && w < end {
		pc, meta, data, next := trace.Decode(words, w)
		w = next
		n++
		s.execute(pid, pc, data, trace.Kind(meta>>trace.MetaKindShift),
			uint8(meta>>trace.MetaSizeShift), uint8(meta>>trace.MetaStallShift))
		if syscall = meta&trace.MetaSyscallBit != 0; syscall || s.fault != nil || s.now >= stop {
			break
		}
	}
	c.RawAdvance(w, n-drained) // raw-consumed events only
	return n, syscall, s.fault
}

// Run consumes an entire single-process stream (convenience for tests,
// examples, and single-program simulations). The returned statistics
// cover the instructions that ran, even when the run ends in an error.
func (s *System) Run(pid mmu.PID, src trace.Stream) (Stats, error) {
	var ev trace.Event
	for src.Next(&ev) {
		if err := s.Step(pid, &ev); err != nil {
			return s.Stats(), err
		}
	}
	if err := trace.StreamErr(src); err != nil {
		return s.Stats(), err
	}
	s.DrainWriteBuffer()
	return s.Stats(), s.fault
}

// DrainWriteBuffer retires all pending writes without charging CPU
// stalls, so final L2 state and statistics are consistent at the end of
// a simulation.
func (s *System) DrainWriteBuffer() { s.wb.popAll() }

// waitWBEmpty stalls until the write buffer has drained, charging the
// wait to the WB cause, and retires the drained entries.
func (s *System) waitWBEmpty() {
	if s.wb.len() == 0 {
		return
	}
	s.stallUntil(CauseWB, s.wb.emptyCompletion(s.now))
	s.wb.popAll()
}

// chargeTLB stalls for a full translation's TLB miss, if the
// configuration charges one, and returns its physical address. The
// same-page fast path needs no charge: it is always a TLB hit.
func (s *System) chargeTLB(paddr uint64, tlbHit bool) uint64 {
	if !tlbHit && s.cfg.TLBMissPenalty > 0 {
		s.stallFor(CauseTLB, uint64(s.cfg.TLBMissPenalty))
	}
	return paddr
}

// fetchL1 services an instruction fetch at paddr that FetchHit could
// not answer.
func (s *System) fetchL1(paddr uint64) {
	o := s.l1.Fetch(paddr)
	if o == nil {
		return
	}
	s.stats.L1IMisses++
	if s.cfg.IMissWaitsForWB {
		s.waitWBEmpty()
	}
	s.refill(o, s.l2i, s.cfg.l1iFetch(), true)
}

// refill charges an L1 refill of fetch words from the given L2 bank:
// the evictions first, so that any write-back or flush they trigger
// lands its writes in L2 ahead of the read, then the L2 read, whose
// refill cycles go to the side's L1 miss cause and whose memory
// penalties go to its L2 miss cause.
func (s *System) refill(o *L1Outcome, bank *l2bank, words int, instrSide bool) {
	missCause, memCause := CauseL1DMiss, CauseL2DMiss
	if instrSide {
		missCause, memCause = CauseL1IMiss, CauseL2IMiss
	}
	s.evict(o)
	refillCycles, memCycles := s.l2Read(bank, o.Block, words, instrSide)
	s.stallFor(missCause, refillCycles)
	s.stallFor(memCause, memCycles)
}

// evict charges the L1-D evictions of an access: write-back victims
// enter the write buffer; under the dirty-bit loads-pass-stores scheme,
// replacing a dirty line flushes the write buffer.
func (s *System) evict(o *L1Outcome) {
	lineBytes := uint64(s.cfg.L1D.LineWords * trace.WordBytes)
	for _, addr := range o.WriteBacks {
		s.enqueueWrite(addr, lineBytes)
	}
	if o.Flushes == 0 {
		return
	}
	// The replaced dirty line may have writes still in the buffer. The
	// buffer drains in the background; only fetches ordered after this
	// point must wait for it (the flush barrier) — with one exception:
	// a read that reallocates this very line (a write-only line being
	// read) must see its writes in L2 first, so it waits for the whole
	// drain now.
	s.stats.WBFlushes += uint64(o.Flushes)
	if o.FlushSelf {
		s.waitWBEmpty()
	} else {
		s.flushBarrier = s.wb.emptyCompletion(s.now)
	}
}

// enqueueWrite places bytes at addr into the write buffer as one or more
// entries of the configured width, stalling for free slots as needed.
func (s *System) enqueueWrite(addr, bytes uint64) {
	entryBytes := uint64(s.cfg.WBEntryWords * trace.WordBytes)
	for off := uint64(0); off < bytes; off += entryBytes {
		if s.wb.full() {
			s.stats.WBFullStalls++
			s.stallUntil(CauseWB, s.wb.headComplete())
			s.wb.popCompleted(s.now)
		}
		w := int(entryBytes) / trace.WordBytes
		if rem := int(bytes-off) / trace.WordBytes; rem < w {
			w = rem
		}
		if w < 1 {
			w = 1 // partial-word store still occupies a one-word entry
		}
		if err := s.wb.push(addr+off, w, s.now); err != nil {
			s.fail(err)
			return
		}
		s.stats.WBEnqueues++
	}
}

// loadL1 services a data read at paddr that LoadHit could not answer.
func (s *System) loadL1(paddr uint64) {
	o := s.l1.Load(paddr)
	if o == nil {
		return
	}
	switch o.Miss {
	case L1WriteOnlyReadMiss:
		s.stats.WriteOnlyReadMisses++
	case L1SubblockWordMiss:
		s.stats.SubblockWordMisses++
	default:
		// A plain read miss.
	}
	s.stats.L1DReadMisses++
	s.beforeDataMissFetch(paddr)
	s.refill(o, s.l2d, s.cfg.l1dFetch(), false)
}

// beforeDataMissFetch applies the configured loads-pass-stores scheme
// before a data-side refill reads L2.
func (s *System) beforeDataMissFetch(paddr uint64) {
	switch s.cfg.LoadsPassStores {
	case LPSNone:
		s.waitWBEmpty()
	case LPSAssociative:
		if t, ok := s.wb.matchCompletion(paddr, s.l1.d.offBits); ok {
			s.stats.WBFlushes++
			s.stallUntil(CauseWB, t)
			s.wb.popCompleted(s.now)
		}
	case LPSDirtyBit:
		// The read proceeds unless a recent dirty replacement left a
		// flush in progress, in which case fetches wait it out.
		if s.flushBarrier > s.now {
			s.stallUntil(CauseWB, s.flushBarrier)
			s.wb.popCompleted(s.now)
		}
	}
}

// store services a data write of size bytes at vaddr.
func (s *System) store(pid mmu.PID, vaddr uint32, size uint8) {
	paddr, samePage := s.mmu.SamePageD(pid, vaddr)
	if !samePage {
		paddr = s.chargeTLB(s.mmu.TranslateD(pid, vaddr))
	}
	s.stats.L1DWrites++
	o := s.l1.Store(paddr, size)
	if o == nil {
		// A hit that sends nothing to L2 is a write-back hit, which
		// takes two cycles: tag check before commit.
		s.stallFor(CauseL1Write, 1)
		return
	}
	if o.WriteThrough {
		s.enqueueWrite(o.Word, uint64(trace.WordBytes)) // one word-wide entry
	}
	if o.Miss == L1Hit {
		// A write-through hit writes the data while the tag checks.
		return
	}
	s.stats.L1DWriteMisses++
	if o.Refill() {
		// One-cycle write-back miss, then write-allocate.
		s.waitWBEmpty()
		s.refill(o, s.l2d, s.cfg.l1dFetch(), false)
		return
	}
	// Write-through miss: a second cycle invalidates the corrupted line
	// or installs the new tag.
	s.stallFor(CauseL1Write, 1)
	s.evict(o)
}

// l2Read performs an L1 refill read of `words` at block from bank,
// returning the refill cycles and any main-memory penalty cycles.
func (s *System) l2Read(bank *l2bank, block uint64, words int, instrSide bool) (refill, mem uint64) {
	if instrSide {
		s.stats.L2IAccesses++
	} else {
		s.stats.L2DAccesses++
	}
	refill = uint64(bank.timing.RefillCycles(words))
	line := bank.c.lineAddr(block)
	if slot := bank.c.find(line); slot >= 0 && bank.c.flags[slot]&flagValid != 0 {
		bank.c.touch(slot)
		return refill, 0
	}
	if instrSide {
		s.stats.L2IMisses++
	} else {
		s.stats.L2DMisses++
	}
	mem = s.memoryFetch(bank, line, s.now+refill, false)
	return refill, mem
}

// wbService drains one write-buffer entry into L2-D beginning at cycle
// start and returns the cycles the drain occupies.
func (s *System) wbService(addr uint64, words int, start uint64) uint64 {
	bank := s.l2d
	s.stats.L2DAccesses++
	cycles := uint64(bank.timing.AccessTime())
	line := bank.c.lineAddr(addr)
	if slot := bank.c.find(line); slot >= 0 && bank.c.flags[slot]&flagValid != 0 {
		bank.c.flags[slot] |= flagDirty
		bank.c.touch(slot)
		return cycles
	}
	// Write-allocate: the line must be fetched from memory before the
	// (partial) write can be merged.
	s.stats.L2DMisses++
	cycles += s.memoryFetch(bank, line, start+cycles, true)
	return cycles
}

// memoryFetch installs line into bank from main memory at cycle start
// and returns the penalty cycles, accounting for a dirty victim (written
// back inline, or via the dirty buffer when configured) and for the
// memory bus still being busy with a previous dirty-buffer write-back.
func (s *System) memoryFetch(bank *l2bank, line uint64, start uint64, markDirty bool) uint64 {
	var wait uint64
	if s.memBusyUntil > start {
		wait = s.memBusyUntil - start
	}
	flags := flagValid
	if markDirty {
		flags |= flagDirty
	}
	ev := bank.c.insert(line, flags, bank.c.fullMask)
	penalty := uint64(s.cfg.MemCleanPenalty)
	if ev.valid && ev.dirty {
		s.stats.L2DDirtyMisses++
		if s.cfg.L2DirtyBuffer {
			// Read the requested line first; the dirty line drains from
			// the buffer afterwards, keeping the bus busy.
			s.memBusyUntil = start + wait + penalty +
				uint64(s.cfg.MemDirtyPenalty-s.cfg.MemCleanPenalty)
			return wait + penalty
		}
		penalty = uint64(s.cfg.MemDirtyPenalty)
	}
	s.memBusyUntil = start + wait + penalty
	return wait + penalty
}
