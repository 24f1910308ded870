package core

import "fmt"

// This file is the runtime self-check layer: structural invariants of
// the model that hold at every instruction boundary. A multi-hour sweep
// enables them (Config.SelfCheck) so that state corruption — a model
// bug, a bad derived configuration — surfaces as a typed InvariantError
// near the offending cycle instead of as a silently wrong CPI.
//
// Strict L1⊆L2 inclusion is deliberately NOT checked: the modeled
// hardware does not back-invalidate L1 lines when an L2 replacement
// displaces them (consistency is maintained through the write buffer,
// not through inclusion), so a valid L1 line with no L2 copy is a
// legal state.

// CheckInvariants verifies the model's internal consistency and returns
// a *InvariantError describing the first violation, or nil. It may be
// called at any instruction boundary and after DrainWriteBuffer.
func (s *System) CheckInvariants() error {
	if err := s.checkWriteBuffer(); err != nil {
		return err
	}
	if err := s.checkCache("l1i", &s.l1.i, roleL1I); err != nil {
		return err
	}
	if err := s.checkCache("l1d", &s.l1.d, roleL1D); err != nil {
		return err
	}
	if s.cfg.L2Split {
		if err := s.checkCache("l2i", s.l2i.c, roleL2I); err != nil {
			return err
		}
		if err := s.checkCache("l2d", s.l2d.c, roleL2D); err != nil {
			return err
		}
	} else if err := s.checkCache("l2u", s.l2d.c, roleL2D); err != nil {
		return err
	}
	return s.checkStats()
}

// violation builds an InvariantError stamped with the current cycle.
func (s *System) violation(check string, addr uint64, format string, args ...any) *InvariantError {
	return &InvariantError{
		Check:  check,
		Cycle:  s.now,
		Addr:   addr,
		Detail: fmt.Sprintf(format, args...),
	}
}

// checkWriteBuffer verifies occupancy bounds, FIFO order, and the
// monotonicity of the lazily computed drain-completion times.
func (s *System) checkWriteBuffer() error {
	wb := s.wb
	if len(wb.q) > wb.capacity {
		return s.violation("wb-occupancy", 0, "%d entries in a %d-entry buffer", len(wb.q), wb.capacity)
	}
	sawUncomputed := false
	for i, e := range wb.q {
		if e.words < 1 || e.words > s.cfg.WBEntryWords {
			return s.violation("wb-entry-width", e.addr, "entry %d holds %d words (buffer is %dW wide)",
				i, e.words, s.cfg.WBEntryWords)
		}
		if e.enq > s.now {
			return s.violation("wb-fifo", e.addr, "entry %d enqueued in the future (cycle %d)", i, e.enq)
		}
		if i > 0 && e.enq < wb.q[i-1].enq {
			return s.violation("wb-fifo", e.addr, "entry %d enqueued at %d, before entry %d at %d",
				i, e.enq, i-1, wb.q[i-1].enq)
		}
		// Completion times are computed lazily for a prefix of the
		// queue, in drain order: once one entry is uncomputed, every
		// younger entry must be too, and computed times never decrease.
		if e.complete == 0 {
			sawUncomputed = true
			continue
		}
		if sawUncomputed {
			return s.violation("wb-drain-order", e.addr, "entry %d computed after an uncomputed entry", i)
		}
		if e.complete <= e.enq {
			return s.violation("wb-drain-order", e.addr, "entry %d completes at %d, not after its enqueue at %d",
				i, e.complete, e.enq)
		}
		if i > 0 && wb.q[i-1].complete != 0 && e.complete < wb.q[i-1].complete {
			return s.violation("wb-drain-order", e.addr, "entry %d completes at %d, before entry %d at %d",
				i, e.complete, i-1, wb.q[i-1].complete)
		}
	}
	return nil
}

// cacheRole says which flag/mask rules apply to an array.
type cacheRole int

const (
	roleL1I cacheRole = iota // never dirty, never write-only, full masks
	roleL1D                  // policy-dependent (see checkCache)
	roleL2I                  // split instruction bank: never dirty
	roleL2D                  // data or unified bank: dirty allowed
)

// checkCache verifies per-line flag and mask consistency for one array.
func (s *System) checkCache(name string, c *cache, role cacheRole) error {
	for slot, tag := range c.tags {
		if tag == tagInvalid {
			if c.flags[slot] != 0 || c.masks[slot] != 0 {
				return s.violation(name+"-empty-slot", 0,
					"slot %d is empty but has flags %#x mask %#x", slot, c.flags[slot], c.masks[slot])
			}
			continue
		}
		addr := tag << c.offBits
		if got := int(c.setOf(tag)); got != slot/c.geom.Ways {
			return s.violation(name+"-index", addr,
				"line in slot %d (set %d) indexes to set %d", slot, slot/c.geom.Ways, got)
		}
		f := c.flags[slot]
		if f&(flagValid|flagWriteOnly) == 0 {
			return s.violation(name+"-line-state", addr, "occupied slot %d is neither valid nor write-only", slot)
		}
		if f&flagValid != 0 && f&flagWriteOnly != 0 {
			return s.violation(name+"-line-state", addr, "slot %d is both valid and write-only", slot)
		}
		switch role {
		case roleL1I, roleL2I:
			if f&(flagDirty|flagWriteOnly) != 0 {
				return s.violation(name+"-flags", addr, "instruction-side line has flags %#x", f)
			}
			if c.masks[slot] != c.fullMask {
				return s.violation(name+"-mask", addr, "mask %#x, want full %#x", c.masks[slot], c.fullMask)
			}
		case roleL2D:
			if f&flagWriteOnly != 0 {
				return s.violation(name+"-flags", addr, "secondary-cache line marked write-only")
			}
			if c.masks[slot] != c.fullMask {
				return s.violation(name+"-mask", addr, "mask %#x, want full %#x", c.masks[slot], c.fullMask)
			}
		case roleL1D:
			if err := s.checkL1DLine(name, c, slot, addr, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkL1DLine applies the write-policy-specific rules: which policies
// may set the dirty and write-only bits, and what the word-valid mask
// of a valid or write-only line must look like.
func (s *System) checkL1DLine(name string, c *cache, slot int, addr uint64, f uint8) error {
	if f&flagDirty != 0 && s.cfg.WritePolicy == WriteMissInvalidate {
		return s.violation(name+"-dirty-bit", addr,
			"dirty line under %v, which never sets the dirty bit", s.cfg.WritePolicy)
	}
	if f&flagWriteOnly != 0 && s.cfg.WritePolicy != WriteOnly {
		return s.violation(name+"-flags", addr,
			"write-only line under the %v policy", s.cfg.WritePolicy)
	}
	if s.cfg.WritePolicy == Subblock {
		if c.masks[slot]&^c.fullMask != 0 {
			return s.violation(name+"-mask", addr, "mask %#x has bits outside the line (%#x)",
				c.masks[slot], c.fullMask)
		}
		return nil
	}
	// Outside subblock placement the mask is binary: valid lines carry
	// the full mask, write-only lines carry none.
	if f&flagValid != 0 && c.masks[slot] != c.fullMask {
		return s.violation(name+"-mask", addr, "valid line mask %#x, want full %#x", c.masks[slot], c.fullMask)
	}
	if f&flagWriteOnly != 0 && c.masks[slot] != 0 {
		return s.violation(name+"-mask", addr, "write-only line mask %#x, want 0", c.masks[slot])
	}
	return nil
}

// checkStats verifies the conservation laws of the statistics: every
// cycle is either an issue cycle or an attributed stall, every
// instruction fetches exactly once, misses never exceed accesses, and
// the TLBs see exactly one access per reference.
func (s *System) checkStats() error {
	var stalls uint64
	for _, n := range s.stats.Stalls {
		stalls += n
	}
	if s.now != s.stats.Instructions+stalls {
		return s.violation("stats-cycles", 0,
			"cycle %d != %d issue cycles + %d attributed stalls", s.now, s.stats.Instructions, stalls)
	}
	if s.stats.L1IAccesses != s.stats.Instructions {
		return s.violation("stats-l1i-accesses", 0, "%d L1-I accesses for %d instructions",
			s.stats.L1IAccesses, s.stats.Instructions)
	}
	type pair struct {
		name           string
		misses, access uint64
	}
	for _, p := range []pair{
		{"l1i", s.stats.L1IMisses, s.stats.L1IAccesses},
		{"l1d-read", s.stats.L1DReadMisses, s.stats.L1DReads},
		{"l1d-write", s.stats.L1DWriteMisses, s.stats.L1DWrites},
		{"l2i", s.stats.L2IMisses, s.stats.L2IAccesses},
		{"l2d", s.stats.L2DMisses, s.stats.L2DAccesses},
		{"l2d-dirty", s.stats.L2DDirtyMisses, s.stats.L2DMisses},
		{"write-only-read", s.stats.WriteOnlyReadMisses, s.stats.L1DReadMisses},
		{"subblock-word", s.stats.SubblockWordMisses, s.stats.L1DReadMisses},
	} {
		if p.misses > p.access {
			return s.violation("stats-"+p.name, 0, "%d misses exceed %d accesses", p.misses, p.access)
		}
	}
	// The Cycles and TLB-miss fields are stamped from the live clock and
	// the MMU's own counters when Stats() snapshots; on the live
	// accumulator they stay zero. Either way a nonzero value that
	// disagrees with its source means the stamp went stale.
	if c := s.stats.Cycles; c != 0 && c != s.now {
		return s.violation("stats-cycles-stamp", 0, "stamped %d cycles but the clock reads %d", c, s.now)
	}
	// Write-buffer conservation: the queue never holds more entries than
	// were ever enqueued, every full-buffer stall precedes an enqueue,
	// and at most one flush event is charged per instruction.
	if occ := uint64(len(s.wb.q)); occ > s.stats.WBEnqueues {
		return s.violation("stats-wb-enqueues", 0, "%d entries queued but only %d ever enqueued", occ, s.stats.WBEnqueues)
	}
	if s.stats.WBFullStalls > s.stats.WBEnqueues {
		return s.violation("stats-wb-stalls", 0, "%d full-buffer stalls exceed %d enqueues",
			s.stats.WBFullStalls, s.stats.WBEnqueues)
	}
	if s.stats.WBFlushes > s.stats.Instructions {
		return s.violation("stats-wb-flushes", 0, "%d flushes exceed %d instructions",
			s.stats.WBFlushes, s.stats.Instructions)
	}
	it, dt := s.mmu.ITLB().Stats(), s.mmu.DTLB().Stats()
	if got := it.Hits + it.Misses; got != s.stats.L1IAccesses {
		return s.violation("stats-itlb", 0, "%d ITLB accesses for %d instruction fetches", got, s.stats.L1IAccesses)
	}
	if refs, got := s.stats.L1DReads+s.stats.L1DWrites, dt.Hits+dt.Misses; got != refs {
		return s.violation("stats-dtlb", 0, "%d DTLB accesses for %d data references", got, refs)
	}
	if m := s.stats.ITLBMisses; m != 0 && m != it.Misses {
		return s.violation("stats-itlb-stamp", 0, "stamped %d ITLB misses but the TLB counted %d", m, it.Misses)
	}
	if m := s.stats.DTLBMisses; m != 0 && m != dt.Misses {
		return s.violation("stats-dtlb-stamp", 0, "stamped %d DTLB misses but the TLB counted %d", m, dt.Misses)
	}
	return nil
}
