package core

import (
	"repro/internal/mmu"
	"repro/internal/trace"
)

// Functional warming: the fast-forward mode of sampled simulation.
//
// WarmBatch advances the architectural state an upcoming measurement
// interval depends on — L1/L2 tag and replacement state, line flags and
// subblock masks, TLB contents — without any cycle accounting: no
// clock, no stall attribution, no Stats counters, no write-buffer
// timing. The L1 transition is the exact engine's own (the shared L1
// model); warming only applies each outcome's L2 traffic functionally.
//
// One ordering rule is inherited from the write buffer: a write-back
// victim's L2 probe happens in FIFO order *after* the refill read that
// displaced it (the exact engine enqueues the victim, reads L2, and
// drains the buffer afterwards), so warmTraffic applies victims after
// the read. Write-through stores have no such reordering window that the
// exact engine's wait-for-empty rules would preserve, so they probe L2
// immediately.

// WarmBatch functionally executes events of process pid and returns how
// many were consumed. Like StepBatch it stops early, after the event,
// when an executed event is a syscall, so a scheduler can honor
// syscall-triggered context switches at the exact instruction a full
// replay would. A latched model fault refuses further work exactly as
// Step does.
func (s *System) WarmBatch(pid mmu.PID, evs []trace.Event) (int, error) {
	if s.fault != nil {
		if len(evs) == 0 {
			return 0, s.fault
		}
		return 1, s.fault
	}
	for i := range evs {
		ev := &evs[i]
		s.warmL2(s.l1.Fetch(s.mmu.TranslateWarmI(pid, ev.PC)), s.l2i)
		switch ev.Kind {
		case trace.Load:
			s.warmL2(s.l1.Load(s.mmu.TranslateWarmD(pid, ev.Data)), s.l2d)
		case trace.Store:
			s.warmL2(s.l1.Store(s.mmu.TranslateWarmD(pid, ev.Data), ev.Size), s.l2d)
		case trace.None:
			// No data reference; the fetch above was the only access.
		}
		if ev.Syscall {
			return i + 1, nil
		}
	}
	return len(evs), nil
}

// warmL2 applies an L1 outcome's L2 traffic to bank's contents. It
// inlines into the warm loops, so a hit without traffic costs no call.
func (s *System) warmL2(o *L1Outcome, bank *l2bank) {
	if o != nil {
		s.warmTraffic(o, bank)
	}
}

// warmTraffic applies the write-through word, then the refill read,
// then the write-back victims (Config.Validate guarantees a fetch
// block fits one L2 line).
func (s *System) warmTraffic(o *L1Outcome, bank *l2bank) {
	if o.WriteThrough {
		// The exact engine enqueues a one-word write-buffer entry whose
		// drain probes L2-D; functionally that is an immediate L2 write.
		s.warmL2Write(o.Word)
	}
	if !o.Refill() {
		return
	}
	s.warmL2Read(bank, o.Block)
	for _, addr := range o.WriteBacks {
		s.warmL2Write(addr)
	}
}

// warmL2Read mirrors l2Read + memoryFetch content effects.
func (s *System) warmL2Read(bank *l2bank, block uint64) {
	line := bank.c.lineAddr(block)
	if slot := bank.c.find(line); slot >= 0 && bank.c.flags[slot]&flagValid != 0 {
		bank.c.touch(slot)
		return
	}
	bank.c.insert(line, flagValid, bank.c.fullMask)
}

// warmL2Write mirrors wbService: an L2-D write hit dirties and touches
// the line; a miss write-allocates it dirty.
func (s *System) warmL2Write(addr uint64) {
	bank := s.l2d
	line := bank.c.lineAddr(addr)
	if slot := bank.c.find(line); slot >= 0 && bank.c.flags[slot]&flagValid != 0 {
		bank.c.flags[slot] |= flagDirty
		bank.c.touch(slot)
		return
	}
	bank.c.insert(line, flagValid|flagDirty, bank.c.fullMask)
}

// CacheFingerprint hashes the functional cache state — tags, flags,
// subblock masks, and replacement state of both L1s and the L2 bank(s)
// — into one FNV-1a value. Equal fingerprints mean bit-identical cache
// contents; tests use it to pin the warm path against a full replay.
func (s *System) CacheFingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	arrays := []*cache{&s.l1.i, &s.l1.d, s.l2i.c}
	if s.l2d != s.l2i {
		arrays = append(arrays, s.l2d.c)
	}
	for _, c := range arrays {
		for i := range c.tags {
			word(c.tags[i])
			word(uint64(c.flags[i]))
			word(uint64(c.masks[i]))
		}
		for _, w := range c.lruWay {
			word(uint64(w))
		}
	}
	return h
}

// WarmScan is WarmBatch straight over a packed cursor's word stream:
// no Event materialization, and one L1-I probe per instruction-line run
// instead of per instruction. It exists because continuous functional
// warming is what keeps sampled simulation unbiased on workloads whose
// L2 reuse distances exceed any affordable warmup window, and at that
// duty cycle the per-event decode and fetch-probe costs dominate.
//
// The line-run filter is exact, not approximate: within a run of
// consecutive fetches to one line, no other line in that L1-I set is
// touched (data references never probe the instruction side), so
// probing once leaves tags, flags, and replacement state bit-identical
// to probing every instruction. Line identity is compared on virtual
// addresses, which is sound because a cache line never spans pages.
//
// The contract matches WarmBatch: up to max events are consumed, a
// consumed syscall event stops the scan (reported true), and n == 0
// with max > 0 means the cursor is exhausted.
func (s *System) WarmScan(pid mmu.PID, c *trace.Cursor, max int) (int, bool, error) {
	if s.fault != nil {
		return 0, false, s.fault
	}
	n := 0
	// Consume the cursor's decoded read-ahead first; RawWords is only
	// valid once no batched events are pending.
	if pending := c.Pending(); len(pending) > 0 {
		if len(pending) > max {
			pending = pending[:max]
		}
		k, err := s.WarmBatch(pid, pending)
		c.Skip(k)
		n += k
		if err != nil {
			return n, false, err
		}
		if k > 0 && pending[k-1].Syscall {
			return n, true, nil
		}
		if n >= max {
			return n, false, nil
		}
	}
	words, w, end := c.RawWords()
	drained := n
	shift := s.l1.i.offBits
	lastLine := ^uint32(0) // no line: lines fit 30 bits after the shift
	syscall := false
	for n < max && w < end {
		pc, meta, data, next := trace.Decode(words, w)
		w = next
		n++
		if line := pc >> shift; line != lastLine {
			lastLine = line
			if paddr := s.mmu.TranslateWarmI(pid, pc); !s.l1.FetchHit(paddr) {
				s.warmL2(s.l1.Fetch(paddr), s.l2i)
			}
		}
		if kind := trace.Kind(meta >> trace.MetaKindShift); kind != trace.None {
			paddr := s.mmu.TranslateWarmD(pid, data)
			if kind != trace.Load {
				s.warmL2(s.l1.Store(paddr, uint8(meta>>trace.MetaSizeShift)), s.l2d)
			} else if !s.l1.LoadHit(paddr) {
				s.warmL2(s.l1.Load(paddr), s.l2d)
			}
		}
		if meta&trace.MetaSyscallBit != 0 {
			syscall = true
			break
		}
	}
	c.RawAdvance(w, n-drained) // raw-consumed events only
	return n, syscall, nil
}
