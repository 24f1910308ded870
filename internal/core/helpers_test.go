package core

import "repro/internal/mmu"

// fetchInstruction services one instruction fetch at vaddr outside a
// full instruction step: the translation and L1-I access of execute.
func (s *System) fetchInstruction(pid mmu.PID, vaddr uint32) {
	paddr := s.chargeTLB(s.mmu.TranslateI(pid, vaddr))
	s.stats.L1IAccesses++
	s.fetchL1(paddr)
}

// load services one data read at vaddr outside a full instruction
// step: the translation and L1-D access of execute.
func (s *System) load(pid mmu.PID, vaddr uint32) {
	paddr := s.chargeTLB(s.mmu.TranslateD(pid, vaddr))
	s.stats.L1DReads++
	s.loadL1(paddr)
}
