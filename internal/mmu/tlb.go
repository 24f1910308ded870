package mmu

import (
	"errors"
	"fmt"
)

// ErrBadTLBShape reports an unimplementable TLB organization: entries
// must be a positive multiple of ways with a power-of-two set count.
var ErrBadTLBShape = errors.New("mmu: bad TLB shape")

// TLB is a set-associative translation lookaside buffer keyed by
// (PID, virtual page number). Entries carry no translation payload —
// the simulator only needs hit/miss behaviour and statistics; the
// actual frame assignment is the MMU's page table.
type TLB struct {
	sets    uint32
	ways    int
	tags    []uint64 // sets*ways; entryInvalid when empty
	lruBits []uint8  // per set, for 2-way: which way is LRU
	stats   TLBStats

	// last is the key of the most recent Access (entryInvalid after a
	// Flush). That entry is present and most recently used in its set,
	// so repeating the access is a hit whose replacement update changes
	// nothing: the MMU's same-page fast path relies on this.
	last uint64
}

// TLBStats counts TLB accesses.
type TLBStats struct {
	Hits   uint64
	Misses uint64
}

// MissRatio returns misses over total accesses, or 0 for no accesses.
func (s TLBStats) MissRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// String formats the stats compactly.
func (s TLBStats) String() string {
	return fmt.Sprintf("{hits %d misses %d ratio %.4f}", s.Hits, s.Misses, s.MissRatio())
}

const entryInvalid = ^uint64(0)

// NewTLB returns a TLB with the given total entries and associativity.
// entries must be a positive multiple of ways, and entries/ways must be
// a power of two (true of the paper's 32x2 and 64x2 organizations);
// anything else returns ErrBadTLBShape.
func NewTLB(entries, ways int) (*TLB, error) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("%w: %d entries / %d ways", ErrBadTLBShape, entries, ways)
	}
	sets := uint32(entries / ways)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("%w: %d sets not a power of two", ErrBadTLBShape, sets)
	}
	t := &TLB{
		sets:    sets,
		ways:    ways,
		tags:    make([]uint64, entries),
		lruBits: make([]uint8, sets),
		last:    entryInvalid,
	}
	for i := range t.tags {
		t.tags[i] = entryInvalid
	}
	return t, nil
}

// Entries returns the total number of TLB entries.
func (t *TLB) Entries() int { return int(t.sets) * t.ways }

// Ways returns the TLB associativity.
func (t *TLB) Ways() int { return t.ways }

// Stats returns the access counters.
func (t *TLB) Stats() TLBStats { return t.stats }

// Access looks up (pid, vpn), inserting it with LRU replacement on a
// miss, and reports whether the lookup hit.
func (t *TLB) Access(pid PID, vpn uint32) bool {
	key := uint64(pid)<<32 | uint64(vpn)
	t.last = key
	set := vpn & (t.sets - 1)
	base := int(set) * t.ways
	for w := 0; w < t.ways; w++ {
		if t.tags[base+w] == key {
			t.stats.Hits++
			t.touch(set, w)
			return true
		}
	}
	t.stats.Misses++
	victim := t.victim(set)
	t.tags[base+victim] = key
	t.touch(set, victim)
	return false
}

// touch records way w of set as most recently used.
func (t *TLB) touch(set uint32, w int) {
	if t.ways == 2 {
		// lruBits holds the LRU way: the other one.
		t.lruBits[set] = uint8(1 - w)
		return
	}
	// For other associativities use a round-robin pointer seeded by the
	// touched way; exact LRU beyond 2 ways is not needed by the study.
	t.lruBits[set] = uint8((w + 1) % t.ways)
}

// victim returns the way to replace in set.
func (t *TLB) victim(set uint32) int {
	base := int(set) * t.ways
	for w := 0; w < t.ways; w++ {
		if t.tags[base+w] == entryInvalid {
			return w
		}
	}
	return int(t.lruBits[set]) % t.ways
}

// Flush invalidates every entry (not needed with PID-tagged entries, but
// provided for experiments that model PID-less architectures).
func (t *TLB) Flush() {
	t.last = entryInvalid
	for i := range t.tags {
		t.tags[i] = entryInvalid
	}
}
