// Package mmu models the memory management unit of the GaAs
// microprocessor study: per-process (PID-prefixed) virtual address
// spaces, virtual-to-physical translation with page coloring, and the
// split two-way set-associative TLB that lives on the MMU chip.
//
// The target machine has 4 KW (16 KB) pages. Because the operating
// system allocates physical frames with page coloring, the physical page
// number of every frame agrees with its virtual page number modulo the
// number of colors. That preserves the cache-index bits across
// translation, which is what lets the direct-mapped primary caches be
// indexed with untranslated bits while using physical tags.
package mmu

import "fmt"

const (
	// PageShift is log2 of the page size: 4 KW = 16 KB pages.
	PageShift = 14
	// PageBytes is the page size in bytes.
	PageBytes = 1 << PageShift
	// OffsetMask extracts the page offset from an address.
	OffsetMask = PageBytes - 1
)

// Coloring selects the frame-allocation policy.
type Coloring int

const (
	// ColoringStaggered is the default: within one address space the
	// color advances one per virtual page (preserving the TLB-slice
	// invariant), and each process starts at a staggered color so
	// identical images do not collide in physically indexed caches.
	ColoringStaggered Coloring = iota
	// ColoringStrict binds color = vpn mod colors with no per-process
	// stagger, the literal reading of the page-coloring rule. Identical
	// process images then contend for the same cache sets.
	ColoringStrict
	// ColoringRandom scatters frames pseudo-randomly, modeling an
	// allocator with no coloring at all; cache indices are then
	// unpredictable from virtual addresses.
	ColoringRandom
)

// String names the policy.
func (c Coloring) String() string {
	switch c {
	case ColoringStaggered:
		return "staggered"
	case ColoringStrict:
		return "strict"
	case ColoringRandom:
		return "random"
	}
	return fmt.Sprintf("Coloring(%d)", int(c))
}

// PID identifies a process address space. The paper's architecture
// prefixes virtual addresses with an 8-bit PID so caches and the TLB
// need not be flushed on context switches.
type PID uint8

// MMU translates PID-prefixed virtual addresses to physical addresses.
// Frames are assigned on first touch using page coloring. The zero value
// is not ready to use; call New.
type MMU struct {
	colors   uint32
	coloring Coloring
	pages    map[uint64]uint32 // pid<<32|vpn -> pfn
	nextFree []uint32          // per color, next frame index to hand out
	itlb     *TLB
	dtlb     *TLB
	lastI    transCache // instruction-side last translation
	lastD    transCache // data-side last translation
	warmI    [warmMemoSize]transCache
	warmD    [warmMemoSize]transCache
}

// warmMemoSize is the per-side capacity of the warm-translation memo, a
// tiny direct-mapped table indexed by low vpn bits. It needs to cover
// only the handful of pages a functional-warming window cycles through.
const warmMemoSize = 8

// transCache memoizes the most recent (pid, vpn) -> pfn translation of
// one access port. Page mappings are assigned on first touch and never
// change afterwards, so the memo can only ever agree with the page
// table; it exists because instruction fetches in particular hit the
// same page for long runs, and the map lookup in frameFor is one of the
// hottest operations in a simulation. It is a pure software
// memoization: TLB hit/miss accounting is untouched.
type transCache struct {
	key uint64 // pid<<32|vpn; transCacheEmpty when unset
	pfn uint32
}

// transCacheEmpty can never collide with a real key: pid is 8 bits and
// vpn 32, so real keys fit in 40 bits.
const transCacheEmpty = ^uint64(0)

// Config parameterizes an MMU.
type Config struct {
	// Colors is the number of page colors the operating system
	// maintains. It should be at least cacheBytes/PageBytes for the
	// largest physically indexed direct-mapped cache in the system so
	// translation preserves that cache's index bits. Zero means 64
	// (256 KW L2 / 4 KW pages), the base architecture's requirement.
	Colors uint32
	// Coloring selects the frame-allocation policy (default
	// ColoringStaggered).
	Coloring Coloring
	// ITLBEntries and DTLBEntries size the two-way set-associative
	// split TLB. Zero means the paper's 32-entry instruction and
	// 64-entry data TLBs.
	ITLBEntries int
	DTLBEntries int
}

// Validate reports whether the configuration describes a buildable MMU
// (after applying the zero-value defaults).
func (cfg Config) Validate() error {
	cfg = cfg.withDefaults()
	if _, err := NewTLB(cfg.ITLBEntries, 2); err != nil {
		return fmt.Errorf("ITLB: %w", err)
	}
	if _, err := NewTLB(cfg.DTLBEntries, 2); err != nil {
		return fmt.Errorf("DTLB: %w", err)
	}
	return nil
}

func (cfg Config) withDefaults() Config {
	if cfg.Colors == 0 {
		cfg.Colors = 64
	}
	if cfg.ITLBEntries == 0 {
		cfg.ITLBEntries = 32
	}
	if cfg.DTLBEntries == 0 {
		cfg.DTLBEntries = 64
	}
	return cfg
}

// New returns an MMU with the given configuration.
func New(cfg Config) (*MMU, error) {
	cfg = cfg.withDefaults()
	itlb, err := NewTLB(cfg.ITLBEntries, 2)
	if err != nil {
		return nil, fmt.Errorf("ITLB: %w", err)
	}
	dtlb, err := NewTLB(cfg.DTLBEntries, 2)
	if err != nil {
		return nil, fmt.Errorf("DTLB: %w", err)
	}
	m := &MMU{
		colors:   cfg.Colors,
		coloring: cfg.Coloring,
		pages:    make(map[uint64]uint32),
		nextFree: make([]uint32, cfg.Colors),
		itlb:     itlb,
		dtlb:     dtlb,
		lastI:    transCache{key: transCacheEmpty},
		lastD:    transCache{key: transCacheEmpty},
	}
	for i := range m.warmI {
		m.warmI[i].key = transCacheEmpty
		m.warmD[i].key = transCacheEmpty
	}
	return m, nil
}

// Colors returns the number of page colors in use.
func (m *MMU) Colors() uint32 { return m.colors }

// ITLB returns the instruction TLB.
func (m *MMU) ITLB() *TLB { return m.itlb }

// DTLB returns the data TLB.
func (m *MMU) DTLB() *TLB { return m.dtlb }

// pidColorStride staggers the color assignment across address spaces.
// Within one process, pages keep the page-coloring invariant the TLB
// slice needs — the color advances by one per virtual page — but
// different processes start at different colors, so identically laid
// out processes do not pile onto the same cache sets (real kernels
// stagger their color search the same way; without it, a
// multiprogrammed workload of same-image processes would thrash any
// physically indexed cache pathologically).
const pidColorStride = 13

// frameFor returns the physical frame number for (pid, vpn), assigning
// one with the process's staggered color on first touch.
func (m *MMU) frameFor(pid PID, vpn uint32) uint32 {
	key := uint64(pid)<<32 | uint64(vpn)
	if pfn, ok := m.pages[key]; ok {
		return pfn
	}
	var color uint32
	switch m.coloring {
	case ColoringStrict:
		color = vpn % m.colors
	case ColoringRandom:
		h := (uint64(pid)<<32 | uint64(vpn)) * 0x9e3779b97f4a7c15
		color = uint32(h>>40) % m.colors
	default:
		color = (vpn + uint32(pid)*pidColorStride) % m.colors
	}
	pfn := m.nextFree[color]*m.colors + color
	m.nextFree[color]++
	m.pages[key] = pfn
	return pfn
}

// TranslateI translates an instruction-fetch address and reports whether
// the access hit in the instruction TLB.
func (m *MMU) TranslateI(pid PID, vaddr uint32) (paddr uint64, tlbHit bool) {
	if paddr, ok := m.SamePageI(pid, vaddr); ok {
		return paddr, true
	}
	return m.translate(m.itlb, &m.lastI, pid, vaddr)
}

// TranslateD translates a data access address and reports whether the
// access hit in the data TLB.
func (m *MMU) TranslateD(pid PID, vaddr uint32) (paddr uint64, tlbHit bool) {
	if paddr, ok := m.SamePageD(pid, vaddr); ok {
		return paddr, true
	}
	return m.translate(m.dtlb, &m.lastD, pid, vaddr)
}

// SamePageI is TranslateI's same-page fast path on its own. When the
// page is both the port's memoized translation and the instruction
// TLB's last access, the TLB lookup is a hit on the set's most recently
// used entry, whose replacement update changes nothing: SamePageI
// counts the hit and returns the physical address with ok set, exactly
// as TranslateI would. Otherwise it changes nothing and returns ok
// false. It is small enough to inline, which TranslateI (with its
// outlined miss path) is not, so a hot loop fronts TranslateI with it.
func (m *MMU) SamePageI(pid PID, vaddr uint32) (paddr uint64, ok bool) {
	key := uint64(pid)<<32 | uint64(vaddr>>PageShift)
	if key != m.lastI.key || key != m.itlb.last {
		return 0, false
	}
	m.itlb.stats.Hits++
	return uint64(m.lastI.pfn)<<PageShift | uint64(vaddr&OffsetMask), true
}

// SamePageD is SamePageI for the data port and the data TLB.
func (m *MMU) SamePageD(pid PID, vaddr uint32) (paddr uint64, ok bool) {
	key := uint64(pid)<<32 | uint64(vaddr>>PageShift)
	if key != m.lastD.key || key != m.dtlb.last {
		return 0, false
	}
	m.dtlb.stats.Hits++
	return uint64(m.lastD.pfn)<<PageShift | uint64(vaddr&OffsetMask), true
}

func (m *MMU) translate(tlb *TLB, tc *transCache, pid PID, vaddr uint32) (uint64, bool) {
	vpn := vaddr >> PageShift
	hit := tlb.Access(pid, vpn)
	key := uint64(pid)<<32 | uint64(vpn)
	pfn := tc.pfn
	if tc.key != key {
		pfn = m.frameFor(pid, vpn)
		tc.key, tc.pfn = key, pfn
	}
	return uint64(pfn)<<PageShift | uint64(vaddr&OffsetMask), hit
}

// TranslateWarmI is TranslateI for the functional-warming fast path:
// on a memo hit the TLB is left completely alone (no hit/miss
// accounting, no replacement-state update), which is what makes
// warming cheap. On a memo miss the TLB is still probed so its
// contents stay warm across a fast-forward span. The translation
// itself is always exact — page mappings are immutable once assigned —
// but TLB replacement state can drift from what a full replay would
// hold; the detailed-warmup window before each measured interval is
// what repairs the residue (see internal/sample).
// The memo hit path falls straight through; only a miss pays the
// outlined TLB-access call.
func (m *MMU) TranslateWarmI(pid PID, vaddr uint32) uint64 {
	key := uint64(pid)<<32 | uint64(vaddr>>PageShift)
	tc := &m.warmI[key&(warmMemoSize-1)]
	if tc.key != key {
		return m.translateWarmMiss(m.itlb, tc, pid, vaddr)
	}
	return uint64(tc.pfn)<<PageShift | uint64(vaddr&OffsetMask)
}

// TranslateWarmD is TranslateD for the functional-warming fast path,
// with the same contract as TranslateWarmI.
func (m *MMU) TranslateWarmD(pid PID, vaddr uint32) uint64 {
	key := uint64(pid)<<32 | uint64(vaddr>>PageShift)
	tc := &m.warmD[key&(warmMemoSize-1)]
	if tc.key != key {
		return m.translateWarmMiss(m.dtlb, tc, pid, vaddr)
	}
	return uint64(tc.pfn)<<PageShift | uint64(vaddr&OffsetMask)
}

func (m *MMU) translateWarmMiss(tlb *TLB, tc *transCache, pid PID, vaddr uint32) uint64 {
	vpn := vaddr >> PageShift
	tlb.Access(pid, vpn)
	tc.key, tc.pfn = uint64(pid)<<32|uint64(vpn), m.frameFor(pid, vpn)
	return uint64(tc.pfn)<<PageShift | uint64(vaddr&OffsetMask)
}

// MappedPages returns the number of virtual pages currently mapped
// across all address spaces.
func (m *MMU) MappedPages() int { return len(m.pages) }

// String summarizes the MMU state.
func (m *MMU) String() string {
	return fmt.Sprintf("mmu: %d colors, %d mapped pages, itlb %v, dtlb %v",
		m.colors, len(m.pages), m.itlb.Stats(), m.dtlb.Stats())
}
