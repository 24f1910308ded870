package mmu

import (
	"fmt"
	"math/rand"
	"testing"
)

// refTLB is a plain 2-way LRU TLB: per set, the resident keys with the
// most recently used first.
type refTLB struct {
	sets  uint32
	lines [][]uint64
	stats TLBStats
}

func newRefTLB(entries int) *refTLB {
	sets := uint32(entries / 2)
	return &refTLB{sets: sets, lines: make([][]uint64, sets)}
}

func (r *refTLB) access(pid PID, vpn uint32) bool {
	key := uint64(pid)<<32 | uint64(vpn)
	set := vpn % r.sets
	st := r.lines[set]
	for i, k := range st {
		if k == key {
			r.stats.Hits++
			r.lines[set] = append([]uint64{key}, append(st[:i:i], st[i+1:]...)...)
			return true
		}
	}
	r.stats.Misses++
	if len(st) == 2 {
		st = st[:1]
	}
	r.lines[set] = append([]uint64{key}, st...)
	return false
}

func (r *refTLB) flush() { r.lines = make([][]uint64, r.sets) }

// refMMU is the reference model the MMU's translation paths must match:
// first-touch staggered page coloring, a refTLB per side, and the
// warm paths' per-side 8-entry direct-mapped memo, whose hits leave the
// TLB alone and whose misses access it.
type refMMU struct {
	colors       uint32
	pages        map[uint64]uint32
	nextFree     []uint32
	itlb, dtlb   *refTLB
	warmI, warmD map[uint64]uint64 // memo slot -> key
}

func newRefMMU(cfg Config) *refMMU {
	cfg = cfg.withDefaults()
	return &refMMU{
		colors:   cfg.Colors,
		pages:    map[uint64]uint32{},
		nextFree: make([]uint32, cfg.Colors),
		itlb:     newRefTLB(cfg.ITLBEntries),
		dtlb:     newRefTLB(cfg.DTLBEntries),
		warmI:    map[uint64]uint64{},
		warmD:    map[uint64]uint64{},
	}
}

func (r *refMMU) paddr(pid PID, vaddr uint32) uint64 {
	vpn := vaddr >> PageShift
	key := uint64(pid)<<32 | uint64(vpn)
	pfn, ok := r.pages[key]
	if !ok {
		color := (vpn + uint32(pid)*pidColorStride) % r.colors
		pfn = r.nextFree[color]*r.colors + color
		r.nextFree[color]++
		r.pages[key] = pfn
	}
	return uint64(pfn)<<PageShift | uint64(vaddr&OffsetMask)
}

func (r *refMMU) translate(tlb *refTLB, pid PID, vaddr uint32) (uint64, bool) {
	hit := tlb.access(pid, vaddr>>PageShift)
	return r.paddr(pid, vaddr), hit
}

func (r *refMMU) translateWarm(tlb *refTLB, memo map[uint64]uint64, pid PID, vaddr uint32) uint64 {
	key := uint64(pid)<<32 | uint64(vaddr>>PageShift)
	slot := key & (warmMemoSize - 1)
	if k, ok := memo[slot]; !ok || k != key {
		tlb.access(pid, vaddr>>PageShift)
		memo[slot] = key
	}
	return r.paddr(pid, vaddr)
}

// TestTranslateMatchesReference drives random mixes of exact and warm
// translations on both sides, with TLB flushes, and checks
// every physical address and hit flag, and both TLBs' counters after
// every operation, against refMMU. The streams stay on one page for
// runs of references, as instruction fetches do, so the same-page fast
// path takes most of them; page changes, warm accesses to other pages
// and flushes between them are what can make its memo stale.
func TestTranslateMatchesReference(t *testing.T) {
	for _, cfg := range []Config{{}, {ITLBEntries: 4, DTLBEntries: 8}} {
		t.Run(fmt.Sprintf("itlb%d-dtlb%d", cfg.ITLBEntries, cfg.DTLBEntries), func(t *testing.T) {
			testTranslateMatchesReference(t, cfg)
		})
	}
}

func testTranslateMatchesReference(t *testing.T, cfg Config) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := mustMMU(t, cfg)
		ref := newRefMMU(cfg)
		pid, vpn := PID(1), uint32(0)
		for op := 0; op < 5_000; op++ {
			if rng.Intn(6) == 0 {
				pid, vpn = PID(1+rng.Intn(3)), uint32(rng.Intn(48))
			}
			vaddr := vpn<<PageShift | uint32(rng.Intn(PageBytes))
			k := rng.Intn(20)
			if k < 5 && rng.Intn(2) == 0 {
				// A warm access elsewhere moves the TLB's last access
				// away from the ports' memoized pages.
				vaddr = uint32(rng.Intn(48))<<PageShift | uint32(rng.Intn(PageBytes))
			}
			switch {
			case k == 0 && rng.Intn(2) == 0:
				m.ITLB().Flush()
				ref.itlb.flush()
			case k == 0:
				m.DTLB().Flush()
				ref.dtlb.flush()
			case k < 3:
				if got, want := m.TranslateWarmI(pid, vaddr), ref.translateWarm(ref.itlb, ref.warmI, pid, vaddr); got != want {
					t.Fatalf("seed %d op %d: TranslateWarmI(%d, %#x) = %#x, want %#x", seed, op, pid, vaddr, got, want)
				}
			case k < 5:
				if got, want := m.TranslateWarmD(pid, vaddr), ref.translateWarm(ref.dtlb, ref.warmD, pid, vaddr); got != want {
					t.Fatalf("seed %d op %d: TranslateWarmD(%d, %#x) = %#x, want %#x", seed, op, pid, vaddr, got, want)
				}
			case k < 13:
				got, gotHit := m.TranslateI(pid, vaddr)
				want, wantHit := ref.translate(ref.itlb, pid, vaddr)
				if got != want || gotHit != wantHit {
					t.Fatalf("seed %d op %d: TranslateI(%d, %#x) = %#x, %v; want %#x, %v", seed, op, pid, vaddr, got, gotHit, want, wantHit)
				}
			default:
				got, gotHit := m.TranslateD(pid, vaddr)
				want, wantHit := ref.translate(ref.dtlb, pid, vaddr)
				if got != want || gotHit != wantHit {
					t.Fatalf("seed %d op %d: TranslateD(%d, %#x) = %#x, %v; want %#x, %v", seed, op, pid, vaddr, got, gotHit, want, wantHit)
				}
			}
			if got, want := m.ITLB().Stats(), ref.itlb.stats; got != want {
				t.Fatalf("seed %d op %d: ITLB stats %v, want %v", seed, op, got, want)
			}
			if got, want := m.DTLB().Stats(), ref.dtlb.stats; got != want {
				t.Fatalf("seed %d op %d: DTLB stats %v, want %v", seed, op, got, want)
			}
		}
	}
}

// translateSink keeps BenchmarkTranslate's calls from being optimized
// away.
var translateSink uint64

// BenchmarkTranslate measures one instruction-side translation. On the
// same-page stream every fetch stays on one page, as sequential code
// does, so each call takes the same-page fast path; the page-crossing
// stream moves to another of 16 resident pages on every call, so each
// call takes the full path: a TLB probe that hits and a page-table
// lookup.
func BenchmarkTranslate(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stride uint32
	}{
		{"same-page", 4},
		{"page-crossing", PageBytes + 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				translateSink, _ = m.TranslateI(1, uint32(i)*bc.stride&(16*PageBytes-1))
			}
		})
	}
}
