package stackdist

import (
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/trace"
)

// naiveClass is the brute-force model of one class: a full LRU list per
// set for every distinct set count, every one of them updated on every
// reference, with no truncation, no repeat fast path and no early exit.
type naiveClass struct {
	offBits uint
	grids   []naiveGrid // ascending set count, like classAnalyzer.grids
}

type naiveGrid struct {
	sets, depth int
	lru         [][]uint64 // per set, MRU first, unbounded
	hist        Histogram
}

func newNaiveClass(spec GridSpec, maxPID int) *naiveClass {
	depth := map[int]int{}
	for _, size := range spec.SizesWords {
		for _, w := range spec.Ways {
			sets := size / (spec.LineWords * w)
			if w > depth[sets] {
				depth[sets] = w
			}
		}
	}
	n := &naiveClass{}
	for sets, d := range depth {
		g := naiveGrid{sets: sets, depth: d, lru: make([][]uint64, sets)}
		g.hist = Histogram{Sets: sets, Depth: d, Reads: make([]uint64, d+1), Writes: make([]uint64, d+1),
			PerPID: make([][]uint64, maxPID+1)}
		for p := 1; p <= maxPID; p++ {
			g.hist.PerPID[p] = make([]uint64, d+1)
		}
		n.grids = append(n.grids, g)
	}
	sort.Slice(n.grids, func(i, j int) bool { return n.grids[i].sets < n.grids[j].sets })
	n.offBits = uint(bits.TrailingZeros(uint(spec.LineWords * trace.WordBytes)))
	return n
}

func (n *naiveClass) access(addr uint64, write bool, pid int) {
	line := addr >> n.offBits
	for gi := range n.grids {
		g := &n.grids[gi]
		set := int(line % uint64(g.sets))
		st := g.lru[set]
		d := g.depth // not found: a miss at every tracked associativity
		for i, l := range st {
			if l == line {
				st = append(st[:i], st[i+1:]...)
				d = min(i, g.depth)
				break
			}
		}
		g.lru[set] = append([]uint64{line}, st...)
		if write {
			g.hist.Writes[d]++
		} else {
			g.hist.Reads[d]++
		}
		g.hist.PerPID[pid][d]++
	}
}

// snapshot deep-copies the model's histograms.
func (n *naiveClass) snapshot() []Histogram {
	hs := make([]Histogram, len(n.grids))
	for i, g := range n.grids {
		h := g.hist
		h.Reads = append([]uint64(nil), h.Reads...)
		h.Writes = append([]uint64(nil), h.Writes...)
		h.PerPID = make([][]uint64, len(g.hist.PerPID))
		for p, row := range g.hist.PerPID {
			if row != nil {
				h.PerPID[p] = append([]uint64(nil), row...)
			}
		}
		hs[i] = h
	}
	return hs
}

// randomRefineGrid draws a grid whose set counts have gaps and whose
// depths differ per set count: a random subset of power-of-two sizes
// crossed with a random subset of {1, 2, 4, 8} ways.
func randomRefineGrid(rng *rand.Rand) GridSpec {
	spec := GridSpec{LineWords: 1 << rng.Intn(3)}
	for e := 6; e <= 12; e++ {
		if rng.Intn(2) == 0 {
			spec.SizesWords = append(spec.SizesWords, 1<<e)
		}
	}
	if len(spec.SizesWords) == 0 {
		spec.SizesWords = []int{1 << (6 + rng.Intn(7))}
	}
	for _, w := range []int{1, 2, 4, 8} {
		if rng.Intn(2) == 0 {
			spec.Ways = append(spec.Ways, w)
		}
	}
	if len(spec.Ways) == 0 {
		spec.Ways = []int{1 << rng.Intn(4)}
	}
	return spec
}

// TestClassAnalyzerMatchesNaiveLRU drives classAnalyzer, with its repeat
// fast path and set-refinement early exit, and the brute-force model
// with the same random streams over random grids, and demands identical
// Reads, Writes and PerPID histograms. A snapshot taken mid-pass must
// match the model at that point and stay unchanged as the pass goes on.
func TestClassAnalyzerMatchesNaiveLRU(t *testing.T) {
	const maxPID = 5
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		spec := randomRefineGrid(rng)
		if err := spec.validate("random grid"); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		c := newClassAnalyzer(ClassL2U, spec)
		naive := newNaiveClass(spec, maxPID)

		// A working set a few times the largest cache, addressed in
		// bytes, with runs of same-line and same-set references.
		lineBytes := uint64(spec.LineWords * trace.WordBytes)
		pool := uint64(4 * 4096 / spec.LineWords)
		steps := 4_000 + rng.Intn(4_000)
		mid := rng.Intn(steps)
		var midGot ClassResult
		var midWant []Histogram
		var line uint64
		pid := 1
		for i := 0; i < steps; i++ {
			switch r := rng.Intn(10); {
			case r < 3:
				// Repeat the previous line, possibly from another process.
			case r < 5:
				line += uint64(rng.Intn(3))
			case r < 7:
				line += uint64(64 << rng.Intn(4)) // same low bits: a set conflict
			default:
				line = uint64(rng.Int63n(int64(pool)))
			}
			line %= pool
			if rng.Intn(8) == 0 {
				pid = 1 + rng.Intn(maxPID)
			}
			addr := line*lineBytes + uint64(rng.Int63n(int64(lineBytes)))
			write := rng.Intn(3) == 0
			c.access(addr, write, pid)
			naive.access(addr, write, pid)
			if i == mid {
				midGot, midWant = c.snapshot(maxPID), naive.snapshot()
			}
		}
		// midGot was taken mid-pass: it must still hold the model's counts
		// at that point, though the analyzer has moved on since.
		compareHistograms(t, trial, "mid-pass", midGot.Grids, midWant)
		compareHistograms(t, trial, "final", c.snapshot(maxPID).Grids, naive.snapshot())
		if t.Failed() {
			t.Fatalf("trial %d: grid %+v", trial, spec)
		}
	}
}

func compareHistograms(t *testing.T, trial int, when string, got, want []Histogram) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("trial %d %s: %d grids, want %d", trial, when, len(got), len(want))
		return
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Sets != w.Sets || g.Depth != w.Depth {
			t.Errorf("trial %d %s grid %d: sets/depth %d/%d, want %d/%d", trial, when, i, g.Sets, g.Depth, w.Sets, w.Depth)
			continue
		}
		if !reflect.DeepEqual(g.Reads, w.Reads) {
			t.Errorf("trial %d %s sets %d: Reads %v, want %v", trial, when, g.Sets, g.Reads, w.Reads)
		}
		if !reflect.DeepEqual(g.Writes, w.Writes) {
			t.Errorf("trial %d %s sets %d: Writes %v, want %v", trial, when, g.Sets, g.Writes, w.Writes)
		}
		if !reflect.DeepEqual(g.PerPID, w.PerPID) {
			t.Errorf("trial %d %s sets %d: PerPID %v, want %v", trial, when, g.Sets, g.PerPID, w.PerPID)
		}
	}
}
