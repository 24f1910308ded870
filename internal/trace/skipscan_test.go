package trace

import (
	"math/rand"
	"testing"
)

// skipScanRef is the semantics SkipScan must match: consume up to max
// events via Next, stopping after a syscall event.
func skipScanRef(s Stream, max int) (int, bool) {
	var ev Event
	n := 0
	for n < max && s.Next(&ev) {
		n++
		if ev.Syscall {
			return n, true
		}
	}
	return n, false
}

func skipScanEvents(t *testing.T) []Event {
	t.Helper()
	rng := rand.New(rand.NewSource(7)) //lint:allow determinism fixed-seed test input generation
	evs := make([]Event, 4000)
	for i := range evs {
		ev := Event{PC: rng.Uint32() &^ 3}
		switch rng.Intn(5) {
		case 0: // plain
		case 1: // meta
			ev.Stall = uint8(1 + rng.Intn(10))
		case 2: // data
			ev.Kind, ev.Size, ev.Data = Load, 4, rng.Uint32()
		case 3: // raw escape (unaligned PC)
			ev.PC |= uint32(1 + rng.Intn(3))
			ev.Kind, ev.Size, ev.Data = Store, 2, rng.Uint32()
		case 4:
			ev.Syscall = true
		}
		evs[i] = ev
	}
	return evs
}

// TestSkipScanMatchesNext drives a packed cursor and a reference stream
// in lockstep with identical random chunk sizes: every SkipScan result
// (count and syscall stop) must match a Next-based consume, across all
// four encoding tags and syscall boundaries.
func TestSkipScanMatchesNext(t *testing.T) {
	evs := skipScanEvents(t)
	r := Pack(NewMemTrace(evs))
	c := r.NewCursor()
	ref := NewMemTrace(evs)
	rng := rand.New(rand.NewSource(8)) //lint:allow determinism fixed-seed test input generation
	for {
		max := rng.Intn(300)
		gotN, gotSys := c.SkipScan(max)
		wantN, wantSys := skipScanRef(ref, max)
		if gotN != wantN || gotSys != wantSys {
			t.Fatalf("SkipScan(%d) = (%d, %v), want (%d, %v)", max, gotN, gotSys, wantN, wantSys)
		}
		if max > 0 && gotN == 0 {
			break // exhausted
		}
	}
	var ev Event
	if c.Next(&ev) {
		t.Fatalf("cursor not exhausted after SkipScan drain")
	}
}

// TestSkipScanAfterBatch checks that SkipScan first consumes events a
// prior Batch decoded but Skip did not consume, and that the resume
// point after a mixed Batch/Skip/SkipScan sequence is exact.
func TestSkipScanAfterBatch(t *testing.T) {
	evs := skipScanEvents(t)
	r := Pack(NewMemTrace(evs))
	c := r.NewCursor()
	ref := NewMemTrace(evs)
	rng := rand.New(rand.NewSource(9)) //lint:allow determinism fixed-seed test input generation
	consumed := 0
	for consumed < len(evs) {
		if rng.Intn(2) == 0 {
			// Batch-peek a run, consume only part of it.
			b := c.Batch(1 + rng.Intn(100))
			if len(b) == 0 {
				break
			}
			n := 1 + rng.Intn(len(b))
			c.Skip(n)
			ref.Skip(n)
			consumed += n
			continue
		}
		max := 1 + rng.Intn(100)
		gotN, gotSys := c.SkipScan(max)
		wantN, wantSys := skipScanRef(ref, max)
		if gotN != wantN || gotSys != wantSys {
			t.Fatalf("after %d consumed: SkipScan(%d) = (%d, %v), want (%d, %v)",
				consumed, max, gotN, gotSys, wantN, wantSys)
		}
		consumed += gotN
	}
	// Whatever remains must decode identically from both streams.
	var got, want Event
	for ref.Next(&want) {
		if !c.Next(&got) {
			t.Fatalf("cursor exhausted early")
		}
		if got != want {
			t.Fatalf("resume mismatch: got %+v, want %+v", got, want)
		}
	}
	if c.Next(&got) {
		t.Fatalf("cursor has extra events")
	}
}

// TestSkipScanSyscallStops pins the boundary semantics: the syscall
// event itself is consumed, the event after it is not.
func TestSkipScanSyscallStops(t *testing.T) {
	evs := []Event{
		{PC: 0x1000},
		{PC: 0x1004, Syscall: true},
		{PC: 0x1008},
		{PC: 0x100c, Syscall: true},
		{PC: 0x1010},
	}
	s := Pack(NewMemTrace(evs)).NewCursor()
	n, sys := s.SkipScan(100)
	if n != 2 || !sys {
		t.Fatalf("first SkipScan = (%d, %v), want (2, true)", n, sys)
	}
	n, sys = s.SkipScan(100)
	if n != 2 || !sys {
		t.Fatalf("second SkipScan = (%d, %v), want (2, true)", n, sys)
	}
	n, sys = s.SkipScan(100)
	if n != 1 || sys {
		t.Fatalf("third SkipScan = (%d, %v), want (1, false)", n, sys)
	}
	n, sys = s.SkipScan(100)
	if n != 0 || sys {
		t.Fatalf("exhausted SkipScan = (%d, %v), want (0, false)", n, sys)
	}
}

// TestSkipScanBlockJumpCounts is a regression test for the index-jump
// counting bug: when a scan's target lies whole skipIndexBlock strides
// ahead, the cursor jumps via the per-block word offsets, and the event
// count must be taken from the position *before* the jump. The traces
// in the other tests are shorter than one index block (4096 events), so
// only long syscall-free stretches exercise the jump at all.
func TestSkipScanBlockJumpCounts(t *testing.T) {
	const total = 50_000
	evs := make([]Event, total)
	for i := range evs {
		ev := Event{PC: uint32(0x1000 + 4*(i%997))}
		switch i % 3 {
		case 1:
			ev.Stall = 2
		case 2:
			ev.Kind, ev.Size, ev.Data = Load, 4, uint32(0x200000+8*(i%511))
		}
		// Sparse syscalls: several whole index blocks between stops.
		if i%15_000 == 14_999 {
			ev.Syscall = true
		}
		evs[i] = ev
	}
	r := Pack(NewMemTrace(evs))

	// One giant scan per syscall stretch: each spans 3+ index blocks.
	c := r.NewCursor()
	ref := NewMemTrace(evs)
	for {
		gotN, gotSys := c.SkipScan(total)
		wantN, wantSys := skipScanRef(ref, total)
		if gotN != wantN || gotSys != wantSys {
			t.Fatalf("SkipScan(%d) = (%d, %v), want (%d, %v)", total, gotN, gotSys, wantN, wantSys)
		}
		if gotN == 0 {
			break
		}
	}

	// Chunked scans that start mid-block and end mid-block, with the
	// jump in between; the resume point must stay exact throughout.
	c = r.NewCursor()
	ref = NewMemTrace(evs)
	for chunk := 1; ; chunk++ {
		max := 3_000 + 2_048*(chunk%3) // straddles block boundaries unevenly
		gotN, gotSys := c.SkipScan(max)
		wantN, wantSys := skipScanRef(ref, max)
		if gotN != wantN || gotSys != wantSys {
			t.Fatalf("chunk %d: SkipScan(%d) = (%d, %v), want (%d, %v)",
				chunk, max, gotN, gotSys, wantN, wantSys)
		}
		if gotN == 0 {
			break
		}
	}
	var ev Event
	if c.Next(&ev) {
		t.Fatalf("cursor not exhausted after chunked drain")
	}
}

func TestSkipScanZeroMax(t *testing.T) {
	c := Pack(NewMemTrace([]Event{{PC: 4}})).NewCursor()
	if n, sys := c.SkipScan(0); n != 0 || sys {
		t.Fatalf("SkipScan(0) = (%d, %v), want (0, false)", n, sys)
	}
	if n, sys := c.SkipScan(-1); n != 0 || sys {
		t.Fatalf("SkipScan(-1) = (%d, %v), want (0, false)", n, sys)
	}
	var ev Event
	if !c.Next(&ev) || ev.PC != 4 {
		t.Fatalf("SkipScan(<=0) consumed events")
	}
}
