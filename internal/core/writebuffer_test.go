package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// constService returns a service function charging a fixed time and
// recording drain order.
func constService(cycles uint64, order *[]uint64) serviceFunc {
	return func(addr uint64, words int, start uint64) uint64 {
		if order != nil {
			*order = append(*order, addr)
		}
		return cycles
	}
}

func TestWBSingleEntryTiming(t *testing.T) {
	wb := newWriteBuffer(4, 2, constService(6, nil))
	wb.push(0x100, 1, 10)
	if got := wb.emptyCompletion(10); got != 16 {
		t.Fatalf("emptyCompletion = %d, want 16", got)
	}
}

func TestWBStreamOverlapsLatency(t *testing.T) {
	// Three back-to-back writes with a 6-cycle access and 2-cycle
	// overlap: completions at 6, 10, 14 — the stream rate is 4
	// cycles/entry after the first.
	wb := newWriteBuffer(4, 2, constService(6, nil))
	wb.push(0, 1, 0)
	wb.push(4, 1, 0)
	wb.push(8, 1, 0)
	wb.ensureComplete(2)
	want := []uint64{6, 10, 14}
	for i, w := range want {
		if wb.q[i].complete != w {
			t.Errorf("entry %d completes at %d, want %d", i, wb.q[i].complete, w)
		}
	}
}

func TestWBIdleEntryStartsAtEnqueue(t *testing.T) {
	wb := newWriteBuffer(4, 2, constService(6, nil))
	wb.push(0, 1, 0)
	wb.push(4, 1, 100) // long gap: no overlap benefit
	wb.ensureComplete(1)
	if wb.q[1].complete != 106 {
		t.Fatalf("idle entry completes at %d, want 106", wb.q[1].complete)
	}
}

func TestWBPopCompleted(t *testing.T) {
	wb := newWriteBuffer(4, 2, constService(6, nil))
	wb.push(0, 1, 0)
	wb.push(4, 1, 0)
	wb.popCompleted(6)
	if wb.len() != 1 {
		t.Fatalf("len after pop = %d, want 1", wb.len())
	}
	wb.popCompleted(9)
	if wb.len() != 1 {
		t.Fatalf("len = %d, want 1 (second entry completes at 10)", wb.len())
	}
	wb.popCompleted(10)
	if wb.len() != 0 {
		t.Fatalf("len = %d, want 0", wb.len())
	}
}

func TestWBPopCompletedSkipsFutureEnqueues(t *testing.T) {
	calls := 0
	wb := newWriteBuffer(4, 2, func(addr uint64, words int, start uint64) uint64 {
		calls++
		return 6
	})
	wb.push(0, 1, 50)
	wb.popCompleted(10) // entry not even enqueued yet at cycle 10
	if calls != 0 {
		t.Fatal("service called for a future entry")
	}
	if wb.len() != 1 {
		t.Fatal("future entry popped")
	}
}

func TestWBLastCompleteCarriesAcrossPops(t *testing.T) {
	// After draining a stream, a new entry enqueued before the previous
	// completion must still queue behind it.
	wb := newWriteBuffer(4, 2, constService(6, nil))
	wb.push(0, 1, 0) // completes at 6
	wb.ensureComplete(0)
	wb.popCompleted(6)
	wb.push(4, 1, 3) // enqueued while the first was still draining
	wb.ensureComplete(0)
	// start = max(3, 6-2) = 4, completes at 10.
	if wb.q[0].complete != 10 {
		t.Fatalf("completion = %d, want 10", wb.q[0].complete)
	}
}

func TestWBServiceCalledOncePerEntryInOrder(t *testing.T) {
	var order []uint64
	wb := newWriteBuffer(8, 2, constService(6, &order))
	for i := uint64(0); i < 4; i++ {
		wb.push(i*4, 1, 0)
	}
	wb.emptyCompletion(0)
	wb.emptyCompletion(0) // second call must not re-service
	if len(order) != 4 {
		t.Fatalf("service called %d times, want 4", len(order))
	}
	for i, a := range order {
		if a != uint64(i*4) {
			t.Fatalf("drain order %v not FIFO", order)
		}
	}
}

func TestWBEmptyCompletionOnEmptyBuffer(t *testing.T) {
	wb := newWriteBuffer(4, 2, constService(6, nil))
	if got := wb.emptyCompletion(42); got != 42 {
		t.Fatalf("emptyCompletion on empty = %d, want now (42)", got)
	}
}

func TestWBFullAndOverflowError(t *testing.T) {
	wb := newWriteBuffer(2, 2, constService(6, nil))
	if err := wb.push(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if wb.full() {
		t.Fatal("buffer full after one of two entries")
	}
	if err := wb.push(4, 1, 0); err != nil {
		t.Fatal(err)
	}
	if !wb.full() {
		t.Fatal("buffer not full at capacity")
	}
	if err := wb.push(8, 1, 0); !errors.Is(err, ErrWriteBufferOverflow) {
		t.Fatalf("push past capacity = %v, want ErrWriteBufferOverflow", err)
	}
	if wb.len() != 2 {
		t.Fatalf("failed push mutated the queue: %d entries", wb.len())
	}
}

// TestWBOverflowRegression overflows a 1-entry buffer end to end: the
// second push must surface ErrWriteBufferOverflow, not panic and not
// silently drop the write.
func TestWBOverflowRegression(t *testing.T) {
	wb := newWriteBuffer(1, 0, constService(1_000, nil))
	if err := wb.push(0x100, 1, 1); err != nil {
		t.Fatal(err)
	}
	err := wb.push(0x200, 1, 2)
	if !errors.Is(err, ErrWriteBufferOverflow) {
		t.Fatalf("overflowing a 1-entry buffer = %v, want ErrWriteBufferOverflow", err)
	}
	if wb.len() != 1 {
		t.Fatalf("queue length %d after rejected push, want 1", wb.len())
	}
}

func TestWBMatchCompletion(t *testing.T) {
	wb := newWriteBuffer(8, 2, constService(6, nil))
	// 16-byte lines (offBits 4). Two writes to line 0, one to line 1.
	wb.push(0x00, 1, 0)
	wb.push(0x14, 1, 0)
	wb.push(0x08, 1, 0) // youngest write to line 0; completes at 14
	if _, ok := wb.matchCompletion(0x30, 4); ok {
		t.Fatal("matched a line with no pending writes")
	}
	got, ok := wb.matchCompletion(0x0c, 4)
	if !ok {
		t.Fatal("no match for line 0")
	}
	if got != 14 {
		t.Fatalf("match completion = %d, want 14 (the youngest matching write)", got)
	}
}

func TestWBPopAll(t *testing.T) {
	wb := newWriteBuffer(8, 2, constService(6, nil))
	wb.push(0, 1, 0)
	wb.push(4, 1, 0)
	wb.popAll()
	if wb.len() != 0 {
		t.Fatal("popAll left entries")
	}
	if wb.last != 10 {
		t.Fatalf("last completion = %d, want 10", wb.last)
	}
}

func TestWBServiceTimeVariation(t *testing.T) {
	// An entry whose L2 write misses takes much longer; the next entry
	// queues behind it.
	times := []uint64{6, 149, 6}
	i := 0
	wb := newWriteBuffer(8, 2, func(addr uint64, words int, start uint64) uint64 {
		c := times[i]
		i++
		return c
	})
	wb.push(0, 1, 0)
	wb.push(4, 1, 0)
	wb.push(8, 1, 0)
	wb.ensureComplete(2)
	// e0: 0+6=6. e1: start max(0,6-2)=4, +149 = 153. e2: start 151, +6 = 157.
	want := []uint64{6, 153, 157}
	for j, w := range want {
		if wb.q[j].complete != w {
			t.Errorf("entry %d completes at %d, want %d", j, wb.q[j].complete, w)
		}
	}
}

// TestWBRetireMatchesPopCompleted drives two buffers through the same
// random pushes, peeks and clock ticks, one retiring through the
// per-instruction guard and one calling popCompleted unguarded, and
// requires identical queues, drain times and L2 service calls (order
// and start cycles) after every step.
func TestWBRetireMatchesPopCompleted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type call struct{ addr, start uint64 }
	var guarded, plain []call
	service := func(log *[]call) serviceFunc {
		return func(addr uint64, words int, start uint64) uint64 {
			*log = append(*log, call{addr, start})
			return 2 + addr%7
		}
	}
	a := newWriteBuffer(4, 2, service(&guarded))
	b := newWriteBuffer(4, 2, service(&plain))
	now := uint64(0)
	for i := 0; i < 20000; i++ {
		now += uint64(rng.Intn(4))
		switch r := rng.Intn(8); {
		case r < 3 && !a.full():
			addr := uint64(rng.Intn(64))
			a.push(addr, 1, now)
			b.push(addr, 1, now)
		case r == 3 && a.len() > 0:
			// Compute some completions ahead of time, as a full-buffer
			// stall or a loads-pass-stores match does.
			a.headComplete()
			b.headComplete()
		}
		a.retire(now)
		b.popCompleted(now)
		if !slices.Equal(a.q, b.q) || a.last != b.last || !slices.Equal(guarded, plain) {
			t.Fatalf("step %d, cycle %d: retire diverged from popCompleted:\nretire: %+v last %d\npop:    %+v last %d",
				i, now, a.q, a.last, b.q, b.last)
		}
	}
}
