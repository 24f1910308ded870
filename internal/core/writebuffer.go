package core

import "fmt"

// wbEntry is one pending write: addr/words describe the L2-D write, enq
// is the cycle it entered the buffer, and complete is its lazily
// computed drain-completion cycle (0 = not yet computed; a computed
// completion is always positive because service takes at least a cycle).
type wbEntry struct {
	addr     uint64
	words    int
	enq      uint64
	complete uint64
}

// serviceFunc performs the L2-D write for one buffer entry beginning at
// cycle start and returns the cycles it occupies, including any
// main-memory penalty when the write misses L2. It is called exactly
// once per entry, in FIFO order.
type serviceFunc func(addr uint64, words int, start uint64) uint64

// writeBuffer models the MMU/WB-chip write buffer: a FIFO whose head
// drains into the secondary data cache. Consecutive drains overlap up to
// `overlap` cycles of the L2 latency (the paper: "a stream of writes may
// overlap one or both cycles of latency"). Completion times are computed
// lazily so the L2 state is probed in drain order.
type writeBuffer struct {
	q        []wbEntry
	capacity int
	overlap  uint64
	last     uint64 // completion cycle of the most recently drained entry
	service  serviceFunc
}

func newWriteBuffer(capacity int, overlap uint64, service serviceFunc) *writeBuffer {
	return &writeBuffer{capacity: capacity, overlap: overlap, service: service}
}

func (wb *writeBuffer) len() int   { return len(wb.q) }
func (wb *writeBuffer) full() bool { return len(wb.q) >= wb.capacity }

// push appends an entry. The caller must have ensured a free slot;
// pushing into a full buffer returns ErrWriteBufferOverflow without
// modifying the queue.
func (wb *writeBuffer) push(addr uint64, words int, enq uint64) error {
	if wb.full() {
		return fmt.Errorf("%w: %d/%d entries at cycle %d, addr %#x",
			ErrWriteBufferOverflow, len(wb.q), wb.capacity, enq, addr)
	}
	wb.q = append(wb.q, wbEntry{addr: addr, words: words, enq: enq})
	return nil
}

// ensureComplete computes completion times for entries [0, i].
func (wb *writeBuffer) ensureComplete(i int) {
	for j := 0; j <= i; j++ {
		e := &wb.q[j]
		if e.complete != 0 {
			continue
		}
		prev := wb.last
		if j > 0 {
			prev = wb.q[j-1].complete
		}
		start := e.enq
		if prev > wb.overlap && prev-wb.overlap > start {
			start = prev - wb.overlap
		}
		e.complete = start + wb.service(e.addr, e.words, start)
	}
}

// headComplete returns the completion cycle of the oldest entry. The
// buffer must be nonempty.
func (wb *writeBuffer) headComplete() uint64 {
	wb.ensureComplete(0)
	return wb.q[0].complete
}

// emptyCompletion returns the cycle at which the buffer will be empty:
// the completion of the youngest entry, or now for an empty buffer.
func (wb *writeBuffer) emptyCompletion(now uint64) uint64 {
	if len(wb.q) == 0 {
		return now
	}
	wb.ensureComplete(len(wb.q) - 1)
	t := wb.q[len(wb.q)-1].complete
	if t < now {
		return now
	}
	return t
}

// popCompleted retires every entry whose drain has completed by now.
func (wb *writeBuffer) popCompleted(now uint64) {
	n := 0
	for n < len(wb.q) {
		e := &wb.q[n]
		if e.complete == 0 {
			// Completion unknown; compute only if the entry could
			// plausibly be done (its enqueue time has passed).
			if e.enq > now {
				break
			}
			wb.ensureComplete(n)
		}
		if e.complete > now {
			break
		}
		wb.last = e.complete
		n++
	}
	if n > 0 {
		wb.q = append(wb.q[:0], wb.q[n:]...)
	}
}

// retire is popCompleted behind an inlinable guard, for the
// per-instruction call: it retires only when the head entry's
// completion is unknown (0, which the comparison includes) or has
// passed, the only cases in which popCompleted changes anything.
func (wb *writeBuffer) retire(now uint64) {
	if len(wb.q) > 0 && wb.q[0].complete <= now {
		wb.popCompleted(now)
	}
}

// popAll retires every entry unconditionally (after a wait-for-empty or
// flush stall has elapsed).
func (wb *writeBuffer) popAll() {
	if len(wb.q) == 0 {
		return
	}
	wb.ensureComplete(len(wb.q) - 1)
	wb.last = wb.q[len(wb.q)-1].complete
	wb.q = wb.q[:0]
}

// matchCompletion scans for entries that fall within the cache line
// containing addr (granularity 1<<offBits bytes). It returns the
// completion time of the youngest matching entry — the point by which
// every matching write has reached L2 — or found=false.
func (wb *writeBuffer) matchCompletion(addr uint64, offBits uint) (completion uint64, found bool) {
	line := addr >> offBits
	match := -1
	for i := range wb.q {
		if wb.q[i].addr>>offBits == line {
			match = i
		}
	}
	if match < 0 {
		return 0, false
	}
	wb.ensureComplete(match)
	return wb.q[match].complete, true
}
