package trace

// SkipScan discards up to max upcoming events without materializing
// them, while still honoring the one boundary a scheduler cares about:
// it stops early, after consuming the syscall event itself, when an
// event carries the syscall flag, so a fast-forwarding scheduler keeps
// the exact context-switch points of a full replay. It returns the
// number of events consumed and whether the last one was a syscall;
// n == 0 with max > 0 means the cursor is exhausted. Events buffered
// but not yet consumed by a prior Batch are consumed first.
//
// The recording's skip index makes it cheap: the syscall event list
// bounds how far the scan may run, whole skipIndexBlock strides are
// jumped via the per-block word offsets, and only the sub-block residue
// is walked word by word (tag-length arithmetic, no decode).
// Fast-forwarding a span therefore costs O(log syscalls) plus at most
// one block of word hops, which is what makes the skip phase of sampled
// simulation nearly free.
func (c *Cursor) SkipScan(max int) (int, bool) {
	n := 0
	for c.pos < len(c.buf) && n < max {
		sys := c.buf[c.pos].Syscall
		c.pos++
		n++
		if sys {
			return n, true
		}
	}
	if n >= max || c.wEv >= c.r.n {
		return n, false
	}
	// Resolve where this scan must stop: after the remaining budget,
	// at stream end, or just past the next syscall, whichever is first.
	target := c.wEv + (max - n)
	if target > c.r.n {
		target = c.r.n
	}
	syscall := false
	if s := c.r.nextSyscall(c.wEv); s >= 0 && s < target {
		target = s + 1 // consume the syscall event itself
		syscall = true
	}
	// Jump whole indexed blocks, then walk the residue by tag length.
	// Everything from the pre-jump position through target is consumed,
	// so count n from the position before the jump.
	n += target - c.wEv
	if jb := target / skipIndexBlock; jb*skipIndexBlock > c.wEv && jb < len(c.r.blockWord) {
		c.w = c.r.blockWord[jb]
		c.wEv = jb * skipIndexBlock
	}
	words := c.r.words
	w := c.w
	for e := c.wEv; e < target; e++ {
		w += int(words[w]&3) + 1 // tag encodes length-1
	}
	c.w, c.wEv = w, target
	return n, syscall
}

// nextSyscall returns the first syscall event index at or after from,
// or -1 if there is none.
func (r *Recorded) nextSyscall(from int) int {
	s := r.sysEv
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(s) {
		return -1
	}
	return s[lo]
}
