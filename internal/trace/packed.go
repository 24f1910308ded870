package trace

// Recorded is an immutable, compactly packed recording of a finite
// event stream — the in-memory equivalent of a pixie trace tape that
// many cache configurations replay concurrently. It exists for the
// innermost loop of a sweep: a packed suite is roughly half the size of
// the equivalent []Event, so more of a multi-million-instruction
// recording stays in cache while a worker pool replays it, and a
// Cursor's batch decoding keeps the replay sequential and branch-
// predictable.
//
// The encoding is a stream of uint32 words. Instruction PCs are word
// aligned on the target (MIPS-I), so the two low bits of the leading
// word carry a tag:
//
//	00  plain instruction: PC only (no data ref, stall, or syscall)
//	01  PC + meta word (stall/syscall, but no data reference)
//	10  PC + meta word + data word (loads and stores)
//	11  escape for an unaligned PC: meta, data, then the full PC word
//
// The meta word packs Kind (bits 0-7), Size (8-15), Stall (16-23) and
// Syscall (bit 24). Every Event round-trips exactly; the tags only
// shorten the common cases (a plain instruction is 4 bytes instead of
// 12).
//
// A Recorded is append-only while packing and immutable afterwards:
// any number of Cursors may replay it concurrently.
type Recorded struct {
	words []uint32
	n     int
	// blockWord[i] is the offset in words of event i*skipIndexBlock,
	// and sysEv lists the event indices whose Syscall flag is set, in
	// ascending order. Both are maintained by Append (appending is the
	// only mutation a Recorded ever sees), and together they let
	// SkipScan jump a fast-forward span in O(log syscalls) with at
	// most skipIndexBlock words walked, instead of touching every
	// event's words.
	blockWord []int
	sysEv     []int
}

// skipIndexBlock is the event stride of the packed skip index.
const skipIndexBlock = 4096

// Event tags (low two bits of the leading word). Exported, with the
// meta-word layout below, for zero-decode scanners over RawWords with
// Decode (the scan paths of the exact, warming and screening engines in
// internal/core and internal/stackdist); everything else should consume
// events through Next/Batch.
const (
	TagMask  = 3
	TagPlain = 0 // PC word only
	TagMeta  = 1 // PC word + meta
	TagData  = 2 // PC word + meta + data
	TagRaw   = 3 // tag word + meta + data + full unaligned PC
)

// Meta word layout.
const (
	MetaKindShift  = 0
	MetaSizeShift  = 8
	MetaStallShift = 16
	MetaSyscallBit = 1 << 24
)

// Pack drains s into a new packed recording.
func Pack(s Stream) *Recorded {
	r := &Recorded{}
	var ev Event
	for s.Next(&ev) {
		r.add(&ev)
	}
	r.pad()
	return r
}

// padWords is the number of zero words kept after the last event of a
// packed recording. An event is at most four words, so with the padding
// every event start w satisfies w+4 <= len(words) and Decode can load
// all four candidate words unconditionally, with no careful tail for
// the last events.
const padWords = 3

// Append adds one event to the end of the recording.
func (r *Recorded) Append(ev *Event) {
	r.words = r.words[:r.end()]
	r.add(ev)
	r.pad()
}

// pad appends the zero padding after the last event.
func (r *Recorded) pad() { r.words = append(r.words, make([]uint32, padWords)...) }

// add encodes one event after the last one, with the padding removed.
func (r *Recorded) add(ev *Event) {
	if r.n%skipIndexBlock == 0 {
		r.blockWord = append(r.blockWord, len(r.words))
	}
	if ev.Syscall {
		r.sysEv = append(r.sysEv, r.n)
	}
	meta := uint32(ev.Kind)<<MetaKindShift |
		uint32(ev.Size)<<MetaSizeShift |
		uint32(ev.Stall)<<MetaStallShift
	if ev.Syscall {
		meta |= MetaSyscallBit
	}
	switch {
	case ev.PC&3 != 0:
		r.words = append(r.words, TagRaw, meta, ev.Data, ev.PC)
	case meta == 0 && ev.Data == 0:
		r.words = append(r.words, ev.PC|TagPlain)
	case ev.Data == 0:
		r.words = append(r.words, ev.PC|TagMeta, meta)
	default:
		r.words = append(r.words, ev.PC|TagData, meta, ev.Data)
	}
	r.n++
}

// end returns the index one past the last event's final word: the
// start of the zero padding.
func (r *Recorded) end() int { return max(0, len(r.words)-padWords) }

// Len returns the number of recorded events.
func (r *Recorded) Len() int { return r.n }

// Bytes returns the packed size of the recording's events in bytes.
func (r *Recorded) Bytes() int { return r.end() * 4 }

// Decode decodes the event whose first word is words[w]: its PC, its
// meta word (zero for a plain instruction), its data address (zero when
// the encoding omits it: a plain or meta-tagged event, including a load
// or store of address 0), and the index of the next event's first
// word. It loads all four candidate words and lets the tag select among
// them: conditional moves for the plain, meta and data tags, so a mixed
// stream of those costs the branch predictor nothing, and one branch for
// the rare raw escape (an unaligned PC). It inlines into every scanner.
// words[w:w+4] must be in range, which the padding guarantees for every
// event start of a Recorded (see Cursor.RawWords).
func Decode(words []uint32, w int) (pc, meta, data uint32, next int) {
	ws := words[w : w+4]
	w0 := ws[0]
	adv := int(w0&TagMask) + 1
	pc, meta, data = w0&^TagMask, ws[1], ws[2]
	if adv == 1 {
		meta = 0
	}
	if adv < 3 {
		data = 0
	}
	if adv == 4 {
		pc = ws[3]
	}
	return pc, meta, data, w + adv
}

// eventOf expands decoded words into an Event.
func eventOf(pc, meta, data uint32) Event {
	return Event{
		PC:      pc,
		Data:    data,
		Kind:    Kind(meta >> MetaKindShift),
		Size:    uint8(meta >> MetaSizeShift),
		Stall:   uint8(meta >> MetaStallShift),
		Syscall: meta&MetaSyscallBit != 0,
	}
}

// NewCursor returns a replay cursor positioned at the first event. Each
// cursor is independent; the recording itself is never mutated by
// replay, so cursors over one Recorded are safe to drive from
// different goroutines (one goroutine per cursor).
func (r *Recorded) NewCursor() *Cursor { return &Cursor{r: r} }

// cursorBatchMax bounds a cursor's decode-ahead buffer (events).
const cursorBatchMax = 4096

// Cursor replays a packed recording. It implements Stream for
// event-at-a-time consumption and BatchStream for bulk replay: Batch
// decodes a run of upcoming events into an internal buffer that Skip
// then consumes, so a scheduler can hand whole slices to a batching
// simulation target.
type Cursor struct {
	r   *Recorded
	w   int     // index of the next undecoded word
	wEv int     // event index of the next undecoded word
	buf []Event // decoded read-ahead
	pos int     // events of buf already consumed
}

// Next implements Stream.
func (c *Cursor) Next(ev *Event) bool {
	if c.pos < len(c.buf) {
		*ev = c.buf[c.pos]
		c.pos++
		return true
	}
	if c.w >= c.r.end() {
		return false
	}
	pc, meta, data, next := Decode(c.r.words, c.w)
	*ev = eventOf(pc, meta, data)
	c.w = next
	c.wEv++
	return true
}

// Batch implements BatchStream: it returns up to max upcoming events
// without consuming them, decoding ahead into the cursor's buffer as
// needed. The result is empty exactly when the cursor is exhausted and
// stays valid until the next Batch or Next call.
func (c *Cursor) Batch(max int) []Event {
	if c.pos < len(c.buf) {
		b := c.buf[c.pos:]
		if len(b) > max {
			b = b[:max]
		}
		return b
	}
	if max > cursorBatchMax {
		max = cursorBatchMax
	}
	if max <= 0 {
		return nil
	}
	if cap(c.buf) < max {
		c.buf = make([]Event, max)
	}
	// The replay hot path of the event interface: decode straight into
	// pre-sized buffer slots, with the word stream held in locals.
	buf := c.buf[:max]
	words, end := c.r.words, c.r.end()
	w, n := c.w, 0
	for n < len(buf) && w < end {
		pc, meta, data, next := Decode(words, w)
		buf[n] = eventOf(pc, meta, data)
		w = next
		n++
	}
	c.w = w
	c.wEv += n
	c.buf = buf[:n]
	c.pos = 0
	return c.buf
}

// Skip implements BatchStream: it consumes n events, which must not
// exceed the length of the last Batch result.
func (c *Cursor) Skip(n int) { c.pos += n }

// Pending returns the already-decoded but unconsumed events of the last
// Batch call. A zero-decode scanner must consume (and Skip) these
// before touching RawWords, or it would replay events the cursor has
// already decoded past.
func (c *Cursor) Pending() []Event { return c.buf[c.pos:] }

// RawWords exposes the packed word stream, the index of the cursor's
// next undecoded word, and the index one past the last event's final
// word, for zero-decode scanning with Decode (see the Tag* and Meta*
// constants for the layout). Every w < end is decodable without a
// bounds concern: the stream carries zero padding after end. Only
// valid when Pending is empty. The scanner must report its progress
// with RawAdvance before any other cursor call.
func (c *Cursor) RawWords() (words []uint32, w, end int) { return c.r.words, c.w, c.r.end() }

// RawAdvance commits a raw scan: the cursor's next undecoded word
// becomes w, and n events are accounted as consumed. w and n must
// describe a walk from the RawWords position over exactly n events.
func (c *Cursor) RawAdvance(w, n int) {
	c.w = w
	c.wEv += n
}
