package trace

import "sync"

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
// Pack builds a Recorded, which never changes after Pack returns: any
// number of Cursors may replay it concurrently.
type Recorded struct {
	words []uint32
	n     int
	// blockWord[i] is the offset in words of event i*skipIndexBlock,
	// and sysEv lists the event indices whose Syscall flag is set, in
	// ascending order. Pack builds both, and together they let
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
//
// Making the events and encoding them run side by side, as the paper's
// tracer fed its simulator through a pipe: a producer goroutine fills
// event batches from s.Next while the calling goroutine encodes the
// batches it has been handed into fixed-size word chunks drawn from a
// pool. When s is drained the chunks are copied into one allocation of
// exactly the recording's size and go back to the pool for the next
// Pack. The result is the same, word for word, as encoding the events
// one at a time onto a growing slice.
//
// Only the producer touches s until it is drained, and Pack returns
// after the producer has finished, so StreamErr(s) after Pack sees the
// stream's final state. A panic raised by s is re-raised on the calling
// goroutine.
func Pack(s Stream) *Recorded {
	bs := new([packBuffers][packBatch]Event)
	// Each buffer of bs is always in exactly one place: free, full, or
	// the hands of one stage. Both channels hold every buffer at once,
	// so no send blocks.
	free := make(chan []Event, len(bs))
	full := make(chan []Event, len(bs))
	for i := range bs {
		free <- bs[i][:]
	}
	// Closing free ends the producer's range should encoding stop early.
	defer close(free)
	var raised any
	go func() {
		defer close(full)
		defer func() { raised = recover() }()
		for buf := range free {
			n := 0
			for n < len(buf) && s.Next(&buf[n]) {
				n++
			}
			full <- buf[:n]
			if n < len(buf) {
				return
			}
		}
	}()
	var p packer
	for evs := range full {
		p.encode(evs)
		free <- evs[:cap(evs)]
	}
	r := p.finish()
	if raised != nil {
		//lint:allow nopanic re-raises the stream's own panic on the caller's goroutine, where the caller's recover (the sweep and serving harnesses) can see it; Pack adds no panic of its own
		panic(raised)
	}
	return r
}

// padWords is the number of zero words kept after the last event of a
// packed recording. An event is at most four words, so with the padding
// every event start w satisfies w+4 <= len(words) and Decode can load
// all four candidate words unconditionally, with no careful tail for
// the last events.
const padWords = 3

// Pipeline sizing for Pack: the producer runs at most packBuffers
// batches of packBatch events ahead of the encoder, and the encoder
// writes chunks of packChunkWords words (1 MB).
const (
	packBatch      = 4096
	packBuffers    = 4
	packChunkWords = 1 << 18
)

// chunkPool lets consecutive Packs (a workload records one member after
// another) reuse word chunks instead of allocating them per recording.
var chunkPool = sync.Pool{New: func() any { c := make([]uint32, packChunkWords); return &c }}

// packer is Pack's encoding stage: it packs events into a list of word
// chunks, none of which an event straddles, so a chunk may end with up
// to three unused words.
type packer struct {
	chunks    [][]uint32 // filled chunks, each cut to its used words
	cur       []uint32   // chunk being filled; nil before the first event
	w         int        // used words of cur
	base      int        // recording offset of cur[0]
	n         int
	blockWord []int
	sysEv     []int
}

// encode appends evs to the recording.
func (p *packer) encode(evs []Event) {
	c, w, n := p.cur, p.w, p.n
	for i := range evs {
		ev := &evs[i]
		if w+4 > len(c) {
			p.seal(c, w)
			c, w = *chunkPool.Get().(*[]uint32), 0
		}
		if n%skipIndexBlock == 0 {
			p.blockWord = append(p.blockWord, p.base+w)
		}
		meta := uint32(ev.Kind)<<MetaKindShift |
			uint32(ev.Size)<<MetaSizeShift |
			uint32(ev.Stall)<<MetaStallShift
		if ev.Syscall {
			meta |= MetaSyscallBit
			p.sysEv = append(p.sysEv, n)
		}
		ws := c[w : w+4]
		switch {
		case ev.PC&3 != 0:
			ws[0], ws[1], ws[2], ws[3] = TagRaw, meta, ev.Data, ev.PC
			w += 4
		case meta == 0 && ev.Data == 0:
			ws[0] = ev.PC | TagPlain
			w++
		case ev.Data == 0:
			ws[0], ws[1] = ev.PC|TagMeta, meta
			w += 2
		default:
			ws[0], ws[1], ws[2] = ev.PC|TagData, meta, ev.Data
			w += 3
		}
		n++
	}
	p.cur, p.w, p.n = c, w, n
}

// seal files chunk c, of which w words are used, behind the earlier ones.
func (p *packer) seal(c []uint32, w int) {
	if c != nil {
		p.chunks = append(p.chunks, c[:w])
		p.base += w
	}
}

// finish copies the chunks into the recording's one allocation, with
// the zero padding after the last event, and returns them to the pool.
func (p *packer) finish() *Recorded {
	p.seal(p.cur, p.w)
	words := make([]uint32, p.base+padWords)
	off := 0
	for _, c := range p.chunks {
		off += copy(words[off:], c)
		c = c[:cap(c)]
		chunkPool.Put(&c)
	}
	return &Recorded{words: words, n: p.n, blockWord: p.blockWord, sysEv: p.sysEv}
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
