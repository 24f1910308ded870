package trace

import (
	"math/rand"
	"testing"
)

// randomEvent draws one event from a mix that covers all four tags:
// plain instructions, meta-only events (stalls, syscalls, and loads and
// stores of address 0, whose data word the encoder drops), data
// references, and unaligned PCs (the raw escape).
func randomEvent(rng *rand.Rand) Event {
	ev := Event{PC: rng.Uint32() &^ 3}
	switch rng.Intn(6) {
	case 0:
		// Plain.
	case 1:
		ev.Stall = uint8(rng.Intn(256))
		ev.Syscall = rng.Intn(2) == 0
	case 2, 3:
		ev.Kind = Kind(1 + rng.Intn(2))
		ev.Size = uint8(1 << rng.Intn(4))
		if rng.Intn(3) > 0 {
			ev.Data = rng.Uint32()
		}
		ev.Stall = uint8(rng.Intn(4))
		ev.Syscall = rng.Intn(8) == 0
	case 4:
		ev.PC |= 1 + uint32(rng.Intn(3))
		ev.Kind = Kind(rng.Intn(3))
		ev.Data = rng.Uint32() * uint32(rng.Intn(2))
		ev.Syscall = rng.Intn(2) == 0
	default:
		ev.Kind, ev.Size = Load, 4 // a zero-data load
	}
	return ev
}

// TestDecodeMatchesNext walks random recordings with Decode and checks
// every event against Next on a cursor and against the source event.
// Short recordings put every tag among the last four words, where
// Decode reads into the padding; the walk must end exactly at
// RawWords' end, after which Next reports exhaustion.
func TestDecodeMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		evs := make([]Event, rng.Intn(12))
		if trial%10 == 0 {
			evs = make([]Event, 500+rng.Intn(500))
		}
		for i := range evs {
			evs[i] = randomEvent(rng)
		}
		r := Pack(NewMemTrace(evs))
		c := r.NewCursor()
		words, w, end := c.RawWords()
		if w != 0 || end != r.Bytes()/4 {
			t.Fatalf("trial %d: RawWords start %d, end %d, want 0, %d", trial, w, end, r.Bytes()/4)
		}
		if len(evs) > 0 && (len(words) != end+padWords || words[end] != 0 || words[end+1] != 0 || words[end+2] != 0) {
			t.Fatalf("trial %d: %d words after the %d event words, want %d zero words",
				trial, len(words)-end, end, padWords)
		}
		var next Event
		for i, want := range evs {
			if w >= end {
				t.Fatalf("trial %d: words exhausted at event %d of %d", trial, i, len(evs))
			}
			pc, meta, data, nw := Decode(words, w)
			got := eventOf(pc, meta, data)
			if !c.Next(&next) {
				t.Fatalf("trial %d: Next exhausted at event %d of %d", trial, i, len(evs))
			}
			if got != want || got != next {
				t.Fatalf("trial %d event %d: Decode %+v, Next %+v, recorded %+v", trial, i, got, next, want)
			}
			if nw-w != int(words[w]&TagMask)+1 {
				t.Fatalf("trial %d event %d: advanced %d words for tag %d", trial, i, nw-w, words[w]&TagMask)
			}
			w = nw
		}
		if w != end {
			t.Fatalf("trial %d: walk ended at word %d, events end at %d", trial, w, end)
		}
		if c.Next(&next) {
			t.Fatalf("trial %d: Next produced %+v past the last event", trial, next)
		}
	}
}

// TestRawAdvanceResumesCursor checks a raw walk committed with
// RawAdvance leaves the cursor exactly where Next would have, so event
// consumers and scanners can alternate.
func TestRawAdvanceResumesCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	evs := make([]Event, 300)
	for i := range evs {
		evs[i] = randomEvent(rng)
	}
	c := Pack(NewMemTrace(evs)).NewCursor()
	var ev Event
	for i := 0; i < len(evs); {
		if k := rng.Intn(5); rng.Intn(2) == 0 {
			words, w, end := c.RawWords()
			n := 0
			for ; n < k && w < end; n++ {
				_, _, _, w = Decode(words, w)
			}
			c.RawAdvance(w, n)
			i += n
			continue
		}
		if !c.Next(&ev) {
			t.Fatalf("Next exhausted at event %d", i)
		}
		if ev != evs[i] {
			t.Fatalf("event %d after raw walks: got %+v, want %+v", i, ev, evs[i])
		}
		i++
	}
	if c.Next(&ev) {
		t.Fatalf("Next produced %+v past the last event", ev)
	}
}

// BenchmarkCursorBatch measures the event interface's decode: Batch
// and Skip over a packed 1M-event recording in cursorBatchMax-event
// batches, the way a scheduler feeds a StepBatch target. ns/event is
// the per-event cost.
func BenchmarkCursorBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var r Recorded
	for i := 0; i < 1_000_000; i++ {
		ev := Event{PC: 0x400000 + 4*uint32(i%50_000)}
		switch rng.Intn(10) {
		case 0, 1, 2:
			ev.Kind, ev.Size, ev.Data = Load, 4, 0x1000000+rng.Uint32()%(1<<20)&^3
		case 3:
			ev.Kind, ev.Size, ev.Data = Store, 4, 0x1000000+rng.Uint32()%(1<<20)&^3
		case 4:
			ev.Stall = 2
		}
		r.Append(&ev)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := r.NewCursor()
		for evs := c.Batch(cursorBatchMax); len(evs) > 0; evs = c.Batch(cursorBatchMax) {
			c.Skip(len(evs))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r.Len()), "ns/event")
}
