package trace

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// serialPack is the reference encoder Pack must match word for word:
// one goroutine appending each event in turn to one growing slice.
func serialPack(s Stream) *Recorded {
	r := &Recorded{}
	var ev Event
	for s.Next(&ev) {
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
	r.words = append(r.words, make([]uint32, padWords)...)
	return r
}

// requireSerial fails unless Pack over evs gives the reference
// encoder's words, length, skip index and syscall list.
func requireSerial(t *testing.T, evs []Event) {
	t.Helper()
	got, want := Pack(NewMemTrace(evs)), serialPack(NewMemTrace(evs))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%d events: Pack = {n %d, %d words, %d blocks, %d syscalls}, serial = {n %d, %d words, %d blocks, %d syscalls}",
			len(evs), got.n, len(got.words), len(got.blockWord), len(got.sysEv),
			want.n, len(want.words), len(want.blockWord), len(want.sysEv))
	}
}

// randomEvents draws n events spread over all four encodings (plain,
// meta, data and the raw escape), with syscalls among them.
func randomEvents(rng *rand.Rand, n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		ev := Event{PC: rng.Uint32() &^ 3}
		switch rng.Intn(8) {
		case 0, 1: // plain
		case 2:
			ev.Stall = uint8(1 + rng.Intn(3))
		case 3:
			ev.Syscall = true
		case 4, 5:
			ev.Kind, ev.Size, ev.Data = Load, 4, rng.Uint32()
		case 6:
			ev.Kind, ev.Size, ev.Data, ev.Syscall = Store, uint8(1<<rng.Intn(4)), rng.Uint32(), rng.Intn(4) == 0
		case 7:
			ev.PC |= 1 + uint32(rng.Intn(3))
			ev.Kind, ev.Size, ev.Data = Load, 2, rng.Uint32()
		}
		evs[i] = ev
	}
	return evs
}

func TestPackMatchesSerialEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(17)) //lint:allow determinism fixed-seed test input generation
	for _, n := range []int{
		0, 1, 2,
		skipIndexBlock - 1, skipIndexBlock, skipIndexBlock + 1,
		packBatch*packBuffers - 1, packBatch * packBuffers, packBatch*packBuffers + 1,
		300_000, // about 700k words: three chunks
	} {
		requireSerial(t, randomEvents(rng, n))
	}
}

// TestPackChunkEdges lands events on the last words of a chunk: plain
// one-word events fill a chunk exactly or leave it short by one, and a
// four-word raw escape starts at each of the chunk's last five words,
// so it either fits or moves whole to the next chunk.
func TestPackChunkEdges(t *testing.T) {
	for _, n := range []int{packChunkWords - 1, packChunkWords, packChunkWords + 1} {
		requireSerial(t, plainEvents(n))
	}
	for lead := packChunkWords - 5; lead < packChunkWords; lead++ {
		evs := plainEvents(lead)
		evs = append(evs, Event{PC: 0x1001, Kind: Store, Size: 1, Data: 0x2000, Syscall: true}, Event{PC: 0x2000})
		requireSerial(t, evs)
	}
}

// TestPackConcurrent packs from several goroutines at once, so the
// pools are shared between pipelines (run it under -race).
func TestPackConcurrent(t *testing.T) {
	const packers = 4
	inputs := make([][]Event, packers)
	for i := range inputs {
		rng := rand.New(rand.NewSource(int64(100 + i))) //lint:allow determinism fixed-seed test input generation
		inputs[i] = randomEvents(rng, 50_000+i*packChunkWords/2)
	}
	got := make([]*Recorded, packers)
	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = Pack(NewMemTrace(inputs[i]))
		}(i)
	}
	wg.Wait()
	for i, evs := range inputs {
		if want := serialPack(NewMemTrace(evs)); !reflect.DeepEqual(got[i], want) {
			t.Errorf("packer %d: recording differs from the serial encoder's", i)
		}
	}
}

var errBroken = errors.New("broken pipe")

// failingStream yields evs, then fails.
type failingStream struct {
	evs []Event
	err error
}

func (f *failingStream) Next(ev *Event) bool {
	if len(f.evs) == 0 {
		f.err = errBroken
		return false
	}
	*ev, f.evs = f.evs[0], f.evs[1:]
	return true
}

func (f *failingStream) Err() error { return f.err }

func TestPackStreamErrorKeepsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(5)) //lint:allow determinism fixed-seed test input generation
	prefix := randomEvents(rng, packBatch+7)
	s := &failingStream{evs: prefix}
	got := Pack(s)
	if err := StreamErr(s); !errors.Is(err, errBroken) {
		t.Fatalf("StreamErr after Pack = %v, want %v", err, errBroken)
	}
	if want := serialPack(NewMemTrace(prefix)); !reflect.DeepEqual(got, want) {
		t.Fatalf("recording of a failed stream (%d events) differs from its prefix's (%d events)", got.Len(), want.Len())
	}
}

// panickingStream yields n plain events, then panics.
type panickingStream struct{ n int }

func (p *panickingStream) Next(ev *Event) bool {
	if p.n == 0 {
		panic(errBroken)
	}
	p.n--
	*ev = Event{PC: 0x400000}
	return true
}

func TestPackPanicReachesCaller(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, n := range []int{0, 1, packBatch*packBuffers*2 + 5, packChunkWords + 3} {
		if got := packRecovering(&panickingStream{n: n}); got != errBroken {
			t.Errorf("after %d events: recovered %v, want the stream's own panic %v", n, got, errBroken)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// packRecovering packs s and returns the value Pack panicked with.
func packRecovering(s Stream) (raised any) {
	defer func() { raised = recover() }()
	r := Pack(s)
	return fmt.Sprintf("Pack returned %d events without panicking", r.Len())
}
