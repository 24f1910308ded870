package workload

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/progs"
	"repro/internal/trace"
)

// TestRecordConcurrent hammers Record from many goroutines; under
// -race this verifies the once-per-scale memoization (the map access
// and the single recording pass), and in any mode it verifies all
// callers of a scale share one recording. One scale keeps the test
// cheap: recording happens at most once per test binary.
func TestRecordConcurrent(t *testing.T) {
	const callers = 8
	var wg sync.WaitGroup
	got := make([][]Recorded, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = Record(1)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if len(got[i]) != len(got[0]) {
			t.Fatalf("caller %d saw %d members, caller 0 saw %d", i, len(got[i]), len(got[0]))
		}
		for k := range got[i] {
			if got[i][k].Trace != got[0][k].Trace {
				t.Errorf("caller %d member %d: trace not shared with caller 0", i, k)
			}
		}
	}
	// Concurrent replay of a shared recording must not interact.
	rec := got[0]
	var rg sync.WaitGroup
	counts := make([]int, 4)
	for i := range counts {
		rg.Add(1)
		go func(i int) {
			defer rg.Done()
			c := rec[0].Trace.NewCursor()
			b := c.Batch(1 << 20)
			for len(b) > 0 {
				counts[i] += len(b)
				c.Skip(len(b))
				b = c.Batch(1 << 20)
			}
		}(i)
	}
	rg.Wait()
	for i, n := range counts {
		if n != rec[0].Trace.Len() {
			t.Errorf("replayer %d saw %d events, want %d", i, n, rec[0].Trace.Len())
		}
	}
}

// TestRecordFailureReachesEveryCaller records a suite whose second
// member stops partway: an emulated benchmark that hits its step limit.
// The memo entry keeps the failure, so every call panics with an error
// naming the member and wrapping the stream's error, instead of the
// first caller getting a truncated recording and later callers nil.
func TestRecordFailureReachesEveryCaller(t *testing.T) {
	bench := progs.All()[0]
	members := func() []Member {
		return []Member{
			{Name: "whole", NewStream: func(int) trace.Stream {
				return trace.NewMemTrace(make([]trace.Event, 10))
			}},
			{Name: "cut-short", NewStream: func(scale int) trace.Stream {
				cpu := bench.NewCPU(scale)
				cpu.MaxSteps = 5_000
				return cpu
			}},
		}
	}
	var e recordEntry
	for call := 0; call < 2; call++ {
		err := getFailure(&e, members)
		if err == nil || !strings.Contains(err.Error(), "recording cut-short") || !strings.Contains(err.Error(), "step limit") {
			t.Fatalf("call %d: failure %v, want one naming member cut-short and its step limit", call, err)
		}
	}
}

// TestRecordPanicReachesEveryCaller: a member whose stream panics fails
// the recording the same way, for every caller.
func TestRecordPanicReachesEveryCaller(t *testing.T) {
	members := func() []Member {
		return []Member{{Name: "panicky", NewStream: func(int) trace.Stream { return panicStream{} }}}
	}
	var e recordEntry
	for call := 0; call < 2; call++ {
		err := getFailure(&e, members)
		if err == nil || !strings.Contains(err.Error(), "recording panicky: panic: tape snapped") {
			t.Fatalf("call %d: failure %v, want one naming member panicky and its panic", call, err)
		}
	}
}

type panicStream struct{}

func (panicStream) Next(*trace.Event) bool { panic("tape snapped") }

// getFailure calls e.get and returns the error it panicked with.
func getFailure(e *recordEntry, members func() []Member) (err error) {
	defer func() {
		r := recover()
		err, _ = r.(error)
		if r != nil && err == nil {
			err = fmt.Errorf("panicked with a non-error: %v", r)
		}
	}()
	e.get(members, 1)
	return nil
}
