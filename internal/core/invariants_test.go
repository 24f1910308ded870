package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/trace"
)

// randomWorkload steps n pseudo-random events through the system.
func randomWorkload(s *System, n int) {
	x := uint32(98765)
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		ev := trace.Event{
			PC:    (x % 0x8000) &^ 3,
			Kind:  trace.Kind(x % 3),
			Data:  ((x >> 3) % 0x40000) &^ 3,
			Size:  4,
			Stall: uint8(x % 4),
		}
		s.Step(pid, &ev)
	}
}

// TestCheckInvariantsCleanSystem: a healthy system under every write
// policy passes the full invariant sweep mid-run and after a drain.
func TestCheckInvariantsCleanSystem(t *testing.T) {
	configs := map[string]Config{
		"writeback": Base(),
		"wmi":       writeThroughConfig(WriteMissInvalidate, LPSNone),
		"writeonly": writeThroughConfig(WriteOnly, LPSAssociative),
		"subblock":  writeThroughConfig(Subblock, LPSNone),
		"dirtybit":  writeThroughConfig(WriteOnly, LPSDirtyBit),
	}
	for name, cfg := range configs {
		s := newSys(t, cfg)
		randomWorkload(s, 20_000)
		if err := s.CheckInvariants(); err != nil {
			t.Errorf("%s: mid-run invariant violation: %v", name, err)
		}
		s.DrainWriteBuffer()
		if err := s.CheckInvariants(); err != nil {
			t.Errorf("%s: post-drain invariant violation: %v", name, err)
		}
	}
}

// TestCorruptedDirtyBitCaught deliberately corrupts a line's dirty bit
// under write-miss-invalidate (a policy that never sets it) and checks
// the violation is reported as an InvariantError carrying the cycle and
// the line address.
func TestCorruptedDirtyBitCaught(t *testing.T) {
	s := newSys(t, writeThroughConfig(WriteMissInvalidate, LPSNone))
	s.load(pid, 0x1000)
	slot := residentL1DSlot(t, s)
	s.l1.d.flags[slot] |= flagDirty
	lineAddr := s.l1.d.tags[slot] << s.l1.d.offBits

	err := s.CheckInvariants()
	if err == nil {
		t.Fatal("corrupted dirty bit not caught")
	}
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("error %v does not match ErrInvariant", err)
	}
	var inv *InvariantError
	if !errors.As(err, &inv) {
		t.Fatalf("error %T is not *InvariantError", err)
	}
	if inv.Check != "l1d-dirty-bit" {
		t.Errorf("check = %q, want l1d-dirty-bit", inv.Check)
	}
	if inv.Cycle == 0 || inv.Cycle != s.now {
		t.Errorf("cycle = %d, want current cycle %d", inv.Cycle, s.now)
	}
	if inv.Addr != lineAddr {
		t.Errorf("addr = %#x, want the corrupted line %#x", inv.Addr, lineAddr)
	}
}

// residentL1DSlot returns the slot of the single valid L1-D line.
func residentL1DSlot(t *testing.T, s *System) int {
	t.Helper()
	for slot, tag := range s.l1.d.tags {
		if tag != tagInvalid {
			return slot
		}
	}
	t.Fatal("no resident L1-D line")
	return -1
}

// TestSelfCheckGatesStep: with Config.SelfCheck set, Step runs the
// invariant sweep every N cycles, latches the first violation, and
// returns it on every subsequent call.
func TestSelfCheckGatesStep(t *testing.T) {
	cfg := writeThroughConfig(WriteMissInvalidate, LPSNone)
	cfg.SelfCheck = 1
	s := newSys(t, cfg)
	ev := trace.Event{PC: 0x1000, Kind: trace.Load, Data: 0x2000, Size: 4}
	if err := s.Step(pid, &ev); err != nil {
		t.Fatalf("clean step failed a self-check: %v", err)
	}

	s.l1.d.flags[residentL1DSlot(t, s)] |= flagDirty

	ev = trace.Event{PC: 0x1004}
	err := s.Step(pid, &ev)
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("corrupting step = %v, want ErrInvariant", err)
	}
	if s.Err() == nil {
		t.Fatal("fault not latched on the system")
	}
	// The fault is sticky: further steps refuse to run and keep
	// reporting the first violation.
	before := s.stats.Instructions
	ev = trace.Event{PC: 0x1008}
	if err2 := s.Step(pid, &ev); !errors.Is(err2, ErrInvariant) {
		t.Fatalf("step after fault = %v, want the latched ErrInvariant", err2)
	}
	if s.stats.Instructions != before {
		t.Fatal("faulted system kept executing instructions")
	}
}

// TestSelfCheckDisabledByDefault: with SelfCheck zero, Step never pays
// for the sweep, even on a corrupted system.
func TestSelfCheckDisabledByDefault(t *testing.T) {
	s := newSys(t, writeThroughConfig(WriteMissInvalidate, LPSNone))
	s.load(pid, 0x1000)
	s.l1.d.flags[residentL1DSlot(t, s)] |= flagDirty
	ev := trace.Event{PC: 0x1004}
	if err := s.Step(pid, &ev); err != nil {
		t.Fatalf("Step with SelfCheck=0 returned %v", err)
	}
}

// TestInvariantErrorFormatting: the error string carries the check
// name, cycle, and address so a multi-hour sweep log is actionable.
func TestInvariantErrorFormatting(t *testing.T) {
	e := &InvariantError{Check: "l1d-dirty-bit", Cycle: 1234, Addr: 0x1000, Detail: "boom"}
	msg := e.Error()
	for _, want := range []string{"l1d-dirty-bit", "1234", "0x1000", "boom"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	if errors.Is(e, ErrWriteBufferOverflow) {
		t.Error("InvariantError matched an unrelated sentinel")
	}
}
