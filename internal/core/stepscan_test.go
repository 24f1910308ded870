package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
)

// scanEvents builds n random events over every packed encoding: plain
// instructions, meta-only ones (stalls, syscalls, loads and stores of
// address 0), data references of every width, misaligned partial
// stores, and unaligned PCs (the raw tag). Code and data span enough
// pages and lines to miss in the TLBs, both L1s and L2.
func scanEvents(rng *rand.Rand, n int) []trace.Event {
	evs := make([]trace.Event, n)
	pc := uint32(0x40000)
	for i := range evs {
		if rng.Intn(8) == 0 {
			pc = 0x40000 + 4*uint32(rng.Intn(64<<10))
		} else {
			pc += 4
		}
		ev := trace.Event{PC: pc}
		if rng.Intn(64) == 0 {
			ev.PC |= 2
		}
		if rng.Intn(4) == 0 {
			ev.Stall = uint8(rng.Intn(5))
		}
		if k := rng.Intn(10); k < 5 {
			ev.Kind = trace.Load
			if k >= 3 {
				ev.Kind = trace.Store
			}
			ev.Size = []uint8{1, 2, 4, 4}[rng.Intn(4)]
			ev.Data = 0x100000 + uint32(rng.Intn(256<<10))&^3
			if ev.Size < 4 && rng.Intn(2) == 0 {
				ev.Data |= 1
			}
			if rng.Intn(40) == 0 {
				ev.Data = 0
			}
		}
		ev.Syscall = rng.Intn(150) == 0
		evs[i] = ev
	}
	return evs
}

// scanConfigs are the configurations the scan path must match the
// event path on: every valid write policy and loads-pass-stores pair,
// a TLB miss penalty, the self-check, a two-way L1 (where the hit
// probes never answer) and the optimized design (multi-line fetches).
func scanConfigs() map[string]Config {
	cfgs := map[string]Config{}
	for p := WriteBack; p <= Subblock; p++ {
		for lps := LPSNone; lps <= LPSDirtyBit; lps++ {
			c := writeThroughConfig(p, lps)
			if p == WriteBack {
				c = Base()
				c.LoadsPassStores = lps
			}
			if c.Validate() == nil {
				cfgs[fmt.Sprintf("%v/%v", p, lps)] = c
			}
		}
	}
	c := Base()
	c.TLBMissPenalty = 20
	c.SelfCheck = 97
	cfgs["tlb-penalty+selfcheck"] = c
	c = Base()
	c.L1I.Ways, c.L1D.Ways = 2, 2
	cfgs["two-way-l1"] = c
	cfgs["optimized"] = Optimized()
	return cfgs
}

// TestStepScanMatchesEventPath replays random recordings three ways —
// Step per event, StepBatch over the next max events, and StepScan
// over a cursor — with a random max per call (at most the events left,
// so both calls have the same cycle budget) and a random decoded
// read-ahead left pending on the cursor before some calls. Every call
// must return the same n, syscall stop and error on both batch paths,
// and all three systems must end with the same Stats, clock, cache
// fingerprint and latched fault. Some runs break the model at the same
// instruction on all three: an injected fault latched between calls,
// or a corrupted stall count that the next self-check catches within a
// call.
func TestStepScanMatchesEventPath(t *testing.T) {
	errInjected := errors.New("injected fault")
	for name, cfg := range scanConfigs() {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				cfg := cfg
				rng := rand.New(rand.NewSource(seed))
				evs := scanEvents(rng, 1+rng.Intn(4000))
				faultAt, corrupt := -1, false
				switch seed % 3 {
				case 1:
					faultAt = rng.Intn(len(evs))
				case 2:
					faultAt, corrupt = rng.Intn(len(evs)), true
					cfg.SelfCheck = 50
				}
				breakModel := func(s *System) {
					if corrupt {
						s.stats.Stalls[CauseL1Write]++ // the next self-check fails
					} else {
						s.fail(errInjected)
					}
				}

				batch, scan := newSys(t, cfg), newSys(t, cfg)
				cur := trace.Pack(trace.NewMemTrace(evs)).NewCursor()
				brokeAt := -1
				for pos, calls := 0, 0; pos < len(evs); calls++ {
					if faultAt >= 0 && pos >= faultAt && brokeAt < 0 {
						breakModel(batch)
						breakModel(scan)
						brokeAt = pos
					}
					max := min(1+rng.Intn(300), len(evs)-pos) // StepBatch's budget is len(evs)
					if rng.Intn(4) == 0 {
						cur.Batch(1 + rng.Intn(2*max)) // leave decoded events pending
					}
					bn, berr := batch.StepBatch(pid, evs[pos:pos+max])
					sn, ssys, serr := scan.StepScan(pid, cur, max)
					bsys := bn > 0 && evs[pos+bn-1].Syscall
					if sn != bn || ssys != bsys || fmt.Sprint(serr) != fmt.Sprint(berr) {
						t.Fatalf("call %d at event %d, max %d: StepScan = (%d, %v, %v), StepBatch = (%d, %v, %v)",
							calls, pos, max, sn, ssys, serr, bn, bsys, berr)
					}
					if scan.Now() != batch.Now() {
						t.Fatalf("call %d: StepScan clock %d, StepBatch %d", calls, scan.Now(), batch.Now())
					}
					pos += bn
					if berr != nil {
						break
					}
				}
				serial := newSys(t, cfg)
				for i := range evs {
					if i == brokeAt {
						breakModel(serial)
					}
					if serial.Step(pid, &evs[i]) != nil {
						break
					}
				}

				for _, s := range []*System{batch, scan} {
					if s.Stats() != serial.Stats() || s.Now() != serial.Now() ||
						s.CacheFingerprint() != serial.CacheFingerprint() || fmt.Sprint(s.Err()) != fmt.Sprint(serial.Err()) {
						t.Fatalf("diverged from Step:\nstep: %+v err %v\ngot:  %+v err %v",
							serial.Stats(), serial.Err(), s.Stats(), s.Err())
					}
				}
			})
		}
	}
}

// TestStepScanExhaustion checks a scan at the end of a recording
// returns 0, and that a latched fault still counts the one event a
// StepBatch would have been handed, consuming it.
func TestStepScanExhaustion(t *testing.T) {
	evs := batchEvents(20, -1)
	s := newSys(t, Base())
	cur := trace.Pack(trace.NewMemTrace(evs)).NewCursor()
	for done := 0; done < len(evs); {
		n, _, err := s.StepScan(pid, cur, len(evs))
		if err != nil || n == 0 {
			t.Fatalf("StepScan at %d = (%d, %v)", done, n, err)
		}
		done += n
	}
	if n, sys, err := s.StepScan(pid, cur, 10); n != 0 || sys || err != nil {
		t.Fatalf("StepScan on an exhausted cursor = (%d, %v, %v), want (0, false, nil)", n, sys, err)
	}

	s = newSys(t, Base())
	s.fail(ErrWriteBufferOverflow)
	cur = trace.Pack(trace.NewMemTrace(evs[:2])).NewCursor()
	for _, want := range []int{1, 1, 0} {
		if n, _, err := s.StepScan(pid, cur, 10); n != want || !errors.Is(err, ErrWriteBufferOverflow) {
			t.Fatalf("StepScan on a faulted system = (%d, %v), want (%d, the fault)", n, err, want)
		}
	}
}

// TestHitProbesAreExact drives random fetches, loads and stores
// through L1 models of every write policy, direct-mapped and two-way,
// and checks each probe against the access it stands in for: when
// FetchHit or LoadHit reports a hit, Fetch or Load must return no
// outcome and leave every array bit-identical; and on a direct-mapped
// L1 (outside Subblock, for loads) every access that returns no
// outcome and changes nothing must have been probed as a hit.
func TestHitProbesAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for p := WriteBack; p <= Subblock; p++ {
		for _, ways := range []int{1, 2} {
			cfg := Base()
			cfg.WritePolicy = p
			cfg.L1I = CacheGeom{SizeWords: 256, LineWords: 4, Ways: ways}
			cfg.L1D = cfg.L1I
			cfg.L2U.Geom = CacheGeom{SizeWords: 1024, LineWords: 32, Ways: 1} // small: cheap fingerprints
			s := newSys(t, cfg)
			m := &s.l1
			hits := [2]int{}
			for i := 0; i < 10000; i++ {
				paddr := uint64(rng.Intn(4096)) &^ 3
				if rng.Intn(2) == 0 {
					paddr |= uint64(rng.Intn(4))
				}
				if rng.Intn(3) == 0 {
					m.Store(paddr, []uint8{1, 2, 4}[rng.Intn(3)])
					continue
				}
				fetch := rng.Intn(2) == 0
				probe, access := m.LoadHit, m.Load
				if fetch {
					probe, access = m.FetchHit, m.Fetch
				}
				hit := probe(paddr)
				before := s.CacheFingerprint()
				o := access(paddr)
				quiet := o == nil && s.CacheFingerprint() == before
				if hit && !quiet {
					t.Fatalf("%v %d-way, access %d (fetch %v, %#x): probe hit, access returned %+v or changed state",
						p, ways, i, fetch, paddr, o)
				}
				complete := ways == 1 && (fetch || p != Subblock)
				if complete && quiet && !hit {
					t.Fatalf("%v %d-way, access %d (fetch %v, %#x): quiet hit the probe missed", p, ways, i, fetch, paddr)
				}
				if hit {
					hits[btoi(fetch)]++
				}
			}
			if ways == 1 && (hits[1] == 0 || (p != Subblock && hits[0] == 0)) {
				t.Errorf("%v: probes never hit (load %d, fetch %d)", p, hits[0], hits[1])
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// BenchmarkStepScan is BenchmarkStepBatch through the scan path: the
// same 100k-instruction synthetic stream, packed, stepped straight
// from its words. ns/instr is the per-instruction cost.
func BenchmarkStepScan(b *testing.B) {
	rec := trace.Pack(synth.New(synth.Config{Instructions: 100_000, Seed: 7}))
	s, err := NewSystem(Base())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for cur := rec.NewCursor(); ; {
			n, _, err := s.StepScan(pid, cur, rec.Len())
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				break
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rec.Len()), "ns/instr")
}
