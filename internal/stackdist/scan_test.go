package stackdist_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/stackdist"
	"repro/internal/trace"
)

// TestAnalyzerStepScanMatchesStepBatch analyzes random two-process
// recordings through StepScan over cursors and through StepBatch over
// the same events, in lockstep calls with a random max (at most the
// events left, so both calls have the same cycle budget) and a random
// decoded read-ahead left pending on the cursor. Each call must return
// the same n, syscall stop and clock, and the final Result and filter
// counts must be deeply equal, for every filter write policy.
func TestAnalyzerStepScanMatchesStepBatch(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		policy := core.WritePolicy(seed % 4)
		t.Run(fmt.Sprintf("%v/seed%d", policy, seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			iGeom, dGeom := fuzzGeom(uint8(rng.Intn(16))), fuzzGeom(uint8(rng.Intn(16)))
			grid := func(g core.CacheGeom) stackdist.GridSpec {
				return stackdist.GridSpec{LineWords: g.LineWords, SizesWords: []int{g.SizeWords, 2 * g.SizeWords}, Ways: []int{1, 2}}
			}
			cfg := stackdist.Config{
				L1I: grid(iGeom), L1D: grid(dGeom),
				L2:        stackdist.GridSpec{LineWords: 32, SizesWords: []int{4096, 8192}, Ways: []int{1, 2}},
				FilterL1I: iGeom, FilterL1D: dGeom, FilterPolicy: policy,
			}
			batch, err := stackdist.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			scan, err := stackdist.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for pid := 1; pid <= 2; pid++ {
				evs := trace.Collect(fuzzTrace(seed*10 + uint64(pid)).NewCursor()).Events()
				for i := range evs {
					evs[i].Stall = uint8(rng.Intn(3)) // the nominal clock's only variable cost
				}
				cur := trace.Pack(trace.NewMemTrace(evs)).NewCursor()
				for pos, calls := 0, 0; pos < len(evs); calls++ {
					max := min(1+rng.Intn(500), len(evs)-pos)
					if rng.Intn(4) == 0 {
						cur.Batch(1 + rng.Intn(2*max)) // leave decoded events pending
					}
					bn, _ := batch.StepBatch(mmu.PID(pid), evs[pos:pos+max])
					sn, ssys, _ := scan.StepScan(mmu.PID(pid), cur, max)
					if bsys := evs[pos+bn-1].Syscall; sn != bn || ssys != bsys || scan.Now() != batch.Now() {
						t.Fatalf("pid %d call %d at event %d, max %d: StepScan (%d, %v) at cycle %d, StepBatch (%d, %v) at cycle %d",
							pid, calls, pos, max, sn, ssys, scan.Now(), bn, bsys, batch.Now())
					}
					pos += bn
				}
			}
			if got, want := scan.Result(), batch.Result(); !reflect.DeepEqual(got, want) {
				t.Fatalf("results differ:\nscan:  %+v\nbatch: %+v", got, want)
			}
			if got, want := scan.Result().Filter, batch.Result().Filter; got != want {
				t.Fatalf("filter counts differ:\nscan:  %+v\nbatch: %+v", got, want)
			}
		})
	}
}
