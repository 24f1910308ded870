package stackdist_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/stackdist"
	"repro/internal/synth"
	"repro/internal/trace"
)

// BenchmarkAnalyzerStep measures the one-pass engine's batch step over
// a synthetic stream with the screening grid experiments.FastSweep
// analyzes: the L1 curves and the full Fig. 6 L2 matrix, every class
// updated per reference. One op is a full pass over 100k instructions
// on an analyzer kept from op to op; ns/instr is the per-instruction
// cost.
func BenchmarkAnalyzerStep(b *testing.B) {
	evs := trace.Collect(synth.New(synth.Config{Instructions: 100_000, Seed: 7})).Events()
	a, err := stackdist.New(experiments.ScreeningGrid())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for done := 0; done < len(evs); {
			n, err := a.StepBatch(1, evs[done:])
			if err != nil {
				b.Fatal(err)
			}
			done += n
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/instr")
}

// BenchmarkAnalyzerStepScan is BenchmarkAnalyzerStep through the scan
// path: the same stream, packed, analyzed straight from its words.
func BenchmarkAnalyzerStepScan(b *testing.B) {
	rec := trace.Pack(synth.New(synth.Config{Instructions: 100_000, Seed: 7}))
	a, err := stackdist.New(experiments.ScreeningGrid())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for cur := rec.NewCursor(); ; {
			n, _, _ := a.StepScan(1, cur, rec.Len())
			if n == 0 {
				break
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rec.Len()), "ns/instr")
}
