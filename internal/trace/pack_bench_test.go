package trace_test

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkPack measures recording: trace.Pack over one 1M-instruction
// member of the paper-calibrated synthetic workload, generation
// included, the way workload.RecordPaperLike records each process.
// ns/event is the per-event cost of generating and encoding.
func BenchmarkPack(b *testing.B) {
	const events = 1_000_000
	var r *trace.Recorded
	for i := 0; i < b.N; i++ {
		r = trace.Pack(workload.PaperLike(1, events)[0].Stream)
	}
	if r.Len() != events {
		b.Fatalf("recorded %d events, want %d", r.Len(), events)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}
