// Tapes demonstrates the pixie-style trace workflow: record a
// benchmark's address trace to a tape file, characterize it (the
// Table 1 columns), then replay it in full and by interval sampling
// against the same cache to compare the two estimates.
//
//	go run ./examples/tapes
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/progs"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/trace"
)

func main() {
	bench, err := progs.ByName("qsort")
	if err != nil {
		log.Fatal(err)
	}

	// Record: run the benchmark once, writing every event to a tape.
	path := filepath.Join(os.TempDir(), "qsort.gtrc")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	cpu := bench.NewCPU(1)
	n, err := trace.WriteAll(f, cpu)
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d events of %s to %s\n", n, bench.Name, path)

	// Read it back and characterize (Table 1 columns).
	rf, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	tape, err := trace.ReadAll(rf)
	rf.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("characterization:", trace.Characterize(tape.Clone()))

	// Replay the full tape, then sample the packed tape on the same base
	// architecture: one 10k-instruction interval measured per 100k,
	// with the gaps between them skipped and functionally warmed.
	full := replay(tape.Clone())
	procs := []sched.Process{{Name: bench.Name, Stream: trace.Pack(tape.Clone()).NewCursor()}}
	smp, err := sample.Run(core.Base(), procs, sched.Config{}, sample.Config{Interval: 10_000, Period: 100_000})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-22s %12s %12s %12s\n", "", "L1-D miss", "L2 miss", "CPI")
	fmt.Printf("%-22s %12.4f %12.4f %12.3f\n", "full tape", full.L1DMissRatio(), full.L2MissRatio(), full.CPI())
	fmt.Printf("%-22s %12.4f %12.4f %12.3f\n", "sampled", smp.Measured.L1DMissRatio(), smp.Measured.L2MissRatio(), smp.Measured.CPI())
	fmt.Printf("%-22s %12s %12s %5.3f-%5.3f\n", "  95% CI", "", "", smp.CPI.CI95Lo, smp.CPI.CI95Hi)
	fmt.Printf("\n(%d intervals measured %d of %d instructions; the warming before each\n",
		smp.Intervals, smp.MeasuredInstructions, smp.TotalInstructions)
	fmt.Println(" interval rebuilds L1 state well but the large L2 only in part)")

	os.Remove(path)
}

// replay runs one stream through a fresh base-architecture system.
func replay(src trace.Stream) core.Stats {
	sys, err := core.NewSystem(core.Base())
	if err != nil {
		log.Fatal(err)
	}
	stats, err := sys.Run(1, src)
	if err != nil {
		log.Fatal(err)
	}
	return stats
}
