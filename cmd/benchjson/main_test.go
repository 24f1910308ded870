package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Some CPU @ 2.0GHz
BenchmarkFig6L2Organization-8   	       2	 512345678 ns/op	        28.0 configs	 1024 B/op	       3 allocs/op
BenchmarkSimulatorThroughput-8  	      34	  33990000 ns/op	  29415516 instr/s
BenchmarkSystemStep   	42799341	        26.96 ns/op
PASS
ok  	repro	12.345s
`

func TestParse(t *testing.T) {
	var echoed strings.Builder
	log, err := parse(strings.NewReader(sample), &echoed)
	if err != nil {
		t.Fatal(err)
	}
	if echoed.String() != sample {
		t.Errorf("echo is not a pass-through:\n%s", echoed.String())
	}
	if log.GoOS != "linux" || log.GoArch != "amd64" || log.Pkg != "repro" {
		t.Errorf("header = %q/%q/%q", log.GoOS, log.GoArch, log.Pkg)
	}
	want := []string{"BenchmarkFig6L2Organization", "BenchmarkSimulatorThroughput", "BenchmarkSystemStep"}
	if got := sortedNames(log); !reflect.DeepEqual(got, want) {
		t.Fatalf("names = %v, want %v", got, want)
	}

	fig6 := log.Benchmarks["BenchmarkFig6L2Organization"]
	if fig6.Iterations != 2 || fig6.NsPerOp != 512345678 {
		t.Errorf("fig6 = %+v", fig6)
	}
	if fig6.Metrics["configs"] != 28 || fig6.Metrics["B/op"] != 1024 || fig6.Metrics["allocs/op"] != 3 {
		t.Errorf("fig6 metrics = %v", fig6.Metrics)
	}

	thr := log.Benchmarks["BenchmarkSimulatorThroughput"]
	if thr.Metrics["instr/s"] != 29415516 {
		t.Errorf("throughput metrics = %v", thr.Metrics)
	}

	// No GOMAXPROCS suffix on the last line; no extra metrics either.
	step := log.Benchmarks["BenchmarkSystemStep"]
	if step.NsPerOp != 26.96 || step.Metrics != nil {
		t.Errorf("step = %+v", step)
	}
}

// writeLog marshals a Log to a temp file for compare tests.
func writeLog(t *testing.T, log Log) string {
	t.Helper()
	data, err := json.Marshal(log)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareLogsPassesWithinThreshold(t *testing.T) {
	oldPath := writeLog(t, Log{Benchmarks: map[string]Result{
		"BenchmarkA":    {Iterations: 10, NsPerOp: 1000},
		"BenchmarkB":    {Iterations: 10, NsPerOp: 500},
		"BenchmarkGone": {Iterations: 1, NsPerOp: 42},
	}})
	newPath := writeLog(t, Log{Benchmarks: map[string]Result{
		"BenchmarkA":   {Iterations: 10, NsPerOp: 1100}, // +10%, under the gate
		"BenchmarkB":   {Iterations: 10, NsPerOp: 400},  // faster
		"BenchmarkNew": {Iterations: 1, NsPerOp: 7},
	}})
	var out strings.Builder
	if err := compareLogs(oldPath, newPath, 20, &out); err != nil {
		t.Fatalf("compare failed within threshold: %v\n%s", err, out.String())
	}
	for _, want := range []string{"+10.0%", "new", "gone", "no regressions"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestCompareLogsFailsOnRegression(t *testing.T) {
	oldPath := writeLog(t, Log{Benchmarks: map[string]Result{
		"BenchmarkA": {Iterations: 10, NsPerOp: 1000},
	}})
	newPath := writeLog(t, Log{Benchmarks: map[string]Result{
		"BenchmarkA": {Iterations: 10, NsPerOp: 1300}, // +30%
	}})
	var out strings.Builder
	err := compareLogs(oldPath, newPath, 20, &out)
	if err == nil {
		t.Fatalf("compare passed a 30%% regression:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkA") {
		t.Errorf("error %q does not name the regressed benchmark", err)
	}
}

func TestCompareLogsBadFile(t *testing.T) {
	good := writeLog(t, Log{Benchmarks: map[string]Result{}})
	if err := compareLogs(filepath.Join(t.TempDir(), "missing.json"), good, 20, &strings.Builder{}); err == nil {
		t.Error("missing old log not reported")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareLogs(good, bad, 20, &strings.Builder{}); err == nil {
		t.Error("corrupt new log not reported")
	}
}

func TestParseIgnoresMalformed(t *testing.T) {
	in := "BenchmarkBroken notanumber 5 ns/op\nBenchmarkShort 1\n"
	log, err := parse(strings.NewReader(in), &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Benchmarks) != 0 {
		t.Fatalf("parsed %v from malformed input", log.Benchmarks)
	}
}

// writeRuns writes perfbench result lines to a temp file for -ab tests.
func writeRuns(t *testing.T, name string, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func perfLine(correct bool, setup, rate float64) string {
	return fmt.Sprintf(`{"correct":%t,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":%g,"unit":"s"},"rate_per_s":{"value":%g,"unit":"1/s"}}}`,
		correct, setup, rate)
}

func TestCompareRunsSummarizesPairs(t *testing.T) {
	base := writeRuns(t, "base.jsonl", perfLine(true, 2.0, 100), perfLine(true, 3.0, 110), perfLine(true, 2.5, 90), perfLine(true, 2.2, 95))
	head := writeRuns(t, "head.jsonl", perfLine(true, 1.5, 100), perfLine(true, 1.6, 100), perfLine(true, 2.6, 91), perfLine(true, 1.4, 96))
	var out strings.Builder
	if err := compareRuns(base, head, &out); err != nil {
		t.Fatalf("compareRuns: %v\n%s", err, out.String())
	}
	// setup_s: base sorted 2.0 2.2 2.5 3.0 (median 2.35, q1 2.15, q3 2.625),
	// head sorted 1.4 1.5 1.6 2.6 (median 1.55); head lower in 3 of 4 pairs.
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = strings.Join(f, " ")
		}
	}
	for name, want := range map[string]string{
		"setup_s":    "setup_s s 2.35 [2.15-2.625] (2-3) 1.55 [1.475-1.85] (1.4-2.6) -34.0% 3/4",
		"rate_per_s": "rate_per_s 1/s 97.5 [93.75-102.5] (90-110) 98 [94.75-100] (91-100) +0.5% 1/4",
		"4":          "4 pairs; each side: median [q1-q3] (min-max)",
		"every":      "every run correct",
	} {
		if rows[name] != want {
			t.Errorf("row %q = %q, want %q\n%s", name, rows[name], want, out.String())
		}
	}
}

func TestCompareRunsFailsOnIncorrectRun(t *testing.T) {
	base := writeRuns(t, "base.jsonl", perfLine(true, 2, 100))
	head := writeRuns(t, "head.jsonl", perfLine(false, 1, 100))
	err := compareRuns(base, head, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "1 of 2 runs") {
		t.Fatalf("incorrect head run not reported: %v", err)
	}
}

func TestCompareRunsBadInput(t *testing.T) {
	good := writeRuns(t, "good.jsonl", perfLine(true, 2, 100))
	notJSON := writeRuns(t, "bad.jsonl", "host: {}")
	if err := compareRuns(good, notJSON, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "bad.jsonl:1") {
		t.Errorf("non-result line not reported with its position: %v", err)
	}
	empty := writeRuns(t, "empty.jsonl")
	if err := compareRuns(good, empty, &strings.Builder{}); err == nil {
		t.Error("a side with no runs not reported")
	}
}
