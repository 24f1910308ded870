// Command perfbench is the repository's benchmark. One invocation runs
// one named workload with a seed, checks every output it produces, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	bash perfbench/run.sh --workload engines --seed 1 --seconds 20 --trace 0
//
// Workloads (see NOTES.md for why each exists and what it predicts):
//
//	engines      exact, screening and sampled simulation of the
//	             64M-instruction paper-calibrated recording; no HTTP
//	serve-hot    coordinator + two workers on loopback, zipf mix of
//	             pre-warmed keys: every response is a cache hit
//	serve-churn  same topology, every request a never-seen /v1/sim:
//	             every response is a computed miss
//
// Layers are timed from outside, through interfaces the program already
// accepts (trace.BatchStream, sched.BatchTarget, store.FS, http.Handler,
// the listener's ConnState); no code under internal/ or cmd/ knows it is
// being measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runOpts is one invocation's settings plus the self-test hooks.
type runOpts struct {
	Workload string
	Seed     int64
	Seconds  time.Duration
	Trace    bool
	Out      string // directory for result, ledger and spans files

	tiny         bool // self-test sizing: small recording, short load
	corruptHits  bool // flip one byte of every hit body in the worker handler
	perturbStats bool // alter one simulated counter before it is digested
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run measured and checked.
type outcome struct {
	checks  *checks
	e2e     map[string]metric // untraced run
	layer   map[string]metric // traced run
	summary []string          // the workload's own named figures, one per line
	ledger  map[string]any    // traced run: per-layer ledger
	spans   []span            // traced run
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(runOpts) (*outcome, error){
	"engines":     runEngines,
	"serve-hot":   func(o runOpts) (*outcome, error) { return runServe(o, false) },
	"serve-churn": func(o runOpts) (*outcome, error) { return runServe(o, true) },
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o runOpts
	var seconds, traced int
	var golden bool
	fs.StringVar(&o.Workload, "workload", "", "engines | serve-hot | serve-churn")
	fs.Int64Var(&o.Seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.IntVar(&seconds, "seconds", 20, "measuring time in seconds")
	fs.IntVar(&traced, "trace", 0, "1 = traced run: print per-layer metrics and write the ledger and spans")
	fs.StringVar(&o.Out, "out", filepath.Join("perfbench", "results"), "directory for result, ledger and spans files")
	fs.BoolVar(&golden, "write-golden", false, "recompute every engines digest and write perfbench/golden.json (only after a CodeVersion bump)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if golden {
		if err := writeGolden(filepath.Join("perfbench", "golden.json"), stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[o.Workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want engines, serve-hot or serve-churn)\n", o.Workload)
		return 2
	case seconds < 1:
		fmt.Fprintf(stderr, "perfbench: --seconds must be >= 1 (got %d)\n", seconds)
		return 2
	case traced != 0 && traced != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1 (got %d)\n", traced)
		return 2
	}
	o.Seconds = time.Duration(seconds) * time.Second
	o.Trace = traced == 1

	out, err := wl(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := out.result(o.Trace)
	host := hostStamp()
	for _, line := range out.summary {
		fmt.Fprintln(stdout, line)
	}
	for _, msg := range out.checks.messages() {
		fmt.Fprintln(stdout, "check failed:", msg)
	}
	if err := writeFiles(o, out, res, host); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host: %s\n", hostLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result assembles the printed JSON: end-to-end metrics for an untraced
// run, per-layer metrics for a traced one.
func (out *outcome) result(traced bool) result {
	att, failed := out.checks.counts()
	m := out.e2e
	if traced {
		m = out.layer
	}
	return result{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: m}
}

// writeFiles records the run beside the benchmark: every result with
// its host stamp, and for traced runs the ledger and the spans.
func writeFiles(o runOpts, out *outcome, res result, host map[string]any) error {
	if err := os.MkdirAll(o.Out, 0o755); err != nil {
		return fmt.Errorf("results dir: %w", err)
	}
	base := fmt.Sprintf("%s-seed%d", o.Workload, o.Seed)
	tr := 0
	if o.Trace {
		tr = 1
	}
	rec := map[string]any{
		"workload": o.Workload, "seed": o.Seed, "seconds": o.Seconds.Seconds(), "trace": tr,
		"host": host, "summary": out.summary, "check_failures": out.checks.messages(), "result": res,
	}
	if err := writeJSON(filepath.Join(o.Out, fmt.Sprintf("result-%s-trace%d.json", base, tr)), rec); err != nil {
		return err
	}
	if !o.Trace {
		return nil
	}
	out.ledger["workload"] = o.Workload
	out.ledger["seed"] = o.Seed
	out.ledger["host"] = host
	if err := writeJSON(filepath.Join(o.Out, "ledger-"+base+".json"), out.ledger); err != nil {
		return err
	}
	return writeSpans(filepath.Join(o.Out, "spans-"+base+".jsonl"), out.spans)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// checks counts attempted operations and the ones that failed, either
// by returning an error or by producing output that failed a check.
type checks struct {
	mu                sync.Mutex
	attempted, failed int
	msgs              []string
}

const maxCheckMessages = 20

func newChecks() *checks { return &checks{} }

// op records one attempted operation; a non-nil err fails it.
func (c *checks) op(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if len(c.msgs) < maxCheckMessages {
		c.msgs = append(c.msgs, err.Error())
	}
}

func (c *checks) counts() (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

func (c *checks) messages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.msgs...)
}

// summaryLine formats one named figure with its unit and sample count.
func summaryLine(name string, v float64, unit string, n int, what string) string {
	return fmt.Sprintf("%s = %.6g %s (n = %d %s)", name, v, unit, n, what)
}

// trimLabel shortens a content key for messages.
func trimLabel(s string) string {
	if len(s) > 16 {
		return s[:16]
	}
	return s
}
