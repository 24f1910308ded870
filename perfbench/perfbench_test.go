package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinyRun runs one workload at self-test size.
func tinyRun(t *testing.T, o runOpts) *outcome {
	t.Helper()
	o.Seed, o.Seconds, o.Out, o.tiny = 3, time.Second, t.TempDir(), true
	if o.Trace {
		o.Seconds = 2 * time.Second
	}
	out, err := workloads[o.Workload](o)
	if err != nil {
		t.Fatalf("%s: %v", o.Workload, err)
	}
	return out
}

func TestTinyRunsPassTheirChecks(t *testing.T) {
	bench := readBenchmarkJSON(t)
	for _, wl := range sortedKeys(workloads) {
		t.Run(wl, func(t *testing.T) {
			out := tinyRun(t, runOpts{Workload: wl})
			att, failed := out.checks.counts()
			if att == 0 || failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", att, failed, out.checks.messages())
			}
			if got, want := names(out.e2e), bench.names(bench.EndToEnd); got != want {
				t.Errorf("end-to-end metrics %s, BENCHMARK.json lists %s", got, want)
			}
			for name, m := range out.e2e {
				if m.Value <= 0 {
					t.Errorf("%s = %v, end-to-end metrics must never be 0", name, m.Value)
				}
			}
		})
	}
}

func TestTracedRunsPrintEveryLayer(t *testing.T) {
	bench := readBenchmarkJSON(t)
	for _, wl := range sortedKeys(workloads) {
		t.Run(wl, func(t *testing.T) {
			out := tinyRun(t, runOpts{Workload: wl, Trace: true})
			if _, failed := out.checks.counts(); failed != 0 {
				t.Fatalf("failed %d: %v", failed, out.checks.messages())
			}
			if got, want := names(out.layer), bench.names(bench.PerLayer); got != want {
				t.Errorf("per-layer metrics %s, BENCHMARK.json lists %s", got, want)
			}
			for _, lm := range bench.PerLayer {
				if got := out.layer[lm.Name].Unit; got != lm.Unit {
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", lm.Name, got, lm.Unit)
				}
			}
			if len(out.spans) == 0 || out.ledger["tracing_overhead_pct"] == nil {
				t.Errorf("traced run wrote %d spans, ledger %v", len(out.spans), out.ledger)
			}
		})
	}
}

func TestTracedServeHotAccountsForTheRoundTrip(t *testing.T) {
	out := tinyRun(t, runOpts{Workload: "serve-hot", Trace: true})
	us := out.ledger["hit_us"].(map[string]float64)
	sum := us["transport"] + us["fabric"] + us["service"]
	if us["round_trip"] <= 0 || sum < 0.999*us["round_trip"] || sum > 1.001*us["round_trip"] {
		t.Errorf("transport + fabric + service = %.2f us, round trip %.2f us", sum, us["round_trip"])
	}
}

func TestFlippedHitBytesAreFailures(t *testing.T) {
	for _, wl := range []string{"serve-hot", "serve-churn"} {
		t.Run(wl, func(t *testing.T) {
			out := tinyRun(t, runOpts{Workload: wl, corruptHits: true})
			if _, failed := out.checks.counts(); failed == 0 {
				t.Fatal("a handler flipping one byte of every hit body went undetected")
			}
		})
	}
}

func TestPerturbedStatsDigestIsAFailure(t *testing.T) {
	out := tinyRun(t, runOpts{Workload: "engines", perturbStats: true})
	_, failed := out.checks.counts()
	if failed != enginesTiny.k {
		t.Fatalf("failed %d, want one per exact point (%d): %v", failed, enginesTiny.k, out.checks.messages())
	}
}

func TestCommandPrintsResultLast(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
	out := tinyRun(t, runOpts{Workload: "serve-churn"})
	line, err := json.Marshal(out.result(false))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sortedKeys(keys), ","); got != "attempted,correct,failed,metrics" {
		t.Errorf("result keys %s", got)
	}
}

func TestChurnSpecsAreDistinct(t *testing.T) {
	src := newChurnSource(5, 100_000, specSpace())
	seen := map[string]bool{}
	for i := 0; i < 2*len(src.perm)+10; i++ {
		req, err := src.request(i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[req.key] {
			t.Fatalf("request %d repeats a key", i)
		}
		seen[req.key] = true
	}
}

type benchJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func (benchJSON) names(ms []struct{ Name, Unit string }) string {
	var n []string
	for _, m := range ms {
		n = append(n, m.Name)
	}
	sort.Strings(n)
	return strings.Join(n, ",")
}

func names(m map[string]metric) string { return strings.Join(sortedKeys(m), ",") }

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
