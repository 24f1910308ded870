package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchRun is one perfbench result: the JSON object perfbench prints as the
// last line of its standard output.
type benchRun struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// readRuns loads a file of perfbench result lines, one run per line.
func readRuns(path string) ([]benchRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("reading runs: %w", err)
	}
	defer f.Close()
	var runs []benchRun
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var r benchRun
		if err := json.Unmarshal([]byte(text), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: not a perfbench result line: %w", path, line, err)
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return runs, nil
}

// compareRuns summarizes an interleaved A/B of perfbench runs: line i
// of each file is pair i, run on the same seed. For every metric it
// prints each side's median, quartiles and range, the change of the
// median, and in how many pairs the head run read lower than its base
// run. It fails when a run on either side reports an incorrect result
// (a golden digest mismatch or a failed check).
func compareRuns(basePath, headPath string, w io.Writer) error {
	base, err := readRuns(basePath)
	if err != nil {
		return err
	}
	head, err := readRuns(headPath)
	if err != nil {
		return err
	}
	pairs := min(len(base), len(head))
	if pairs == 0 {
		return fmt.Errorf("no complete pairs (base %d runs, head %d runs)", len(base), len(head))
	}
	base, head = base[:pairs], head[:pairs]
	units := map[string]string{}
	for _, side := range [][]benchRun{base, head} {
		for _, r := range side {
			for name, m := range r.Metrics {
				units[name] = m.Unit
			}
		}
	}
	sorted := make([]string, 0, len(units))
	for name := range units {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)

	fmt.Fprintf(w, "%d pairs; each side: median [q1-q3] (min-max)\n", pairs)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tbase\thead\tmedian\thead lower")
	for _, name := range sorted {
		bv, hv := values(base, name), values(head, name)
		lower := 0
		for i := range bv {
			if hv[i] < bv[i] {
				lower++
			}
		}
		delta := "n/a"
		if mb := quantile(bv, 0.5); mb != 0 {
			delta = fmt.Sprintf("%+.1f%%", (quantile(hv, 0.5)-mb)/mb*100)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d/%d\n", name, units[name], spread(bv), spread(hv), delta, lower, pairs)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	bad := 0
	for i := range base {
		if !base[i].Correct {
			bad++
		}
		if !head[i].Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d runs reported an incorrect result", bad, 2*pairs)
	}
	fmt.Fprintln(w, "every run correct")
	return nil
}

// values returns metric name from each run (zero where a run lacks it).
func values(runs []benchRun, name string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.Metrics[name].Value
	}
	return v
}

// spread formats a sample's median, quartiles and range.
func spread(v []float64) string {
	return fmt.Sprintf("%.4g [%.4g-%.4g] (%.4g-%.4g)",
		quantile(v, 0.5), quantile(v, 0.25), quantile(v, 0.75), quantile(v, 0), quantile(v, 1))
}

// quantile returns the p-quantile of v, interpolating linearly between
// order statistics.
func quantile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}
