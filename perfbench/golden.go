package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sample"
	"repro/internal/service"
)

// goldenJSON holds a digest of every simulated result the engines
// workload can produce: each direct-mapped Fig. 6 point run exact, each
// point sampled under each of the eight jitter seeds, and the screening
// pass, for the full and the self-test recording. Refresh it with
// --write-golden only in a benchmark change after a CodeVersion bump; a
// speed-only change must leave every digest as it is.
//
//go:embed golden.json
var goldenJSON []byte

type goldenSet struct {
	CodeVersion string            `json:"code_version"`
	Digests     map[string]string `json:"digests"`
}

func loadGolden() (*goldenSet, error) {
	var g goldenSet
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// check compares one digest with the golden file.
func (g *goldenSet) check(key, got string) error {
	if g.CodeVersion != service.CodeVersion {
		return fmt.Errorf("golden digests were recorded for %s, the code is %s", g.CodeVersion, service.CodeVersion)
	}
	want, ok := g.Digests[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no golden digest", key)
	case want != got:
		return fmt.Errorf("%s: stats digest %s, golden %s", key, got, want)
	}
	return nil
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

func statsDigest(st core.Stats) string { return digest(fmt.Sprintf("%+v", st)) }

func sampledDigest(r sample.Result) string {
	return digest(fmt.Sprintf("%d|%d|%d|%+v", r.Intervals, r.MeasuredInstructions, r.TotalInstructions, r.Measured))
}

func screeningDigest(fs *experiments.FastSweepResult) string {
	return digest(fmt.Sprintf("%d|%+v|%+v", fs.Res.Instructions, fs.Res.Filter, fs.Grid))
}

// writeGolden recomputes every digest the engines workload checks.
func writeGolden(path string, log io.Writer) error {
	g := goldenSet{CodeVersion: service.CodeVersion, Digests: map[string]string{}}
	for _, sp := range []enginesSpec{enginesTiny, enginesFull} {
		rec, _, _ := engineSetup(sp, 1)
		for _, pt := range fig6Points() {
			cfg, err := experiments.BuildConfig(pt.spec)
			if err != nil {
				return err
			}
			res, err := exactRun(sp, cfg, rec)
			if err != nil {
				return err
			}
			g.Digests[sp.label()+"/exact/"+pt.label] = statsDigest(res.Stats)
			for j := uint64(1); j <= 8; j++ {
				r, err := sampledRun(sp, cfg, rec, j)
				if err != nil {
					return err
				}
				g.Digests[fmt.Sprintf("%s/sampled/%s/j%d", sp.label(), pt.label, j)] = sampledDigest(r)
			}
			fmt.Fprintf(log, "golden: %s %s\n", sp.label(), pt.label)
		}
		fs, err := screen(sp)
		if err != nil {
			return err
		}
		g.Digests[sp.label()+"/screening"] = screeningDigest(fs)
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
