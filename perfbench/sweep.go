package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"

	explorefault "repro"
)

// goldenAtlases mirror the checked-in reference atlases of
// internal/sweep/testdata (see golden_test.go there): the jobs workload
// reruns them and requires byte-identical output.
var goldenAtlases = map[string]explorefault.SweepConfig{
	"aes128-r8.atlas.json": {Cipher: "aes128", Rounds: []int{8}, Samples: 128, Seed: 7},
	"gift64-r25.atlas.json": {Cipher: "gift64", Rounds: []int{25}, Samples: 128, Seed: 7,
		Models: []explorefault.FaultModel{explorefault.XorFlip, explorefault.StuckAtZero}},
	"speck64-r24.atlas.json": {Cipher: "speck64", Rounds: []int{24}, Samples: 128, Seed: 7},
}

// goldenPath is the checked-in atlas of a golden configuration.
func goldenPath(root, name string) string {
	return filepath.Join(root, "internal", "sweep", "testdata", name)
}

// verifyGoldens reruns the golden configurations and requires each atlas
// to be byte-identical to its checked-in file.
func verifyGoldens(ctx context.Context, root string, c *checks) {
	for name, cfg := range goldenAtlases {
		want, err := os.ReadFile(goldenPath(root, name))
		if err != nil {
			c.op(false, "golden %s: %v", name, err)
			continue
		}
		atlas, err := explorefault.Sweep(ctx, cfg)
		if err != nil {
			c.op(false, "golden %s: %v", name, err)
			continue
		}
		data, err := atlas.MarshalCanonical()
		c.op(err == nil && bytes.Equal(data, want), "golden %s: rerun differs from internal/sweep/testdata", name)
	}
}

// sweepMetrics fills the sweep engine's counters and the evaluation
// engine's beneath it.
func sweepMetrics(p *phase, m map[string]float64) {
	m["sweep.cells"] = float64(p.snap.Counters["sweep.cells_total"])
	m["sweep.shard_s"] = p.snap.Histograms["sweep.shard_seconds"].Sum
	engineMetrics(p, m)
}
