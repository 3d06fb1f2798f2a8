package explorefault_test

import (
	"runtime"
	"testing"

	explorefault "repro"
)

// TestDiscoverIndependentOfGOMAXPROCS: a seeded discovery is the same
// whether the PPO update's policy and value halves (and the campaign
// workers) run at the same time or take turns on one processor.
func TestDiscoverIndependentOfGOMAXPROCS(t *testing.T) {
	cfg := explorefault.DiscoverConfig{
		Cipher:      "gift64",
		Round:       25,
		Episodes:    24,
		NumEnvs:     4,
		Samples:     128,
		Seed:        7,
		SkipHarvest: true,
	}
	run := func() string {
		res, err := explorefault.Discover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return discoverFingerprint(res)
	}
	parallel := run()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if serial := run(); serial != parallel {
		t.Errorf("GOMAXPROCS(1) outcome differs from default:\n got %s\nwant %s", serial, parallel)
	}
}
