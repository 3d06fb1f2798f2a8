package ppo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/prng"
	"repro/internal/rl"
)

// discoveryConfig is the agent configuration Discover uses on gift64
// round 25 (64 observation bits, 64 actions, 64-step episodes).
func discoveryConfig() Config {
	return Config{
		LearningRate:     1e-3,
		Epochs:           4,
		EntropyCoef:      1e-3,
		ExplorationFloor: 1.0 / 64,
		BootstrapSpike:   8,
	}
}

// rollout collects envs × steps transitions of a fault-pattern-like MDP
// with the agent: observations are 0/1 vectors with the bit of every
// action taken so far set, and each episode ends with the penalty or an
// exponential reward.
func rollout(a *Agent, rng *prng.Source, envs, steps, obsSize int) *rl.Batch {
	b := &rl.Batch{}
	for e := 0; e < envs; e++ {
		obs := make([]float64, obsSize)
		for t := 0; t < steps; t++ {
			o := append([]float64(nil), obs...)
			act, logp, v := a.Act(o)
			obs[act%obsSize] = 1
			done := t == steps-1
			reward := 0.0
			if done {
				reward = -50
				if rng.Intn(2) == 0 {
					reward = math.Exp(float64(1 + rng.Intn(5)))
				}
			}
			b.Obs = append(b.Obs, o)
			b.Actions = append(b.Actions, act)
			b.LogProbs = append(b.LogProbs, logp)
			b.Rewards = append(b.Rewards, reward)
			b.Values = append(b.Values, v)
			b.Dones = append(b.Dones, done)
		}
	}
	b.ComputeGAE(1.0, 0.95)
	return b
}

// digest hashes the agent's full training state (network weights, Adam
// moments and step counts, PRNG position) and a sequence of update
// statistics, every float by its IEEE-754 bits.
func digest(a *Agent, stats []rl.UpdateStats) string {
	h := sha256.New()
	put := func(x float64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	tensors := func(ts [][]float64) {
		for _, t := range ts {
			for _, x := range t {
				put(x)
			}
		}
	}
	st := a.State()
	tensors(st.Policy)
	tensors(st.Value)
	for _, o := range []nn.AdamState{st.POpt, st.VOpt} {
		put(float64(o.T))
		tensors(o.M)
		tensors(o.V)
	}
	for _, w := range st.RNG.Words {
		put(math.Float64frombits(w))
	}
	for _, s := range stats {
		put(s.PolicyLoss)
		put(s.ValueLoss)
		put(s.Entropy)
		put(s.ClipFrac)
		put(s.GradNorm)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenUpdates is the number of updates the golden digest covers.
const goldenUpdates = 10

// goldenDigest was recorded with the per-sample learner that preceded
// the minibatch kernels: ten discovery-shaped updates (8 envs × 64 steps)
// must keep producing exactly these weights, moments and statistics.
const goldenDigest = "c68f792d8cb79b28de6888b410a237b78793d12b0def462cbf91c9b7da466718"

func TestUpdateGoldenDigest(t *testing.T) {
	a := New(64, 64, discoveryConfig(), prng.New(11))
	data := prng.New(12)
	var stats []rl.UpdateStats
	for u := 0; u < goldenUpdates; u++ {
		stats = append(stats, a.Update(rollout(a, data, 8, 64, 64)))
	}
	if got := digest(a, stats); got != goldenDigest {
		t.Errorf("digest after %d updates = %s, want %s", goldenUpdates, got, goldenDigest)
	}
}

// firstDiff names the first tensor element (or statistic) whose bits
// differ between two agents' states, or returns "" if none does.
func firstDiff(a, b *Agent, sa, sb rl.UpdateStats) string {
	x, y := a.State(), b.State()
	cmp := func(name string, p, q [][]float64) string {
		for t := range p {
			for i := range p[t] {
				if math.Float64bits(p[t][i]) != math.Float64bits(q[t][i]) {
					return fmt.Sprintf("%s[%d][%d]: %v vs %v", name, t, i, p[t][i], q[t][i])
				}
			}
		}
		return ""
	}
	for _, c := range []struct {
		name string
		p, q [][]float64
	}{
		{"policy", x.Policy, y.Policy},
		{"value", x.Value, y.Value},
		{"policy adam m", x.POpt.M, y.POpt.M},
		{"policy adam v", x.POpt.V, y.POpt.V},
		{"value adam m", x.VOpt.M, y.VOpt.M},
		{"value adam v", x.VOpt.V, y.VOpt.V},
	} {
		if d := cmp(c.name, c.p, c.q); d != "" {
			return d
		}
	}
	if x.POpt.T != y.POpt.T || x.VOpt.T != y.VOpt.T || x.RNG != y.RNG {
		return "optimizer step count or PRNG position"
	}
	if d := cmp("stats", [][]float64{{sa.PolicyLoss, sa.ValueLoss, sa.Entropy, sa.ClipFrac, sa.GradNorm}},
		[][]float64{{sb.PolicyLoss, sb.ValueLoss, sb.Entropy, sb.ClipFrac, sb.GradNorm}}); d != "" {
		return d
	}
	return ""
}

// TestUpdateMatchesPerSampleReference trains two identical agents on
// identical rollouts, one with Update and one with the per-sample
// reference, and requires their weights, Adam moments, PRNG positions and
// statistics to agree bit for bit after every update.
func TestUpdateMatchesPerSampleReference(t *testing.T) {
	relu := discoveryConfig()
	relu.Activation = nn.ReLU
	noFloor := discoveryConfig()
	noFloor.ExplorationFloor = 0
	ragged := discoveryConfig()
	ragged.MinibatchSize = 22
	odd := Config{Hidden: []int{7, 5}, LearningRate: 3e-3, Epochs: 3, MinibatchSize: 9}
	// Apart from the full discovery shape, the cases use narrower
	// networks to keep -short (and -race) runs quick.
	for _, c := range []*Config{&relu, &noFloor, &ragged} {
		c.Hidden = []int{24, 24}
	}
	cases := []struct {
		name         string
		obs, actions int
		cfg          Config
		envs, steps  int
		long         bool
	}{
		{"discovery", 64, 64, discoveryConfig(), 8, 64, true},
		{"ragged-batch", 32, 32, ragged, 3, 23, false},
		{"odd-hidden", 13, 11, odd, 2, 19, false},
		{"relu", 32, 32, relu, 2, 31, false},
		{"no-floor", 32, 32, noFloor, 2, 29, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("full discovery-shape comparison skipped in -short mode")
			}
			batched := New(c.obs, c.actions, c.cfg, prng.New(31))
			ref := New(c.obs, c.actions, c.cfg, prng.New(31))
			dataB, dataR := prng.New(32), prng.New(32)
			for u := 0; u < 10; u++ {
				sb := batched.Update(rollout(batched, dataB, c.envs, c.steps, c.obs))
				sr := refUpdate(ref, rollout(ref, dataR, c.envs, c.steps, c.obs))
				if d := firstDiff(batched, ref, sb, sr); d != "" {
					t.Fatalf("update %d: batched and per-sample learners differ at %s", u, d)
				}
			}
		})
	}
}

// TestUpdateAllocatesNothing: once its scratch has grown to the batch,
// an update makes no heap allocations.
func TestUpdateAllocatesNothing(t *testing.T) {
	a := New(64, 64, discoveryConfig(), prng.New(41))
	b := rollout(a, prng.New(42), 8, 64, 64)
	// AllocsPerRun's own warm-up call grows the scratch.
	if allocs := testing.AllocsPerRun(2, func() { a.Update(b) }); allocs != 0 {
		t.Errorf("Update made %v allocations per call after warm-up, want 0", allocs)
	}
}
