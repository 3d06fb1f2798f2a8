package reinforce

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/prng"
	"repro/internal/rl"
)

// ablationConfig is the agent configuration of the PPO-vs-REINFORCE
// ablation on gift64 (64 observation bits, 64 actions).
func ablationConfig() Config {
	return Config{LearningRate: 1e-3, EntropyCoef: 1e-3}
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

// digest hashes the agent's network weights, Adam moments and step
// counts, PRNG position and a sequence of update statistics, every float
// by its IEEE-754 bits.
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
	tensors(nn.ParamValues(a.policy.Params()))
	tensors(nn.ParamValues(a.value.Params()))
	for _, o := range []nn.AdamState{a.pOpt.State(), a.vOpt.State()} {
		put(float64(o.T))
		tensors(o.M)
		tensors(o.V)
	}
	for _, w := range a.rng.State().Words {
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
// the minibatch kernels: ten updates on 8 × 64-step rollouts must keep
// producing exactly these weights, moments and statistics.
const goldenDigest = "8e2aa567d7236074c20443908ae782ffabb127658848539b9e9f1c47a69d793d"

func TestUpdateGoldenDigest(t *testing.T) {
	a := New(64, 64, ablationConfig(), prng.New(21))
	data := prng.New(22)
	var stats []rl.UpdateStats
	for u := 0; u < goldenUpdates; u++ {
		stats = append(stats, a.Update(rollout(a, data, 8, 64, 64)))
	}
	if got := digest(a, stats); got != goldenDigest {
		t.Errorf("digest after %d updates = %s, want %s", goldenUpdates, got, goldenDigest)
	}
}

// TestUpdateMatchesPerSampleReference trains two identical agents on
// identical rollouts, one with Update and one with the per-sample
// reference, and requires their digests to agree after every update.
func TestUpdateMatchesPerSampleReference(t *testing.T) {
	// Apart from the full ablation shape, the cases use narrower
	// networks to keep -short (and -race) runs quick.
	narrow := Config{Hidden: []int{24, 24}, LearningRate: 1e-3, EntropyCoef: 1e-3}
	relu := narrow
	relu.Activation = nn.ReLU
	cases := []struct {
		name         string
		obs, actions int
		cfg          Config
		envs, steps  int
		long         bool
	}{
		{"ablation", 64, 64, ablationConfig(), 8, 64, true},
		{"ragged-batch", 32, 32, narrow, 3, 23, false},
		{"odd-hidden", 13, 11, Config{Hidden: []int{7, 5}, LearningRate: 3e-3}, 5, 19, false},
		{"relu", 32, 32, relu, 2, 37, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("full ablation-shape comparison skipped in -short mode")
			}
			batched := New(c.obs, c.actions, c.cfg, prng.New(31))
			ref := New(c.obs, c.actions, c.cfg, prng.New(31))
			dataB, dataR := prng.New(32), prng.New(32)
			var sb, sr []rl.UpdateStats
			for u := 0; u < 10; u++ {
				sb = append(sb, batched.Update(rollout(batched, dataB, c.envs, c.steps, c.obs)))
				sr = append(sr, refUpdate(ref, rollout(ref, dataR, c.envs, c.steps, c.obs)))
				if digest(batched, sb) != digest(ref, sr) {
					t.Fatalf("update %d: batched and per-sample learners differ", u)
				}
			}
		})
	}
}
