package ppo

import (
	"math"
	"testing"

	"repro/internal/prng"
	"repro/internal/rl"
)

// bitEnv is a fault-pattern-like env whose episodes vary in length, so
// the set of running envs shrinks within a rollout step: each action
// sets its bit of the observation, and the episode ends when an action
// repeats a set bit or after maxSteps steps, rewarded e^bits.
type bitEnv struct {
	obs             []float64
	steps, maxSteps int
}

func newBitEnv(bits, maxSteps int) *bitEnv {
	return &bitEnv{obs: make([]float64, bits), maxSteps: maxSteps}
}

func (e *bitEnv) Reset() []float64 {
	clear(e.obs)
	e.steps = 0
	return e.obs
}

func (e *bitEnv) Step(a int) ([]float64, float64, bool) {
	e.steps++
	repeat := e.obs[a] == 1
	e.obs[a] = 1
	if !repeat && e.steps < e.maxSteps {
		return e.obs, 0, false
	}
	bits := 0.0
	for _, v := range e.obs {
		bits += v
	}
	return e.obs, math.Exp(bits), true
}

func (e *bitEnv) ObsSize() int    { return len(e.obs) }
func (e *bitEnv) NumActions() int { return len(e.obs) }

// collectPerEnvAct is the rollout CollectEpisodes replaced: one Act call
// per running env and step, in env order, and the same batch layout.
func collectPerEnvAct(envs []rl.Env, a *Agent, episodesPerEnv int, gamma, lambda float64) (*rl.Batch, []rl.EpisodeResult) {
	trajs := make([]rl.Batch, len(envs))
	eps := make([][]rl.EpisodeResult, len(envs))
	for ep := 0; ep < episodesPerEnv; ep++ {
		obs := make([][]float64, len(envs))
		done := make([]bool, len(envs))
		ret := make([]float64, len(envs))
		steps := make([]int, len(envs))
		for i, e := range envs {
			obs[i] = append([]float64(nil), e.Reset()...)
		}
		for active := len(envs); active > 0; {
			for i, e := range envs {
				if done[i] {
					continue
				}
				action, logp, value := a.Act(obs[i])
				o, reward, d := e.Step(action)
				t := &trajs[i]
				t.Obs = append(t.Obs, obs[i])
				t.Actions = append(t.Actions, action)
				t.LogProbs = append(t.LogProbs, logp)
				t.Rewards = append(t.Rewards, reward)
				t.Values = append(t.Values, value)
				t.Dones = append(t.Dones, d)
				ret[i] += reward
				steps[i]++
				obs[i] = append([]float64(nil), o...)
				if d {
					done[i] = true
					active--
					eps[i] = append(eps[i], rl.EpisodeResult{EnvIndex: i, Return: ret[i], Steps: steps[i]})
				}
			}
		}
	}
	out := &rl.Batch{}
	var episodes []rl.EpisodeResult
	for i := range trajs {
		t := &trajs[i]
		out.Obs = append(out.Obs, t.Obs...)
		out.Actions = append(out.Actions, t.Actions...)
		out.LogProbs = append(out.LogProbs, t.LogProbs...)
		out.Rewards = append(out.Rewards, t.Rewards...)
		out.Values = append(out.Values, t.Values...)
		out.Dones = append(out.Dones, t.Dones...)
		episodes = append(episodes, eps[i]...)
	}
	out.ComputeGAE(gamma, lambda)
	return out, episodes
}

// sameBatch reports the first field in which two batches differ, every
// float compared by its bits, or "".
func sameBatch(a, b *rl.Batch) string {
	floats := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if len(a.Obs) != len(b.Obs) {
		return "Obs length"
	}
	for i := range a.Obs {
		if !floats(a.Obs[i], b.Obs[i]) {
			return "Obs"
		}
	}
	if len(a.Actions) != len(b.Actions) || len(a.Dones) != len(b.Dones) {
		return "Actions or Dones length"
	}
	for i := range a.Actions {
		if a.Actions[i] != b.Actions[i] {
			return "Actions"
		}
		if a.Dones[i] != b.Dones[i] {
			return "Dones"
		}
	}
	for name, f := range map[string][2][]float64{
		"LogProbs": {a.LogProbs, b.LogProbs}, "Rewards": {a.Rewards, b.Rewards},
		"Values": {a.Values, b.Values}, "Advantages": {a.Advantages, b.Advantages},
		"Returns": {a.Returns, b.Returns},
	} {
		if !floats(f[0], f[1]) {
			return name
		}
	}
	return ""
}

// TestCollectEpisodesMatchesPerEnvAct: the runner's one ActBatch call
// per step gives the batches and episode results that one Act call per
// env gives, byte for byte, across updates and for the env prefix that
// a discovery session's final partial batch runs on.
func TestCollectEpisodesMatchesPerEnvAct(t *testing.T) {
	const nEnvs, bits, maxSteps = 8, 64, 24
	newEnvs := func() []rl.Env {
		envs := make([]rl.Env, nEnvs)
		for i := range envs {
			envs[i] = newBitEnv(bits, maxSteps)
		}
		return envs
	}
	batched, perEnv := newEnvs(), newEnvs()
	aBatched := New(bits, bits, discoveryConfig(), prng.New(21))
	aPerEnv := New(bits, bits, discoveryConfig(), prng.New(21))
	full := rl.NewRunner(batched, aBatched)
	prefix := rl.NewRunner(batched[:3], aBatched)
	for round := 0; round < 4; round++ {
		runner, envs, k := full, perEnv, 1+round%2
		if round == 3 {
			runner, envs = prefix, perEnv[:3]
		}
		got, gotEps, err := runner.CollectEpisodes(k)
		if err != nil {
			t.Fatal(err)
		}
		want, wantEps := collectPerEnvAct(envs, aPerEnv, k, runner.Gamma, runner.Lambda)
		if f := sameBatch(got, want); f != "" {
			t.Fatalf("round %d (%d envs, %d episodes each): batch %s differs from the per-env Act rollout",
				round, len(envs), k, f)
		}
		if len(gotEps) != len(wantEps) {
			t.Fatalf("round %d: %d episode results, want %d", round, len(gotEps), len(wantEps))
		}
		for i := range gotEps {
			if gotEps[i] != wantEps[i] {
				t.Fatalf("round %d: episode %d = %+v, want %+v", round, i, gotEps[i], wantEps[i])
			}
		}
		aBatched.Update(got)
		aPerEnv.Update(want)
	}
}
