// Package rl provides the reinforcement-learning plumbing shared by the
// PPO and REINFORCE agents: the environment interface, parallel rollout
// collection over vectorized environments (the Go analogue of
// Stable-Baselines3's vectorized environments that the paper credits with
// large training-time reductions), and generalized advantage estimation.
package rl

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/prng"
)

// Env is an episodic environment with a discrete action space. Envs are
// stepped by a single goroutine each but different envs run concurrently,
// so implementations must not share mutable state.
type Env interface {
	// Reset starts a new episode and returns the initial observation.
	// The returned slice may be reused by the env across steps.
	Reset() []float64
	// Step applies an action and returns the next observation, the
	// reward, and whether the episode ended.
	Step(action int) (obs []float64, reward float64, done bool)
	// ObsSize returns the observation width.
	ObsSize() int
	// NumActions returns the size of the discrete action space.
	NumActions() int
}

// Agent selects actions and learns from collected batches.
type Agent interface {
	// Act returns the chosen action, its log-probability under the
	// current policy, and the state-value estimate. Act must be safe to
	// call repeatedly from one goroutine (the runner serializes calls).
	Act(obs []float64) (action int, logProb, value float64)
	// Update performs one learning step on a rollout batch.
	Update(b *Batch) UpdateStats
}

// UpdateStats reports diagnostics from one Update call.
type UpdateStats struct {
	PolicyLoss float64
	ValueLoss  float64
	Entropy    float64
	ClipFrac   float64
	GradNorm   float64
}

// Batch is a flattened rollout across environments. All slices share
// indexing; episodes are delimited by Dones.
type Batch struct {
	Obs        [][]float64
	Actions    []int
	LogProbs   []float64
	Rewards    []float64
	Values     []float64
	Dones      []bool
	Advantages []float64
	Returns    []float64
}

// Len returns the number of transitions.
func (b *Batch) Len() int { return len(b.Actions) }

// EpisodeResult summarizes one finished episode.
type EpisodeResult struct {
	EnvIndex int
	Return   float64 // sum of rewards
	Steps    int
}

// ComputeGAE fills Advantages and Returns using generalized advantage
// estimation with discount gamma and smoothing lambda. The batch must
// consist of whole episodes (every trajectory ends with done), so the
// bootstrap value after a terminal step is zero.
func (b *Batch) ComputeGAE(gamma, lambda float64) {
	n := b.Len()
	b.Advantages = make([]float64, n)
	b.Returns = make([]float64, n)
	var adv, nextValue float64
	for i := n - 1; i >= 0; i-- {
		if b.Dones[i] {
			adv = 0
			nextValue = 0
		}
		delta := b.Rewards[i] + gamma*nextValue - b.Values[i]
		adv = delta + gamma*lambda*adv
		b.Advantages[i] = adv
		b.Returns[i] = adv + b.Values[i]
		nextValue = b.Values[i]
	}
}

// NormalizeAdvantages standardizes the advantage vector to zero mean and
// unit variance. PPO relies on this to cope with the paper's exponential
// reward scale (e^n spans many orders of magnitude).
func (b *Batch) NormalizeAdvantages() {
	n := len(b.Advantages)
	if n == 0 {
		return
	}
	var mean float64
	for _, a := range b.Advantages {
		mean += a
	}
	mean /= float64(n)
	var varSum float64
	for _, a := range b.Advantages {
		d := a - mean
		varSum += d * d
	}
	std := 1e-8
	if n > 1 {
		std += sqrt(varSum / float64(n))
	}
	for i := range b.Advantages {
		b.Advantages[i] = (b.Advantages[i] - mean) / std
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Runner collects rollouts from a set of environments in parallel.
// Action selection is serialized through the shared agent; Step calls run
// concurrently, which is where the time goes (the fault-simulation t-test
// fires inside the terminal Step).
type Runner struct {
	Envs  []Env
	Agent Agent
	// Gamma and Lambda are the GAE parameters (defaults 0.99 / 0.95).
	Gamma, Lambda float64
}

// NewRunner creates a runner with default GAE parameters.
func NewRunner(envs []Env, agent Agent) *Runner {
	if len(envs) == 0 {
		panic("rl: runner needs at least one env")
	}
	return &Runner{Envs: envs, Agent: agent, Gamma: 0.99, Lambda: 0.95}
}

// CollectEpisodes runs exactly episodesPerEnv full episodes in every env
// and returns the batch (with GAE computed) plus per-episode summaries.
func (r *Runner) CollectEpisodes(episodesPerEnv int) (*Batch, []EpisodeResult, error) {
	if episodesPerEnv < 1 {
		return nil, nil, fmt.Errorf("rl: episodesPerEnv must be >= 1")
	}
	nEnvs := len(r.Envs)
	type envTraj struct {
		batch    Batch
		episodes []EpisodeResult
	}
	trajs := make([]envTraj, nEnvs)

	// Observations are owned by envs and may be reused, so copy them.
	copyObs := func(o []float64) []float64 {
		c := make([]float64, len(o))
		copy(c, o)
		return c
	}

	for ep := 0; ep < episodesPerEnv; ep++ {
		// Reset all envs, get initial observations.
		obs := make([][]float64, nEnvs)
		done := make([]bool, nEnvs)
		retSum := make([]float64, nEnvs)
		steps := make([]int, nEnvs)
		for i, e := range r.Envs {
			obs[i] = copyObs(e.Reset())
		}
		active := nEnvs
		for active > 0 {
			// Serial action selection (the agent shares scratch state).
			actions := make([]int, nEnvs)
			logps := make([]float64, nEnvs)
			values := make([]float64, nEnvs)
			for i := range r.Envs {
				if done[i] {
					continue
				}
				actions[i], logps[i], values[i] = r.Agent.Act(obs[i])
			}
			// Parallel env stepping.
			var wg sync.WaitGroup
			nextObs := make([][]float64, nEnvs)
			rewards := make([]float64, nEnvs)
			finished := make([]bool, nEnvs)
			for i := range r.Envs {
				if done[i] {
					continue
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					o, rew, d := r.Envs[i].Step(actions[i])
					nextObs[i] = copyObs(o)
					rewards[i] = rew
					finished[i] = d
				}(i)
			}
			wg.Wait()
			for i := range r.Envs {
				if done[i] {
					continue
				}
				t := &trajs[i]
				t.batch.Obs = append(t.batch.Obs, obs[i])
				t.batch.Actions = append(t.batch.Actions, actions[i])
				t.batch.LogProbs = append(t.batch.LogProbs, logps[i])
				t.batch.Rewards = append(t.batch.Rewards, rewards[i])
				t.batch.Values = append(t.batch.Values, values[i])
				t.batch.Dones = append(t.batch.Dones, finished[i])
				retSum[i] += rewards[i]
				steps[i]++
				obs[i] = nextObs[i]
				if finished[i] {
					done[i] = true
					active--
					t.episodes = append(t.episodes, EpisodeResult{
						EnvIndex: i, Return: retSum[i], Steps: steps[i],
					})
				}
			}
		}
	}

	// Concatenate per-env trajectories (episodes stay contiguous, which
	// ComputeGAE requires).
	var out Batch
	var episodes []EpisodeResult
	for i := range trajs {
		t := &trajs[i]
		out.Obs = append(out.Obs, t.batch.Obs...)
		out.Actions = append(out.Actions, t.batch.Actions...)
		out.LogProbs = append(out.LogProbs, t.batch.LogProbs...)
		out.Rewards = append(out.Rewards, t.batch.Rewards...)
		out.Values = append(out.Values, t.batch.Values...)
		out.Dones = append(out.Dones, t.batch.Dones...)
		episodes = append(episodes, t.episodes...)
	}
	out.ComputeGAE(r.Gamma, r.Lambda)
	return &out, episodes, nil
}

// ShuffleInto fills the caller-owned idx with a permutation of the batch
// indices 0..len(idx)-1 drawn from rng (exactly rng.Perm's draws), for
// minibatch sampling.
func ShuffleInto(idx []int, rng *prng.Source) {
	rng.Perm(idx)
}
