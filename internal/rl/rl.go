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
	// ActBatch selects actions for n observations stored row-major in
	// x (n × observation width). It writes each row's chosen action,
	// its log-probability under the current policy and the state-value
	// estimate to actions[:n], logProbs[:n] and values[:n]. Rows are
	// sampled in order, so the agent draws exactly what n one-row calls
	// would. The runner calls it from one goroutine.
	ActBatch(x []float64, n int, actions []int, logProbs, values []float64)
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
// Each step selects the actions of all running episodes with one
// ActBatch call; Step calls run concurrently, which is where the time
// goes (the fault-simulation t-test fires inside the terminal Step).
type Runner struct {
	Envs  []Env
	Agent Agent
	// Gamma and Lambda are the GAE parameters (defaults 0.99 / 0.95).
	Gamma, Lambda float64

	// Per-step scratch, reused across steps and calls: each env's
	// rollout state and the goroutine body that steps it, the running
	// envs in index order, and their rows of the ActBatch call.
	envs    []envRollout
	step    []func()
	stepped sync.WaitGroup
	active  []int
	x       []float64
	actions []int
	logps   []float64
	values  []float64
}

// envRollout is one env's part of a CollectEpisodes call.
type envRollout struct {
	obs         []float64 // observation the next action is chosen from; the batch keeps it
	action      int
	logp, value float64
	next        []float64 // observation after the step, unless it ended the episode
	reward      float64
	done        bool
	ret         float64 // running episode return and length
	steps       int
	traj        Batch // this call's transitions so far
}

// NewRunner creates a runner with default GAE parameters.
func NewRunner(envs []Env, agent Agent) *Runner {
	if len(envs) == 0 {
		panic("rl: runner needs at least one env")
	}
	return &Runner{Envs: envs, Agent: agent, Gamma: 0.99, Lambda: 0.95}
}

// reserve sizes the per-env scratch to r.Envs and empties each env's
// trajectory.
func (r *Runner) reserve() {
	n := len(r.Envs)
	if len(r.step) != n {
		r.envs = make([]envRollout, n)
		r.step = make([]func(), n)
		for i := range r.step {
			r.step[i] = func() { r.stepEnv(i) }
		}
		r.active = make([]int, 0, n)
		r.actions = make([]int, n)
		r.logps = make([]float64, n)
		r.values = make([]float64, n)
	}
	for i := range r.envs {
		t := &r.envs[i].traj
		t.Obs, t.Actions, t.LogProbs = t.Obs[:0], t.Actions[:0], t.LogProbs[:0]
		t.Rewards, t.Values, t.Dones = t.Rewards[:0], t.Values[:0], t.Dones[:0]
	}
}

// stepEnv applies env i's chosen action; it runs on a goroutine of its
// own. Observations are owned by envs and may be reused, so the one the
// next step acts on is copied.
func (r *Runner) stepEnv(i int) {
	defer r.stepped.Done()
	e := &r.envs[i]
	o, rew, done := r.Envs[i].Step(e.action)
	e.reward, e.done = rew, done
	if !done {
		e.next = append([]float64(nil), o...)
	}
}

// CollectEpisodes runs exactly episodesPerEnv full episodes in every env
// and returns the batch (with GAE computed) plus per-episode summaries,
// both in env order. Apart from the observation copies the batch keeps,
// it allocates only the returned slices once its scratch has grown.
func (r *Runner) CollectEpisodes(episodesPerEnv int) (*Batch, []EpisodeResult, error) {
	if episodesPerEnv < 1 {
		return nil, nil, fmt.Errorf("rl: episodesPerEnv must be >= 1")
	}
	nEnvs := len(r.Envs)
	r.reserve()
	episodes := make([]EpisodeResult, nEnvs*episodesPerEnv)
	for ep := 0; ep < episodesPerEnv; ep++ {
		w := 0
		for i, env := range r.Envs {
			o := env.Reset()
			if i == 0 {
				w = len(o)
			} else if len(o) != w {
				panic(fmt.Sprintf("rl: env %d observation has width %d, env 0 has %d", i, len(o), w))
			}
			e := &r.envs[i]
			e.obs = append([]float64(nil), o...)
			e.ret, e.steps = 0, 0
		}
		if len(r.x) < nEnvs*w {
			r.x = make([]float64, nEnvs*w)
		}
		active := r.active[:0]
		for i := range r.Envs {
			active = append(active, i)
		}
		for len(active) > 0 {
			n := len(active)
			x := r.x[:n*w]
			for row, i := range active {
				copy(x[row*w:(row+1)*w], r.envs[i].obs)
			}
			r.Agent.ActBatch(x, n, r.actions[:n], r.logps[:n], r.values[:n])
			r.stepped.Add(n)
			for row, i := range active {
				e := &r.envs[i]
				e.action, e.logp, e.value = r.actions[row], r.logps[row], r.values[row]
				go r.step[i]()
			}
			r.stepped.Wait()
			running := active[:0]
			for _, i := range active {
				e := &r.envs[i]
				t := &e.traj
				t.Obs = append(t.Obs, e.obs)
				t.Actions = append(t.Actions, e.action)
				t.LogProbs = append(t.LogProbs, e.logp)
				t.Rewards = append(t.Rewards, e.reward)
				t.Values = append(t.Values, e.value)
				t.Dones = append(t.Dones, e.done)
				e.ret += e.reward
				e.steps++
				if e.done {
					episodes[i*episodesPerEnv+ep] = EpisodeResult{EnvIndex: i, Return: e.ret, Steps: e.steps}
					continue
				}
				e.obs, e.next = e.next, nil
				running = append(running, i)
			}
			active = running
		}
	}

	// Concatenate per-env trajectories (episodes stay contiguous, which
	// ComputeGAE requires), then drop their references to the
	// observations.
	total := 0
	for i := range r.envs {
		total += r.envs[i].traj.Len()
	}
	out := &Batch{
		Obs:      make([][]float64, 0, total),
		Actions:  make([]int, 0, total),
		LogProbs: make([]float64, 0, total),
		Rewards:  make([]float64, 0, total),
		Values:   make([]float64, 0, total),
		Dones:    make([]bool, 0, total),
	}
	for i := range r.envs {
		e := &r.envs[i]
		t := &e.traj
		out.Obs = append(out.Obs, t.Obs...)
		out.Actions = append(out.Actions, t.Actions...)
		out.LogProbs = append(out.LogProbs, t.LogProbs...)
		out.Rewards = append(out.Rewards, t.Rewards...)
		out.Values = append(out.Values, t.Values...)
		out.Dones = append(out.Dones, t.Dones...)
		clear(t.Obs)
		e.obs = nil
	}
	out.ComputeGAE(r.Gamma, r.Lambda)
	return out, episodes, nil
}

// ShuffleInto fills the caller-owned idx with a permutation of the batch
// indices 0..len(idx)-1 drawn from rng (exactly rng.Perm's draws), for
// minibatch sampling.
func ShuffleInto(idx []int, rng *prng.Source) {
	rng.Perm(idx)
}
