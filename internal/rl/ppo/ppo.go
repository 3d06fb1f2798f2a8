// Package ppo implements Proximal Policy Optimization (Schulman et al.,
// 2017) for discrete action spaces: clipped surrogate objective,
// generalized advantage estimation (provided by package rl), entropy
// bonus, value-function loss, minibatch epochs, advantage normalization
// and global gradient clipping. This is the algorithm the paper runs via
// Stable-Baselines3; defaults below mirror SB3's MlpPolicy defaults.
package ppo

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/nn"
	"repro/internal/obs/trace"
	"repro/internal/prng"
	"repro/internal/rl"
)

// Config holds PPO hyperparameters. Zero values select defaults.
type Config struct {
	// Hidden sizes of both the policy and value networks (default
	// [64, 64], SB3's MlpPolicy).
	Hidden []int
	// LearningRate for Adam (default 3e-4).
	LearningRate float64
	// ClipRange epsilon of the surrogate objective (default 0.2).
	ClipRange float64
	// Epochs over each rollout batch (default 10).
	Epochs int
	// MinibatchSize (default 64).
	MinibatchSize int
	// EntropyCoef weights the entropy bonus (default 0.01; exploration
	// matters in the fault-pattern MDP because rewards are sparse).
	EntropyCoef float64
	// ValueCoef weights the value loss (default 0.5).
	ValueCoef float64
	// MaxGradNorm clips the global gradient norm (default 0.5).
	MaxGradNorm float64
	// Activation for hidden layers (default tanh, as in SB3).
	Activation nn.Activation
	// ExplorationFloor mixes an ε-uniform distribution into the policy:
	// π = (1-ε)·softmax(logits) + ε/K. Sampling, log-probabilities,
	// ratios and gradients all use the mixture exactly, so PPO remains
	// on-policy. A floor of ~1/T keeps roughly one exploratory "stray"
	// action per T-step episode alive even after the policy has
	// sharpened, which is what lets the fault pattern keep growing
	// (each accepted stray multiplies the terminal reward by e).
	// Zero disables the floor.
	ExplorationFloor float64
	// BootstrapSpike, when non-zero, adds a logit spike of this size to
	// one uniformly-chosen action via the policy head's bias, making the
	// initial policy peaked instead of uniform. In the fault-pattern MDP
	// a peaked policy repeats its preferred bit (repeats are no-ops), so
	// early episodes are single-bit patterns — the paper's Fig. 4 shows
	// exactly this regime (~600 single-bit models in the first 1K
	// episodes), which a uniform initial policy cannot produce: uniform
	// 128-step episodes touch ~80 scattered bits and never leak, leaving
	// PPO without any reward gradient to start from.
	BootstrapSpike float64
}

func (c *Config) setDefaults() {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 64}
	}
	if c.LearningRate == 0 {
		c.LearningRate = 3e-4
	}
	if c.ClipRange == 0 {
		c.ClipRange = 0.2
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.MinibatchSize == 0 {
		c.MinibatchSize = 64
	}
	if c.EntropyCoef == 0 {
		c.EntropyCoef = 0.01
	}
	if c.ValueCoef == 0 {
		c.ValueCoef = 0.5
	}
	if c.MaxGradNorm == 0 {
		c.MaxGradNorm = 0.5
	}
}

// Agent is a PPO agent with separate policy and value networks.
type Agent struct {
	cfg    Config
	policy *nn.MLP // obs -> action logits
	value  *nn.MLP // obs -> scalar value
	pOpt   *nn.Adam
	vOpt   *nn.Adam
	rng    *prng.Source
	raw    []float64 // scratch: softmax of logits
	probs  []float64 // scratch: mixture distribution actually played
	logp   []float64 // scratch: floored log of probs

	// Update scratch: the networks' parameters and minibatch buffers
	// (which ActBatch borrows between updates), the shuffled order of
	// every epoch, and each half's minibatch observations and
	// per-sample output gradients, row-major.
	pParams, vParams []nn.Param
	pBatch, vBatch   nn.Batch
	order            []int
	pObs, vObs       []float64
	pGrad, vGrad     []float64

	// The value half's fork and join: its context and batch are set
	// before the fork, its mean loss is read after the join. valueHalf
	// is the method value a.updateValue bound at New, so starting the
	// goroutine allocates nothing.
	vCtx      context.Context
	vIn       *rl.Batch
	vLoss     float64
	valueHalf func()
	vDone     sync.WaitGroup
}

var _ rl.Agent = (*Agent)(nil)

// New creates a PPO agent for the given observation width and number of
// discrete actions.
func New(obsSize, numActions int, cfg Config, rng *prng.Source) *Agent {
	cfg.setDefaults()
	pSizes := append(append([]int{obsSize}, cfg.Hidden...), numActions)
	vSizes := append(append([]int{obsSize}, cfg.Hidden...), 1)
	a := &Agent{
		cfg:    cfg,
		policy: nn.NewMLP(pSizes, cfg.Activation, rng.Split()),
		value:  nn.NewMLP(vSizes, cfg.Activation, rng.Split()),
		rng:    rng,
		raw:    make([]float64, numActions),
		probs:  make([]float64, numActions),
		logp:   make([]float64, numActions),
	}
	// Small policy head => near-uniform initial policy (standard PPO
	// initialization), optionally sharpened by a bootstrap spike on one
	// random action (see Config.BootstrapSpike).
	a.policy.OutputLayer().ScaleWeights(0.01)
	if cfg.BootstrapSpike > 0 {
		out := a.policy.OutputLayer()
		out.B.Val[rng.Intn(numActions)] += cfg.BootstrapSpike
	}
	a.pParams = a.policy.Params()
	a.vParams = a.value.Params()
	a.pOpt = nn.NewAdam(a.pParams, cfg.LearningRate)
	a.vOpt = nn.NewAdam(a.vParams, cfg.LearningRate)
	a.pObs = make([]float64, cfg.MinibatchSize*obsSize)
	a.vObs = make([]float64, cfg.MinibatchSize*obsSize)
	a.pGrad = make([]float64, cfg.MinibatchSize*numActions)
	a.vGrad = make([]float64, cfg.MinibatchSize)
	a.valueHalf = a.updateValue
	return a
}

// State is a serializable snapshot of everything mutable in an Agent:
// network weights, optimizer moments, and the action-sampling PRNG
// position. Config and architecture are not captured — a checkpoint is
// restored into an Agent freshly constructed with the same Config, and
// Restore validates the shapes match.
type State struct {
	Policy, Value [][]float64
	POpt, VOpt    nn.AdamState
	RNG           prng.State
}

// State deep-copies the agent's mutable training state.
func (a *Agent) State() State {
	return State{
		Policy: nn.ParamValues(a.policy.Params()),
		Value:  nn.ParamValues(a.value.Params()),
		POpt:   a.pOpt.State(),
		VOpt:   a.vOpt.State(),
		RNG:    a.rng.State(),
	}
}

// Restore copies a snapshot back into the agent. The agent must have been
// built with the same observation width, action count and hidden sizes as
// the one that produced the snapshot; mismatched shapes are rejected.
func (a *Agent) Restore(st State) error {
	if err := nn.SetParamValues(a.policy.Params(), st.Policy); err != nil {
		return fmt.Errorf("ppo: policy net: %w", err)
	}
	if err := nn.SetParamValues(a.value.Params(), st.Value); err != nil {
		return fmt.Errorf("ppo: value net: %w", err)
	}
	if err := a.pOpt.Restore(st.POpt); err != nil {
		return fmt.Errorf("ppo: policy optimizer: %w", err)
	}
	if err := a.vOpt.Restore(st.VOpt); err != nil {
		return fmt.Errorf("ppo: value optimizer: %w", err)
	}
	if err := a.rng.Restore(st.RNG); err != nil {
		return fmt.Errorf("ppo: %w", err)
	}
	return nil
}

// Respike moves the bootstrap spike to a fresh uniformly-chosen action:
// its policy-head bias is raised above the current maximum by the given
// spike. Discovery sessions call this when no exploitable pattern has
// been seen for a while, i.e. the current peak sits on a dead bit and the
// constant-β reward landscape offers no gradient to escape it.
func (a *Agent) Respike(spike float64) {
	out := a.policy.OutputLayer()
	maxB := out.B.Val[0]
	for _, b := range out.B.Val {
		if b > maxB {
			maxB = b
		}
	}
	out.B.Val[a.rng.Intn(out.Out)] = maxB + spike
}

// dist fills a.raw with softmax(logits) and a.probs with the played
// mixture distribution.
func (a *Agent) dist(logits []float64) {
	nn.Softmax(logits, a.raw)
	eps := a.cfg.ExplorationFloor
	k := float64(len(a.raw))
	for j, p := range a.raw {
		a.probs[j] = (1-eps)*p + eps/k
	}
}

// Act samples one action from the categorical policy (with the
// exploration floor mixed in) and returns it with its log-probability
// and the value estimate: ActBatch's one-row case.
func (a *Agent) Act(obs []float64) (int, float64, float64) {
	var action [1]int
	var logp, value [1]float64
	a.ActBatch(obs, 1, action[:], logp[:], value[:])
	return action[0], logp[0], value[0]
}

// ActBatch implements rl.Agent: one ForwardBatch per network over the n
// rows of x, then each row's action sampled in row order, so the PRNG
// draws and every result bit are those of n Act calls (see package nn).
func (a *Agent) ActBatch(x []float64, n int, actions []int, logps, values []float64) {
	logits := a.policy.ForwardBatch(&a.pBatch, x, n)
	vs := a.value.ForwardBatch(&a.vBatch, x, n)
	k := a.policy.OutSize()
	for r := 0; r < n; r++ {
		a.dist(logits[r*k : (r+1)*k])
		action := nn.SampleCategorical(a.probs, a.rng)
		actions[r], logps[r], values[r] = action, nn.LogProb(a.probs, action), vs[r]
	}
}

// ActGreedy returns the mode of the policy (used after training to read
// out the converged fault pattern).
func (a *Agent) ActGreedy(obs []float64) int {
	logits := a.policy.Forward(obs)
	return nn.Argmax(logits)
}

// Probs returns the current action distribution for obs (copy), including
// the exploration floor.
func (a *Agent) Probs(obs []float64) []float64 {
	a.dist(a.policy.Forward(obs))
	return append([]float64(nil), a.probs...)
}

// Value returns the value estimate for obs.
func (a *Agent) Value(obs []float64) float64 {
	return a.value.Forward(obs)[0]
}

// Update implements rl.Agent: runs Epochs of minibatch SGD with the
// clipped surrogate objective on the batch. It is UpdateContext with no
// trace span to record under.
func (a *Agent) Update(b *rl.Batch) rl.UpdateStats {
	return a.UpdateContext(context.Background(), b)
}

// UpdateContext runs one update as two halves at the same time: the
// policy network's on the calling goroutine and the value network's on
// one helper goroutine, forked and joined once per call. The networks
// share no parameter, gradient or sum; the halves share only the
// read-only batch and the shuffled order of every epoch, drawn before
// the fork in the order a one-goroutine update would draw them. Each
// half keeps its per-minibatch summation order, so the result does not
// depend on the schedule or on GOMAXPROCS. Each minibatch goes through
// each network as one ForwardBatch and one BackwardBatch, which train
// exactly as its samples would one at a time (see package nn).
//
// When ctx carries a trace span, each half records a ppo_update span
// under it (attribute net: policy or value; the value half on a lane of
// its own). UpdateContext allocates nothing once its scratch has grown
// to the batch size.
func (a *Agent) UpdateContext(ctx context.Context, b *rl.Batch) rl.UpdateStats {
	// Checked before the fork: a panic on the helper goroutine could not
	// be recovered by the caller.
	obsSize := a.policy.InSize()
	for i, o := range b.Obs {
		if len(o) != obsSize {
			panic(fmt.Sprintf("ppo: observation %d has width %d, want %d", i, len(o), obsSize))
		}
	}
	b.NormalizeAdvantages()
	n := b.Len()
	if cap(a.order) < a.cfg.Epochs*n {
		a.order = make([]int, a.cfg.Epochs*n)
	}
	a.order = a.order[:a.cfg.Epochs*n]
	for epoch := 0; epoch < a.cfg.Epochs; epoch++ {
		rl.ShuffleInto(a.order[epoch*n:(epoch+1)*n], a.rng)
	}

	a.vCtx, a.vIn = ctx, b
	a.vDone.Add(1)
	go a.valueHalf()
	stats := a.updatePolicy(ctx, b)
	a.vDone.Wait()
	stats.ValueLoss = a.vLoss
	a.vCtx, a.vIn = nil, nil // do not keep the batch alive between updates
	return stats
}

// minibatches returns how many minibatches an update over n samples
// makes: MinibatchSize-sample slices of each epoch's order, the last
// one of an epoch possibly shorter.
func (a *Agent) minibatches(n int) int {
	return a.cfg.Epochs * ((n + a.cfg.MinibatchSize - 1) / a.cfg.MinibatchSize)
}

// minibatch returns the sample indices of the u-th minibatch of an
// update over n samples.
func (a *Agent) minibatch(n, u int) []int {
	per := (n + a.cfg.MinibatchSize - 1) / a.cfg.MinibatchSize
	epoch, start := u/per, (u%per)*a.cfg.MinibatchSize
	end := min(start+a.cfg.MinibatchSize, n)
	return a.order[epoch*n+start : epoch*n+end]
}

// gather copies the observations of minibatch mb into dst, row-major.
func gather(dst []float64, b *rl.Batch, mb []int, obsSize int) []float64 {
	x := dst[:len(mb)*obsSize]
	for r, i := range mb {
		copy(x[r*obsSize:], b.Obs[i])
	}
	return x
}

// updatePolicy is the policy half of an update: the clipped surrogate
// with the entropy bonus. It fills every statistic but ValueLoss.
func (a *Agent) updatePolicy(ctx context.Context, b *rl.Batch) rl.UpdateStats {
	sp, _ := trace.StartSpan(ctx, trace.SpanPPOUpdate)
	sp.SetAttr("net", "policy")
	var stats rl.UpdateStats
	n := b.Len()
	obsSize := a.policy.InSize()
	k := a.policy.OutSize()
	oneMinusEps := 1 - a.cfg.ExplorationFloor
	updates := a.minibatches(n)
	for u := 0; u < updates; u++ {
		mb := a.minibatch(n, u)
		m := len(mb)
		mbN := float64(m)
		x := gather(a.pObs, b, mb, obsSize)
		logits := a.policy.ForwardBatch(&a.pBatch, x, m)

		var policyLoss, entropy, clipped float64
		for r, i := range mb {
			act := b.Actions[i]
			adv := b.Advantages[i]
			oldLogp := b.LogProbs[i]

			// One floored log per action serves the log-probability
			// (as nn.LogProb), the entropy (as nn.Entropy, whose
			// terms lie above the floor) and the entropy gradient.
			a.dist(logits[r*k : (r+1)*k])
			var ent float64
			for j, p := range a.probs {
				lp := math.Log(math.Max(p, 1e-12))
				a.logp[j] = lp
				if p > 1e-12 {
					ent -= p * lp
				}
			}
			logp := a.logp[act]
			ratio := math.Exp(logp - oldLogp)

			// Clipped surrogate: L = -min(r*A, clip(r)*A).
			unclipped := ratio * adv
			clipRatio := clamp(ratio, 1-a.cfg.ClipRange, 1+a.cfg.ClipRange)
			clippedObj := clipRatio * adv
			useUnclipped := unclipped <= clippedObj
			if !useUnclipped {
				clipped++
			}
			policyLoss += -math.Min(unclipped, clippedObj)
			entropy += ent

			// Gradient wrt logits through the mixture
			// π_j = (1-ε)p_j + ε/K with p = softmax(logits):
			// dπ_j/dlogit_l = (1-ε)·p_j·(δ_jl - p_l), so
			// dlogπ_a/dlogit_l = (1-ε)·p_a·(δ_al - p_l)/π_a.
			// The clipped branch has zero policy gradient. The
			// entropy bonus adds -entCoef·dH/dlogit_l with
			// dH/dlogit_l = -(1-ε)·p_l·[(logπ_l+1) - Σ_j p_j(logπ_j+1)].
			gradOut := a.pGrad[r*k : (r+1)*k]
			for j := range gradOut {
				gradOut[j] = 0
			}
			if useUnclipped {
				coef := -adv * ratio / mbN * oneMinusEps * a.raw[act] /
					math.Max(a.probs[act], 1e-12)
				for j := range gradOut {
					ind := 0.0
					if j == act {
						ind = 1.0
					}
					gradOut[j] += coef * (ind - a.raw[j])
				}
			}
			var dot float64
			for j, p := range a.raw {
				dot += p * (a.logp[j] + 1)
			}
			for j := range gradOut {
				dH := -oneMinusEps * a.raw[j] * ((a.logp[j] + 1) - dot)
				gradOut[j] -= a.cfg.EntropyCoef * dH / mbN
			}
		}

		nn.ZeroGrad(a.pParams)
		a.policy.BackwardBatch(&a.pBatch, x, a.pGrad[:m*k])
		gn := nn.ClipGradNorm(a.pParams, a.cfg.MaxGradNorm)
		a.pOpt.Step()

		stats.PolicyLoss += policyLoss / mbN
		stats.Entropy += entropy / mbN
		stats.ClipFrac += clipped / mbN
		stats.GradNorm += gn
	}
	if updates > 0 {
		f := 1 / float64(updates)
		stats.PolicyLoss *= f
		stats.Entropy *= f
		stats.ClipFrac *= f
		stats.GradNorm *= f
	}
	sp.End()
	return stats
}

// updateValue is the value half of an update, run on the helper
// goroutine UpdateContext starts: the squared-error value loss on the
// returns of a.vIn. It leaves the mean value loss in a.vLoss.
func (a *Agent) updateValue() {
	defer a.vDone.Done()
	sp, _ := trace.StartSpan(a.vCtx, trace.SpanPPOUpdate)
	sp.OwnLane()
	sp.SetAttr("net", "value")
	b := a.vIn
	n := b.Len()
	obsSize := a.value.InSize()
	updates := a.minibatches(n)
	var loss float64
	for u := 0; u < updates; u++ {
		mb := a.minibatch(n, u)
		m := len(mb)
		mbN := float64(m)
		x := gather(a.vObs, b, mb, obsSize)
		values := a.value.ForwardBatch(&a.vBatch, x, m)

		// Value loss: 0.5 * (V - R)^2.
		var valueLoss float64
		for r, i := range mb {
			dv := values[r] - b.Returns[i]
			valueLoss += 0.5 * dv * dv
			a.vGrad[r] = a.cfg.ValueCoef * dv / mbN
		}

		nn.ZeroGrad(a.vParams)
		a.value.BackwardBatch(&a.vBatch, x, a.vGrad[:m])
		nn.ClipGradNorm(a.vParams, a.cfg.MaxGradNorm)
		a.vOpt.Step()

		loss += valueLoss / mbN
	}
	if updates > 0 {
		loss *= 1 / float64(updates)
	}
	a.vLoss = loss
	sp.End()
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
