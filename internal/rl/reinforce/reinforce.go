// Package reinforce implements the plain REINFORCE policy-gradient
// algorithm with a learned value baseline. It exists as an ablation
// partner for PPO (DESIGN.md decision 5): same environments, same network
// shape, no clipping and no minibatch epochs, so the comparison isolates
// PPO's trust-region machinery.
package reinforce

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/prng"
	"repro/internal/rl"
)

// Config holds REINFORCE hyperparameters. Zero values select defaults
// matching the PPO configuration where the algorithms overlap.
type Config struct {
	Hidden       []int
	LearningRate float64
	EntropyCoef  float64
	MaxGradNorm  float64
	Activation   nn.Activation
}

func (c *Config) setDefaults() {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 64}
	}
	if c.LearningRate == 0 {
		c.LearningRate = 3e-4
	}
	if c.EntropyCoef == 0 {
		c.EntropyCoef = 0.01
	}
	if c.MaxGradNorm == 0 {
		c.MaxGradNorm = 0.5
	}
}

// Agent is a REINFORCE agent with a value baseline.
type Agent struct {
	cfg    Config
	policy *nn.MLP
	value  *nn.MLP
	pOpt   *nn.Adam
	vOpt   *nn.Adam
	rng    *prng.Source
	probs  []float64

	// Update scratch: the networks' parameters and minibatch buffers,
	// and one chunk's observations and per-sample output gradients,
	// row-major.
	pParams, vParams []nn.Param
	pBatch, vBatch   nn.Batch
	obs              []float64
	pGrad, vGrad     []float64
}

// chunkSize is the number of samples Update runs through the networks
// at once (PPO's default minibatch size).
const chunkSize = 64

var _ rl.Agent = (*Agent)(nil)

// New creates a REINFORCE agent.
func New(obsSize, numActions int, cfg Config, rng *prng.Source) *Agent {
	cfg.setDefaults()
	pSizes := append(append([]int{obsSize}, cfg.Hidden...), numActions)
	vSizes := append(append([]int{obsSize}, cfg.Hidden...), 1)
	a := &Agent{
		cfg:    cfg,
		policy: nn.NewMLP(pSizes, cfg.Activation, rng.Split()),
		value:  nn.NewMLP(vSizes, cfg.Activation, rng.Split()),
		rng:    rng,
		probs:  make([]float64, numActions),
	}
	a.policy.OutputLayer().ScaleWeights(0.01)
	a.pParams = a.policy.Params()
	a.vParams = a.value.Params()
	a.pOpt = nn.NewAdam(a.pParams, cfg.LearningRate)
	a.vOpt = nn.NewAdam(a.vParams, cfg.LearningRate)
	a.obs = make([]float64, chunkSize*obsSize)
	a.pGrad = make([]float64, chunkSize*numActions)
	a.vGrad = make([]float64, chunkSize)
	return a
}

// Act implements rl.Agent.
func (a *Agent) Act(obs []float64) (int, float64, float64) {
	logits := a.policy.Forward(obs)
	nn.Softmax(logits, a.probs)
	action := nn.SampleCategorical(a.probs, a.rng)
	return action, nn.LogProb(a.probs, action), a.value.Forward(obs)[0]
}

// ActGreedy returns the policy mode.
func (a *Agent) ActGreedy(obs []float64) int {
	return nn.Argmax(a.policy.Forward(obs))
}

// Update implements rl.Agent: a single full-batch policy-gradient step
// using the GAE advantages as the score weights. The batch goes through
// the networks in chunks of chunkSize samples; gradients accumulate
// across chunks in sample order, so the step is exactly the one the
// samples would give one at a time (see package nn).
func (a *Agent) Update(b *rl.Batch) rl.UpdateStats {
	b.NormalizeAdvantages()
	n := b.Len()
	if n == 0 {
		return rl.UpdateStats{}
	}
	nn.ZeroGrad(a.pParams)
	nn.ZeroGrad(a.vParams)
	obsSize := a.policy.InSize()
	k := a.policy.OutSize()
	var stats rl.UpdateStats
	fn := float64(n)
	for start := 0; start < n; start += chunkSize {
		m := min(chunkSize, n-start)
		x := a.obs[:m*obsSize]
		for r, o := range b.Obs[start : start+m] {
			if len(o) != obsSize {
				panic(fmt.Sprintf("reinforce: observation %d has width %d, want %d", start+r, len(o), obsSize))
			}
			copy(x[r*obsSize:], o)
		}
		logits := a.policy.ForwardBatch(&a.pBatch, x, m)
		values := a.value.ForwardBatch(&a.vBatch, x, m)
		for r := 0; r < m; r++ {
			i := start + r
			act := b.Actions[i]
			adv := b.Advantages[i]
			nn.Softmax(logits[r*k:(r+1)*k], a.probs)
			stats.PolicyLoss += -nn.LogProb(a.probs, act) * adv
			ent := nn.Entropy(a.probs)
			stats.Entropy += ent
			gradOut := a.pGrad[r*k : (r+1)*k]
			for j := range gradOut {
				ind := 0.0
				if j == act {
					ind = 1.0
				}
				gradOut[j] = -adv * (ind - a.probs[j]) / fn
				lp := math.Log(math.Max(a.probs[j], 1e-12))
				gradOut[j] -= a.cfg.EntropyCoef * (-a.probs[j] * (lp + ent)) / fn
			}

			dv := values[r] - b.Returns[i]
			stats.ValueLoss += 0.5 * dv * dv
			a.vGrad[r] = dv / fn
		}
		a.policy.BackwardBatch(&a.pBatch, x, a.pGrad[:m*k])
		a.value.BackwardBatch(&a.vBatch, x, a.vGrad[:m])
	}
	stats.GradNorm = nn.ClipGradNorm(a.pParams, a.cfg.MaxGradNorm)
	nn.ClipGradNorm(a.vParams, a.cfg.MaxGradNorm)
	a.pOpt.Step()
	a.vOpt.Step()
	stats.PolicyLoss /= fn
	stats.ValueLoss /= fn
	stats.Entropy /= fn
	return stats
}
