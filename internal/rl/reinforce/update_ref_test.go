package reinforce

import (
	"math"

	"repro/internal/nn"
	"repro/internal/rl"
)

// refUpdate is the per-sample learner that the minibatch kernels
// replaced, kept as the reference Update must match byte for byte: each
// sample runs through the policy and value networks on its own, with
// MLP.Forward and MLP.Backward.
func refUpdate(a *Agent, b *rl.Batch) rl.UpdateStats {
	b.NormalizeAdvantages()
	n := b.Len()
	if n == 0 {
		return rl.UpdateStats{}
	}
	pParams := a.policy.Params()
	vParams := a.value.Params()
	nn.ZeroGrad(pParams)
	nn.ZeroGrad(vParams)
	gradOut := make([]float64, a.policy.OutSize())
	var stats rl.UpdateStats
	fn := float64(n)
	for i := 0; i < n; i++ {
		obs := b.Obs[i]
		act := b.Actions[i]
		adv := b.Advantages[i]
		logits := a.policy.Forward(obs)
		nn.Softmax(logits, a.probs)
		stats.PolicyLoss += -nn.LogProb(a.probs, act) * adv
		ent := nn.Entropy(a.probs)
		stats.Entropy += ent
		for j := range gradOut {
			ind := 0.0
			if j == act {
				ind = 1.0
			}
			gradOut[j] = -adv * (ind - a.probs[j]) / fn
			lp := math.Log(math.Max(a.probs[j], 1e-12))
			gradOut[j] -= a.cfg.EntropyCoef * (-a.probs[j] * (lp + ent)) / fn
		}
		a.policy.Backward(obs, gradOut)

		v := a.value.Forward(obs)[0]
		dv := v - b.Returns[i]
		stats.ValueLoss += 0.5 * dv * dv
		a.value.Backward(obs, []float64{dv / fn})
	}
	stats.GradNorm = nn.ClipGradNorm(pParams, a.cfg.MaxGradNorm)
	nn.ClipGradNorm(vParams, a.cfg.MaxGradNorm)
	a.pOpt.Step()
	a.vOpt.Step()
	stats.PolicyLoss /= fn
	stats.ValueLoss /= fn
	stats.Entropy /= fn
	return stats
}
