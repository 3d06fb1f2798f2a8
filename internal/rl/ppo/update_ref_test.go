package ppo

import (
	"math"

	"repro/internal/nn"
	"repro/internal/rl"
)

// refUpdate is the per-sample learner that the minibatch kernels
// replaced, kept as the reference Update must match byte for byte: each
// sample of a minibatch runs through the policy and value networks on
// its own, with MLP.Forward and MLP.Backward.
func refUpdate(a *Agent, b *rl.Batch) rl.UpdateStats {
	b.NormalizeAdvantages()
	n := b.Len()
	var stats rl.UpdateStats
	var updates int

	pParams := a.policy.Params()
	vParams := a.value.Params()
	gradOut := make([]float64, a.policy.OutSize())

	for epoch := 0; epoch < a.cfg.Epochs; epoch++ {
		order := make([]int, n)
		rl.ShuffleInto(order, a.rng)
		for start := 0; start < n; start += a.cfg.MinibatchSize {
			end := start + a.cfg.MinibatchSize
			if end > n {
				end = n
			}
			mb := order[start:end]
			mbN := float64(len(mb))

			nn.ZeroGrad(pParams)
			nn.ZeroGrad(vParams)
			var policyLoss, valueLoss, entropy, clipped float64

			for _, i := range mb {
				obs := b.Obs[i]
				act := b.Actions[i]
				adv := b.Advantages[i]
				oldLogp := b.LogProbs[i]

				a.dist(a.policy.Forward(obs))
				logp := nn.LogProb(a.probs, act)
				ratio := math.Exp(logp - oldLogp)

				// Clipped surrogate: L = -min(r*A, clip(r)*A).
				unclipped := ratio * adv
				clipRatio := clamp(ratio, 1-a.cfg.ClipRange, 1+a.cfg.ClipRange)
				clippedObj := clipRatio * adv
				var useUnclipped bool
				if unclipped <= clippedObj {
					useUnclipped = true
				}
				if !useUnclipped {
					clipped++
				}
				policyLoss += -math.Min(unclipped, clippedObj)
				ent := nn.Entropy(a.probs)
				entropy += ent

				// Gradient wrt logits through the mixture
				// π_j = (1-ε)p_j + ε/K with p = softmax(logits):
				// dπ_j/dlogit_l = (1-ε)·p_j·(δ_jl - p_l), so
				// dlogπ_a/dlogit_l = (1-ε)·p_a·(δ_al - p_l)/π_a.
				// The clipped branch has zero policy gradient. The
				// entropy bonus adds -entCoef·dH/dlogit_l with
				// dH/dlogit_l = -(1-ε)·p_l·[(logπ_l+1) - Σ_j p_j(logπ_j+1)].
				oneMinusEps := 1 - a.cfg.ExplorationFloor
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
				for j := range a.raw {
					lp := math.Log(math.Max(a.probs[j], 1e-12))
					dot += a.raw[j] * (lp + 1)
				}
				for j := range gradOut {
					lp := math.Log(math.Max(a.probs[j], 1e-12))
					dH := -oneMinusEps * a.raw[j] * ((lp + 1) - dot)
					gradOut[j] -= a.cfg.EntropyCoef * dH / mbN
				}
				a.policy.Backward(obs, gradOut)

				// Value loss: 0.5 * (V - R)^2.
				v := a.value.Forward(obs)[0]
				dv := v - b.Returns[i]
				valueLoss += 0.5 * dv * dv
				a.value.Backward(obs, []float64{a.cfg.ValueCoef * dv / mbN})
			}

			gn := nn.ClipGradNorm(pParams, a.cfg.MaxGradNorm)
			nn.ClipGradNorm(vParams, a.cfg.MaxGradNorm)
			a.pOpt.Step()
			a.vOpt.Step()

			stats.PolicyLoss += policyLoss / mbN
			stats.ValueLoss += valueLoss / mbN
			stats.Entropy += entropy / mbN
			stats.ClipFrac += clipped / mbN
			stats.GradNorm += gn
			updates++
		}
	}
	if updates > 0 {
		f := 1 / float64(updates)
		stats.PolicyLoss *= f
		stats.ValueLoss *= f
		stats.Entropy *= f
		stats.ClipFrac *= f
		stats.GradNorm *= f
	}
	return stats
}
