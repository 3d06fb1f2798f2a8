package main

import (
	"math"
	"time"

	"repro/internal/ciphers"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/prng"
	"repro/internal/rl"
	"repro/internal/rl/ppo"
	"repro/internal/stats"
)

// Layer micro-benchmarks: the hot functions of each layer, called
// directly at the shapes the workloads drive them with. They need no
// instrumentation inside the program and isolate a layer's own speed
// from the scheduling around it.

// layerReps is how many timed repetitions each layer gets; the reported
// value is their median.
const layerReps = 5

// layerRepTime is the minimum duration of one repetition.
const layerRepTime = 60 * time.Millisecond

// forkCases are the cipher shapes the accumulator and fork kernels are
// timed at: a nibble (gift64), byte (aes128) and ARX-word (speck64)
// cipher, each at the round its golden atlas uses.
var forkCases = []struct {
	cipher string
	round  int
}{
	{"gift64", 25},
	{"aes128", 8},
	{"speck64", 24},
}

// gift64 at round 25 is the discovery shape: a 64-bit state, so the PPO
// policy and value networks are 64 → 64 → 64 → 64 (→ 1), and an update
// sees 8 envs × 64 steps.
const (
	learnerObs   = 64
	learnerEnvs  = 8
	learnerSteps = 64
)

// timePerUnit runs fn (which does `units` units of work) repeatedly for
// at least layerRepTime per repetition and returns the median
// nanoseconds per unit over layerReps repetitions.
func timePerUnit(units int, fn func()) float64 {
	fn() // warm caches and lazily built tables
	var reps []float64
	for r := 0; r < layerReps; r++ {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < layerRepTime {
			fn()
			n++
		}
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/float64(n*units))
	}
	return median(reps)
}

// measureLayers returns every layer micro-benchmark value.
func measureLayers() map[string]float64 {
	m := map[string]float64{}
	rng := prng.New(2023)

	mlp := nn.NewMLP([]int{learnerObs, 64, 64, learnerObs}, nn.Tanh, rng.Split())
	x := make([]float64, learnerObs)
	for i := range x {
		x[i] = float64(rng.Intn(2))
	}
	gout := make([]float64, learnerObs)
	for i := range gout {
		gout[i] = rng.Float64() - 0.5
	}
	m["nn.forward_ns_per_sample"] = timePerUnit(1, func() { mlp.Forward(x) })
	m["nn.backward_ns_per_sample"] = timePerUnit(1, func() { mlp.Backward(x, gout) })

	agent, batch := learnerBatch(rng.Split())
	m["ppo.update_s"] = timePerUnit(1, func() { agent.Update(batch) }) / 1e9

	for _, fc := range forkCases {
		info, err := ciphers.Lookup(fc.cipher)
		if err != nil {
			panic(err) // the cipher set is fixed at build time
		}
		key := make([]byte, info.KeyBytes)
		rng.Fill(key)
		c, err := ciphers.New(fc.cipher, key)
		if err != nil {
			panic(err)
		}
		groups := c.BlockBytes() * 8 / info.GroupBits
		acc := stats.NewAccumulator(groups, 2)
		rows := make([][]float64, 1024)
		for i := range rows {
			rows[i] = make([]float64, groups)
			for j := range rows[i] {
				rows[i][j] = float64(rng.Intn(1 << info.GroupBits))
			}
		}
		m["stats.add_ns_per_row."+fc.cipher] = timePerUnit(len(rows), func() {
			for _, r := range rows {
				acc.Add(r)
			}
		})
		m["ciphers.fork_ns_per_trace."+fc.cipher] = forkNs(c, fc.round, rng)
	}
	return m
}

// forkNs times the cipher's batch kernel on one campaign shard: 256
// plaintexts, a clean and a faulty branch, the default observation
// window captured.
func forkNs(c ciphers.Cipher, round int, rng *prng.Source) float64 {
	be, ok := c.(ciphers.BatchEncrypter)
	if !ok {
		panic(c.Name() + " has no batch kernel")
	}
	kern := be.NewBatchKernel()
	var points []ciphers.BatchPoint
	for _, p := range fault.PointsWindow(c, round, fault.DefaultLag, fault.DefaultWindow) {
		switch p.Kind {
		case fault.RoundInput:
			points = append(points, ciphers.BatchPoint{Round: p.Round})
		case fault.PostSub:
			points = append(points, ciphers.BatchPoint{Round: p.Round, PostSub: true})
		default:
			points = append(points, ciphers.BatchPoint{})
		}
	}
	const traces = 256
	bb := c.BlockBytes()
	pts := make([]byte, traces*bb)
	mask := make([]byte, traces*bb)
	rng.Fill(pts)
	rng.Fill(mask)
	masks := [][]byte{nil, mask}
	states := [][]byte{make([]byte, traces*len(points)*bb), make([]byte, traces*len(points)*bb)}
	cts := [][]byte{nil, nil}
	return timePerUnit(traces, func() {
		kern.EncryptForks(round, points, traces, pts, masks, states, cts)
	})
}

// learnerBatch builds a PPO agent configured as Discover configures it
// for gift64 and one rollout batch of the discovery shape: each episode
// selects bits for 64 steps and ends with the penalty or an exponential
// reward, like the fault-pattern MDP.
func learnerBatch(rng *prng.Source) (*ppo.Agent, *rl.Batch) {
	agent := ppo.New(learnerObs, learnerObs, ppo.Config{
		LearningRate:     1e-3,
		Epochs:           4,
		EntropyCoef:      1e-3,
		ExplorationFloor: 1.0 / learnerSteps,
		BootstrapSpike:   8,
	}, rng.Split())
	b := &rl.Batch{}
	for e := 0; e < learnerEnvs; e++ {
		obs := make([]float64, learnerObs)
		for t := 0; t < learnerSteps; t++ {
			o := append([]float64(nil), obs...)
			a, logp, v := agent.Act(o)
			obs[a] = 1
			done := t == learnerSteps-1
			reward := 0.0
			if done {
				reward = -50
				if e%2 == 0 {
					reward = math.Exp(float64(1 + e%5))
				}
			}
			b.Obs = append(b.Obs, o)
			b.Actions = append(b.Actions, a)
			b.LogProbs = append(b.LogProbs, logp)
			b.Rewards = append(b.Rewards, reward)
			b.Values = append(b.Values, v)
			b.Dones = append(b.Dones, done)
		}
	}
	b.ComputeGAE(1.0, 0.95)
	return agent, b
}
