package rl

import (
	"math"
	"testing"

	"repro/internal/prng"
)

// countEnv is a toy environment shaped like the fault-pattern MDP: fixed
// episode length, sparse terminal reward equal to the fraction of steps on
// which the "good" action was taken. The observation is the normalized
// histogram of actions taken so far.
type countEnv struct {
	k, t, good int
	step       int
	counts     []float64
	obs        []float64
	goodCount  int
}

func newCountEnv(k, t, good int) *countEnv {
	return &countEnv{k: k, t: t, good: good, counts: make([]float64, k), obs: make([]float64, k)}
}

func (e *countEnv) Reset() []float64 {
	e.step = 0
	e.goodCount = 0
	for i := range e.counts {
		e.counts[i] = 0
	}
	copy(e.obs, e.counts)
	return e.obs
}

func (e *countEnv) Step(a int) ([]float64, float64, bool) {
	e.counts[a]++
	if a == e.good {
		e.goodCount++
	}
	e.step++
	for i := range e.obs {
		e.obs[i] = e.counts[i] / float64(e.t)
	}
	if e.step == e.t {
		return e.obs, float64(e.goodCount) / float64(e.t), true
	}
	return e.obs, 0, false
}

func (e *countEnv) ObsSize() int    { return e.k }
func (e *countEnv) NumActions() int { return e.k }

// fixedAgent always picks the same action with a fixed value estimate.
type fixedAgent struct{ action int }

func (f *fixedAgent) ActBatch(x []float64, n int, actions []int, logps, values []float64) {
	for r := 0; r < n; r++ {
		actions[r], logps[r], values[r] = f.action, -1.0, 0.5
	}
}
func (f *fixedAgent) Update(b *Batch) UpdateStats { return UpdateStats{} }

func TestComputeGAEHandChecked(t *testing.T) {
	b := &Batch{
		Rewards: []float64{0, 1},
		Values:  []float64{0.5, 0.25},
		Dones:   []bool{false, true},
		Actions: []int{0, 0},
	}
	b.ComputeGAE(0.5, 0.5)
	wantAdv := []float64{-0.1875, 0.75}
	wantRet := []float64{0.3125, 1.0}
	for i := range wantAdv {
		if math.Abs(b.Advantages[i]-wantAdv[i]) > 1e-12 {
			t.Errorf("adv[%d] = %v, want %v", i, b.Advantages[i], wantAdv[i])
		}
		if math.Abs(b.Returns[i]-wantRet[i]) > 1e-12 {
			t.Errorf("ret[%d] = %v, want %v", i, b.Returns[i], wantRet[i])
		}
	}
}

func TestComputeGAEResetsAtEpisodeBoundary(t *testing.T) {
	// Two episodes back to back: the advantage of the first episode's
	// last step must not leak into the second episode (iterating
	// backwards, the first episode is processed after the second).
	b := &Batch{
		Rewards: []float64{1, 0},
		Values:  []float64{0, 0},
		Dones:   []bool{true, true},
		Actions: []int{0, 0},
	}
	b.ComputeGAE(0.9, 0.9)
	if b.Advantages[0] != 1 || b.Advantages[1] != 0 {
		t.Errorf("advantages = %v, want [1 0]", b.Advantages)
	}
}

func TestNormalizeAdvantages(t *testing.T) {
	b := &Batch{Advantages: []float64{1, 2, 3, 4}}
	b.NormalizeAdvantages()
	var mean, sq float64
	for _, a := range b.Advantages {
		mean += a
	}
	mean /= 4
	for _, a := range b.Advantages {
		sq += (a - mean) * (a - mean)
	}
	if math.Abs(mean) > 1e-9 {
		t.Errorf("normalized mean = %v", mean)
	}
	if math.Abs(sq/4-1) > 1e-6 {
		t.Errorf("normalized variance = %v", sq/4)
	}
}

func TestRunnerCollectsWholeEpisodes(t *testing.T) {
	envs := []Env{newCountEnv(4, 6, 1), newCountEnv(4, 6, 1), newCountEnv(4, 6, 1)}
	r := NewRunner(envs, &fixedAgent{action: 1})
	batch, eps, err := r.CollectEpisodes(2)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Len() != 3*2*6 {
		t.Errorf("batch has %d transitions, want 36", batch.Len())
	}
	if len(eps) != 6 {
		t.Fatalf("%d episodes, want 6", len(eps))
	}
	for _, ep := range eps {
		if ep.Steps != 6 {
			t.Errorf("episode length %d, want 6", ep.Steps)
		}
		if math.Abs(ep.Return-1.0) > 1e-12 {
			t.Errorf("fixed-good-agent return = %v, want 1", ep.Return)
		}
	}
	// Done flags: exactly one per episode, at episode ends.
	dones := 0
	for _, d := range batch.Dones {
		if d {
			dones++
		}
	}
	if dones != 6 {
		t.Errorf("%d done flags, want 6", dones)
	}
}

func TestRunnerObsAreSnapshots(t *testing.T) {
	// The env reuses its obs slice; the runner must copy it, so stored
	// observations must all differ as the histogram fills in.
	env := newCountEnv(3, 4, 0)
	r := NewRunner([]Env{env}, &fixedAgent{action: 0})
	batch, _, err := r.CollectEpisodes(1)
	if err != nil {
		t.Fatal(err)
	}
	// obs at t is the histogram BEFORE the step: obs[1][0] = 1/4,
	// obs[2][0] = 2/4, etc.
	for i := 1; i < 4; i++ {
		want := float64(i-0) / 4 * 1 // action 0 chosen every step
		_ = want
		if batch.Obs[i][0] != float64(i)/4 {
			t.Errorf("obs[%d][0] = %v, want %v (aliasing bug?)", i, batch.Obs[i][0], float64(i)/4)
		}
	}
}

func TestRunnerRejectsBadEpisodeCount(t *testing.T) {
	r := NewRunner([]Env{newCountEnv(2, 2, 0)}, &fixedAgent{})
	if _, _, err := r.CollectEpisodes(0); err == nil {
		t.Error("CollectEpisodes(0) did not error")
	}
}

func TestNewRunnerPanicsWithoutEnvs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRunner with no envs did not panic")
		}
	}()
	NewRunner(nil, &fixedAgent{})
}

func TestShuffleIsPermutation(t *testing.T) {
	idx := make([]int, 100)
	ShuffleInto(idx, prng.New(3))
	seen := make([]bool, 100)
	for _, i := range idx {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatal("Shuffle is not a permutation")
		}
		seen[i] = true
	}
}

// TestCollectEpisodesAllocatesOnlyKeptObservations: once the runner's
// scratch has grown, a call allocates one copy per observation the
// batch keeps plus the returned slices, however many steps it runs.
func TestCollectEpisodesAllocatesOnlyKeptObservations(t *testing.T) {
	const nEnvs, steps = 4, 6
	envs := make([]Env, nEnvs)
	for i := range envs {
		envs[i] = newCountEnv(4, steps, 1)
	}
	r := NewRunner(envs, &fixedAgent{action: 1})
	// The returned batch header, its six rollout slices and two GAE
	// vectors, and the episode list.
	const returned = 10
	for _, k := range []int{1, 4} {
		kept := nEnvs * k * steps
		// AllocsPerRun's own warm-up call grows the scratch.
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := r.CollectEpisodes(k); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > float64(kept+returned) {
			t.Errorf("%d episodes per env: %v allocations per call, want at most %d kept observations + %d returned slices",
				k, allocs, kept, returned)
		}
	}
}
