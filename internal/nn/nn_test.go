package nn

import (
	"math"
	"testing"

	"repro/internal/prng"
)

func TestLinearForwardKnownValues(t *testing.T) {
	l := NewLinear(2, 2, prng.New(1))
	copy(l.W.Val, []float64{1, 2, 3, 4}) // rows: [1 2], [3 4]
	copy(l.B.Val, []float64{0.5, -0.5})
	y := make([]float64, 2)
	l.forward(nil, []float64{1, -1}, y, 1) // one sample never reads the scratch
	if math.Abs(y[0]-(-0.5)) > 1e-12 || math.Abs(y[1]-(-1.5)) > 1e-12 {
		t.Errorf("forward = %v, want [-0.5 -1.5]", y)
	}
}

// numericalGrad estimates d loss / d param via central differences.
func numericalGrad(f func() float64, p *float64) float64 {
	const h = 1e-6
	orig := *p
	*p = orig + h
	up := f()
	*p = orig - h
	down := f()
	*p = orig
	return (up - down) / (2 * h)
}

func TestMLPGradientsMatchNumerical(t *testing.T) {
	rng := prng.New(42)
	m := NewMLP([]int{3, 5, 2}, Tanh, rng)
	x := []float64{0.3, -0.7, 1.1}
	target := []float64{0.2, -0.4}

	// Loss = 0.5 * sum (y - target)^2; dL/dy = y - target.
	loss := func() float64 {
		y := m.Forward(x)
		var L float64
		for i := range y {
			d := y[i] - target[i]
			L += 0.5 * d * d
		}
		return L
	}
	y := m.Forward(x)
	gradOut := make([]float64, 2)
	for i := range y {
		gradOut[i] = y[i] - target[i]
	}
	params := m.Params()
	ZeroGrad(params)
	m.Backward(x, gradOut)

	for pi, p := range params {
		for j := range p.Val {
			want := numericalGrad(loss, &p.Val[j])
			got := p.Grad[j]
			if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("param %d[%d]: analytic grad %v, numerical %v", pi, j, got, want)
			}
		}
	}
}

func TestMLPGradientsReLU(t *testing.T) {
	rng := prng.New(43)
	m := NewMLP([]int{4, 6, 3}, ReLU, rng)
	x := []float64{0.9, -0.2, 0.4, -1.3}
	loss := func() float64 {
		y := m.Forward(x)
		var L float64
		for _, v := range y {
			L += v * v
		}
		return L
	}
	y := m.Forward(x)
	gradOut := make([]float64, 3)
	for i := range y {
		gradOut[i] = 2 * y[i]
	}
	params := m.Params()
	ZeroGrad(params)
	m.Backward(x, gradOut)
	for pi, p := range params {
		for j := range p.Val {
			want := numericalGrad(loss, &p.Val[j])
			got := p.Grad[j]
			if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("relu param %d[%d]: analytic %v, numerical %v", pi, j, got, want)
			}
		}
	}
}

func TestBackwardAccumulates(t *testing.T) {
	rng := prng.New(44)
	m := NewMLP([]int{2, 3, 1}, Tanh, rng)
	x := []float64{0.5, -0.5}
	g := []float64{1}
	params := m.Params()
	ZeroGrad(params)
	m.Backward(x, g)
	snapshot := make([]float64, len(params[0].Grad))
	copy(snapshot, params[0].Grad)
	m.Backward(x, g)
	for i := range snapshot {
		if math.Abs(params[0].Grad[i]-2*snapshot[i]) > 1e-12 {
			t.Fatal("gradients do not accumulate across Backward calls")
		}
	}
}

func TestAdamMinimizesQuadratic(t *testing.T) {
	// Minimize f(w) = sum (w - c)^2 directly through the Param/Adam API.
	c := []float64{3, -2, 0.5}
	p := Param{Val: []float64{0, 0, 0}, Grad: make([]float64, 3)}
	opt := NewAdam([]Param{p}, 0.05)
	for step := 0; step < 2000; step++ {
		ZeroGrad([]Param{p})
		for i := range p.Val {
			p.Grad[i] = 2 * (p.Val[i] - c[i])
		}
		opt.Step()
	}
	for i := range p.Val {
		if math.Abs(p.Val[i]-c[i]) > 1e-3 {
			t.Errorf("Adam converged to %v, want %v", p.Val, c)
			break
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := prng.New(7)
	m := NewMLP([]int{2, 8, 1}, Tanh, rng)
	params := m.Params()
	opt := NewAdam(params, 0.01)
	data := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []float64{0, 1, 1, 0}
	var loss float64
	for epoch := 0; epoch < 3000; epoch++ {
		ZeroGrad(params)
		loss = 0
		for i, x := range data {
			y := m.Forward(x)
			d := y[0] - labels[i]
			loss += 0.5 * d * d
			m.Backward(x, []float64{d})
		}
		opt.Step()
	}
	if loss > 0.01 {
		t.Errorf("XOR training loss = %v, want < 0.01", loss)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := Param{Val: make([]float64, 3), Grad: []float64{3, 4, 0}}
	norm := ClipGradNorm([]Param{p}, 1.0)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm = %v, want 5", norm)
	}
	var after float64
	for _, g := range p.Grad {
		after += g * g
	}
	if math.Abs(math.Sqrt(after)-1) > 1e-9 {
		t.Errorf("post-clip norm = %v, want 1", math.Sqrt(after))
	}
	// A small gradient is untouched.
	p2 := Param{Val: make([]float64, 2), Grad: []float64{0.1, 0.1}}
	ClipGradNorm([]Param{p2}, 1.0)
	if p2.Grad[0] != 0.1 {
		t.Error("clip modified a small gradient")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	logits := []float64{1, 2, 3, 1000} // tests overflow stability too
	probs := Softmax(logits, nil)
	var sum float64
	for _, p := range probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("invalid probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmax sums to %v", sum)
	}
	if Argmax(probs) != 3 {
		t.Error("softmax argmax mismatch")
	}
}

func TestSoftmaxUniform(t *testing.T) {
	probs := Softmax([]float64{0, 0, 0, 0}, nil)
	for _, p := range probs {
		if math.Abs(p-0.25) > 1e-12 {
			t.Errorf("uniform softmax gave %v", probs)
			break
		}
	}
	if h := Entropy(probs); math.Abs(h-math.Log(4)) > 1e-9 {
		t.Errorf("uniform entropy = %v, want ln 4", h)
	}
}

func TestSampleCategoricalDistribution(t *testing.T) {
	rng := prng.New(5)
	probs := []float64{0.1, 0.6, 0.3}
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[SampleCategorical(probs, rng)]++
	}
	for i, p := range probs {
		got := float64(counts[i]) / n
		if math.Abs(got-p) > 0.02 {
			t.Errorf("category %d sampled at rate %v, want %v", i, got, p)
		}
	}
}

func TestLogProbFloor(t *testing.T) {
	if lp := LogProb([]float64{0, 1}, 0); math.IsInf(lp, -1) {
		t.Error("LogProb returned -Inf for zero probability")
	}
}

func TestScaleWeights(t *testing.T) {
	l := NewLinear(4, 4, prng.New(9))
	before := make([]float64, len(l.W.Val))
	copy(before, l.W.Val)
	l.ScaleWeights(0.01)
	for i := range before {
		if math.Abs(l.W.Val[i]-0.01*before[i]) > 1e-15 {
			t.Fatal("ScaleWeights wrong")
		}
	}
}

func TestNewMLPPanicsOnTooFewSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMLP([1]) did not panic")
		}
	}()
	NewMLP([]int{1}, Tanh, prng.New(1))
}

func TestForwardPanicsOnWrongInput(t *testing.T) {
	m := NewMLP([]int{3, 2}, Tanh, prng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Forward with wrong input size did not panic")
		}
	}()
	m.Forward([]float64{1, 2})
}

func BenchmarkForward128x128(b *testing.B) {
	m := NewMLP([]int{128, 128, 128, 129}, Tanh, prng.New(1))
	x := make([]float64, 128)
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

func BenchmarkBackward128x128(b *testing.B) {
	m := NewMLP([]int{128, 128, 128, 129}, Tanh, prng.New(1))
	x := make([]float64, 128)
	g := make([]float64, 129)
	for i := 0; i < b.N; i++ {
		m.Backward(x, g)
	}
}
