// Package nn is a minimal neural-network library sufficient for the PPO
// agent: dense layers with manual backpropagation, tanh/ReLU activations,
// softmax utilities for categorical policies, Xavier initialization, and
// the Adam optimizer. Everything is float64 and allocation-conscious.
//
// The dense kernels run a minibatch at a time (MLP.ForwardBatch and
// MLP.BackwardBatch; Forward and Backward are their one-sample case) and
// are blocked four samples or four inputs at a time for independent
// accumulator chains. Blocking never changes a result bit, because every
// kernel keeps one summation order:
//   - each output is the bias plus its products in input order;
//   - each input gradient is zero plus its products in output order;
//   - each W.Grad and B.Grad element adds the samples' terms in
//     minibatch order to its current value;
//   - every step has the acc += a*b shape, so where the compiler fuses
//     multiply-adds it fuses them the same way in every path.
//
// On amd64 hosts with AVX the kernels also run sixteen elements at a
// time through one assembly primitive, lanes16: dst[0:16] = init[0:16]
// + Σ_j a[j]·M[j·stride : j·stride+16], each lane an accumulator that
// adds its products in j order. The forward pass puts outputs on the
// lanes (over a transpose of W, for n ≥ 4), the weight gradient inputs
// (j over samples, init the current W.Grad row) and the input gradient
// inputs (j over outputs, init zero), so each lane is one element
// summed in the order above. The primitive multiplies and adds as two
// rounded steps (VMULPD then VADDPD, never VFMADD), because Go emits
// unfused MULSD and ADDSD on amd64, even at GOAMD64=v3: a fused lane
// would round once where the Go kernels round twice and lose bit
// equality with them. The primitive is chosen once from CPUID; other
// hosts, other architectures and widths left over from the sixteens run
// the Go loops.
//
// A minibatch therefore trains exactly as its samples would one by one,
// on either path.
package nn

import (
	"fmt"
	"math"

	"repro/internal/prng"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Val  []float64
	Grad []float64
}

// Activation selects the nonlinearity between hidden layers.
type Activation int

const (
	// Tanh is the default activation (matches Stable-Baselines3's
	// MlpPolicy, which the paper uses).
	Tanh Activation = iota
	// ReLU is provided for ablations.
	ReLU
)

func (a Activation) apply(x float64) float64 {
	if a == ReLU {
		if x < 0 {
			return 0
		}
		return x
	}
	return math.Tanh(x)
}

// derivFromOut computes the activation derivative from the activation
// output value (both tanh and ReLU allow this).
func (a Activation) derivFromOut(y float64) float64 {
	if a == ReLU {
		if y > 0 {
			return 1
		}
		return 0
	}
	return 1 - y*y
}

// Linear is a dense layer y = W x + b with W stored row-major (Out x In).
type Linear struct {
	In, Out int
	W, B    Param
}

// NewLinear creates a dense layer with Xavier/Glorot-uniform weights.
func NewLinear(in, out int, rng *prng.Source) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		W:   Param{Val: make([]float64, in*out), Grad: make([]float64, in*out)},
		B:   Param{Val: make([]float64, out), Grad: make([]float64, out)},
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range l.W.Val {
		l.W.Val[i] = (2*rng.Float64() - 1) * limit
	}
	return l
}

// ScaleWeights multiplies all weights by f. PPO policy heads are
// conventionally initialized small (orthogonal gain 0.01) so the initial
// policy is near-uniform; scaling Xavier weights achieves the same effect.
func (l *Linear) ScaleWeights(f float64) {
	for i := range l.W.Val {
		l.W.Val[i] *= f
	}
}

// forward computes y = W x + b for n inputs stored row-major in x (n ×
// In), writing n × Out outputs to y. With the lane kernels on and n ≥ 4
// (enough samples to pay for transposing W into b), outputs run sixteen
// at a time across the lanes. The rest go through each weight row four
// samples together, giving four independent accumulator chains. Either
// way each output starts at the bias and adds the products in input
// order.
func (l *Linear) forward(b *Batch, x, y []float64, n int) {
	in, out := l.In, l.Out
	o0 := 0 // outputs below o0 ran on the lanes
	if useLanes && n >= 4 {
		o0 = out &^ 15
	}
	if o0 > 0 {
		wT := transpose(b.wT[:in*out], l.W.Val, out, in)
		for s := 0; s < n; s++ {
			xs, ys := x[s*in:(s+1)*in], y[s*out:(s+1)*out]
			for o := 0; o < o0; o += 16 {
				lanes(ys[o:], l.B.Val[o:], xs, wT[o:], out)
			}
		}
	}
	s := 0
	for ; s+4 <= n; s += 4 {
		x0 := x[s*in : (s+1)*in]
		x1 := x[(s+1)*in : (s+2)*in]
		x2 := x[(s+2)*in : (s+3)*in]
		x3 := x[(s+3)*in : (s+4)*in]
		for o := o0; o < out; o++ {
			row := l.W.Val[o*in : (o+1)*in]
			x0, x1, x2, x3 := x0[:len(row)], x1[:len(row)], x2[:len(row)], x3[:len(row)]
			b := l.B.Val[o]
			a0, a1, a2, a3 := b, b, b, b
			for i, w := range row {
				a0 += w * x0[i]
				a1 += w * x1[i]
				a2 += w * x2[i]
				a3 += w * x3[i]
			}
			y[s*out+o] = a0
			y[(s+1)*out+o] = a1
			y[(s+2)*out+o] = a2
			y[(s+3)*out+o] = a3
		}
	}
	for ; s < n; s++ {
		xs := x[s*in : (s+1)*in]
		for o := o0; o < out; o++ {
			row := l.W.Val[o*in : (o+1)*in]
			xs := xs[:len(row)]
			a := l.B.Val[o]
			for i, w := range row {
				a += w * xs[i]
			}
			y[s*out+o] = a
		}
	}
}

// accumulateGrads adds the parameter gradients of n samples, given their
// layer inputs x (n × In) and upstream gradients gy (n × Out), to B.Grad
// and W.Grad. Every element is summed over the samples in order, starting
// from its current value. The weight gradient reads a transposed copy of
// gy held in b. With the lane kernels on, inputs run sixteen at a time
// across the lanes, reading x as it is; the rest read a transposed copy
// of x, four inputs at a time.
func (l *Linear) accumulateGrads(b *Batch, x, gy []float64, n int) {
	in, out := l.In, l.Out
	gyT := transpose(b.gyT[:n*out], gy, n, out)
	i0 := 0 // inputs below i0 run on the lanes
	if useLanes {
		i0 = in &^ 15
	}
	var xT []float64
	if i0 < in {
		xT = transpose(b.xT[:n*in], x, n, in)
	}
	for o := 0; o < out; o++ {
		g := gyT[o*n : (o+1)*n]
		bg := l.B.Grad[o]
		for _, v := range g {
			bg += v
		}
		l.B.Grad[o] = bg
		row := l.W.Grad[o*in : (o+1)*in]
		for i := 0; i < i0; i += 16 {
			lanes(row[i:], row[i:], g, x[i:], in)
		}
		i := i0
		for ; i+4 <= in; i += 4 {
			x0 := xT[i*n : (i+1)*n][:len(g)]
			x1 := xT[(i+1)*n : (i+2)*n][:len(g)]
			x2 := xT[(i+2)*n : (i+3)*n][:len(g)]
			x3 := xT[(i+3)*n : (i+4)*n][:len(g)]
			a0, a1, a2, a3 := row[i], row[i+1], row[i+2], row[i+3]
			for s, v := range g {
				a0 += v * x0[s]
				a1 += v * x1[s]
				a2 += v * x2[s]
				a3 += v * x3[s]
			}
			row[i], row[i+1], row[i+2], row[i+3] = a0, a1, a2, a3
		}
		for ; i < in; i++ {
			xi := xT[i*n : (i+1)*n][:len(g)]
			a := row[i]
			for s, v := range g {
				a += v * xi[s]
			}
			row[i] = a
		}
	}
}

// inputGrad writes the input gradients gx = Wᵀ gy of n samples (n × In)
// from their upstream gradients gy (n × Out). Each element is a sum over
// outputs in order, starting from zero. With the lane kernels on, inputs
// run sixteen at a time across the lanes, reading W as it is. For the
// rest, blocks of four samples read a transposed copy of W held in b,
// giving four independent accumulators per input; the remaining samples
// stream the weight rows directly.
func (l *Linear) inputGrad(b *Batch, gy, gx []float64, n int) {
	in, out := l.In, l.Out
	i0 := 0 // inputs below i0 ran on the lanes
	if useLanes {
		i0 = in &^ 15
		for s := 0; s < n; s++ {
			gs := gy[s*out : (s+1)*out]
			for i := 0; i < i0; i += 16 {
				lanes(gx[s*in+i:], zero16[:], gs, l.W.Val[i:], in)
			}
		}
		if i0 == in {
			return
		}
	}
	s := 0
	if n >= 4 {
		wT := transpose(b.wT[:in*out], l.W.Val, out, in)
		for ; s+4 <= n; s += 4 {
			g0 := gy[s*out : (s+1)*out]
			g1 := gy[(s+1)*out : (s+2)*out]
			g2 := gy[(s+2)*out : (s+3)*out]
			g3 := gy[(s+3)*out : (s+4)*out]
			for i := i0; i < in; i++ {
				col := wT[i*out : (i+1)*out]
				g0, g1, g2, g3 := g0[:len(col)], g1[:len(col)], g2[:len(col)], g3[:len(col)]
				var a0, a1, a2, a3 float64
				for o, w := range col {
					a0 += g0[o] * w
					a1 += g1[o] * w
					a2 += g2[o] * w
					a3 += g3[o] * w
				}
				gx[s*in+i] = a0
				gx[(s+1)*in+i] = a1
				gx[(s+2)*in+i] = a2
				gx[(s+3)*in+i] = a3
			}
		}
	}
	for ; s < n; s++ {
		dst := gx[s*in+i0 : (s+1)*in]
		for i := range dst {
			dst[i] = 0
		}
		for o, g := range gy[s*out : (s+1)*out] {
			row := l.W.Val[o*in+i0 : (o+1)*in]
			dst := dst[:len(row)]
			for i, w := range row {
				dst[i] += g * w
			}
		}
	}
}

// transpose writes the cols × rows transpose of the row-major rows × cols
// matrix src into dst and returns dst.
func transpose(dst, src []float64, rows, cols int) []float64 {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
	return dst
}

// MLP is a multi-layer perceptron: hidden dense layers with a shared
// activation, then a linear output layer.
type MLP struct {
	layers []*Linear
	act    Activation
	one    Batch // scratch of the single-sample Forward and Backward
}

// Batch is caller-owned scratch for one minibatch of an MLP: the
// activations ForwardBatch caches for BackwardBatch, the gradient rows
// passed between layers, and the transposed copies the gradient kernels
// read. The zero Batch is ready to use. It grows to the largest
// minibatch and network it has seen, so steady-state calls allocate
// nothing.
type Batch struct {
	n           int
	outs        [][]float64 // outs[k]: n × layer k's Out, post-activation (pre-activation for the last layer)
	grad        [2][]float64
	xT, gyT, wT []float64
}

// reserve sizes b for n samples of m.
func (b *Batch) reserve(m *MLP, n int) {
	b.n = n
	if len(b.outs) != len(m.layers) {
		b.outs = make([][]float64, len(m.layers))
	}
	width, area := 0, 0
	for k, l := range m.layers {
		b.outs[k] = grow(b.outs[k], n*l.Out)
		width = max(width, l.In, l.Out)
		area = max(area, l.In*l.Out)
	}
	b.grad[0] = grow(b.grad[0], n*width)
	b.grad[1] = grow(b.grad[1], n*width)
	b.xT = grow(b.xT, n*width)
	b.gyT = grow(b.gyT, n*width)
	if n >= 4 { // only forward's lanes and inputGrad's four-sample blocks read the transpose of W
		b.wT = grow(b.wT, area)
	}
}

// grow returns s resliced to length n, reallocating only when its
// capacity is short.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes =
// [128, 64, 64, 10] gives two hidden layers of 64 units and a 10-unit
// linear output.
func NewMLP(sizes []int, act Activation, rng *prng.Source) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{act: act}
	for i := 0; i+1 < len(sizes); i++ {
		m.layers = append(m.layers, NewLinear(sizes[i], sizes[i+1], rng))
	}
	return m
}

// OutputLayer returns the final linear layer (for head-specific init).
func (m *MLP) OutputLayer() *Linear { return m.layers[len(m.layers)-1] }

// InSize returns the expected input width.
func (m *MLP) InSize() int { return m.layers[0].In }

// OutSize returns the output width.
func (m *MLP) OutSize() int { return m.layers[len(m.layers)-1].Out }

// Forward evaluates the network and returns its output slice, which is
// owned by the MLP and overwritten by the next call.
func (m *MLP) Forward(x []float64) []float64 {
	return m.ForwardBatch(&m.one, x, 1)
}

// Backward accumulates parameter gradients for input x and upstream output
// gradient gradOut. It re-runs the forward pass internally to populate the
// activation caches, so it does not require a preceding Forward call with
// the same x.
func (m *MLP) Backward(x, gradOut []float64) {
	m.ForwardBatch(&m.one, x, 1)
	m.BackwardBatch(&m.one, x, gradOut)
}

// ForwardBatch evaluates the network on n inputs stored row-major in x
// (n × InSize) and returns the n × OutSize outputs, row-major. It caches
// every layer's activations in b for BackwardBatch; the returned slice
// is owned by b and overwritten by its next use.
func (m *MLP) ForwardBatch(b *Batch, x []float64, n int) []float64 {
	if len(x) != n*m.InSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d × %d", len(x), n, m.InSize()))
	}
	b.reserve(m, n)
	in := x
	for k, l := range m.layers {
		out := b.outs[k]
		l.forward(b, in, out, n)
		if k < len(m.layers)-1 {
			for i, v := range out {
				out[i] = m.act.apply(v)
			}
		}
		in = out
	}
	return in
}

// BackwardBatch accumulates the parameter gradients of the minibatch
// that the preceding ForwardBatch call on b evaluated, given the same
// inputs x and the upstream output gradients gradOut (n × OutSize,
// row-major). It reuses the activations cached in b, so nothing is
// evaluated twice.
func (m *MLP) BackwardBatch(b *Batch, x, gradOut []float64) {
	n := b.n
	if len(x) != n*m.InSize() || len(gradOut) != n*m.OutSize() {
		panic(fmt.Sprintf("nn: backward on %d inputs and %d output gradients, want %d × %d and %d × %d",
			len(x), len(gradOut), n, m.InSize(), n, m.OutSize()))
	}
	gy := gradOut
	for k := len(m.layers) - 1; k >= 0; k-- {
		l := m.layers[k]
		in := x
		if k > 0 {
			in = b.outs[k-1]
		}
		l.accumulateGrads(b, in, gy, n)
		if k == 0 {
			break
		}
		// Layers alternate between the two gradient buffers, so gx
		// never aliases gy.
		gx := b.grad[k&1][:n*l.In]
		l.inputGrad(b, gy, gx, n)
		// Chain through the activation of the previous layer.
		for i, y := range in {
			gx[i] *= m.act.derivFromOut(y)
		}
		gy = gx
	}
}

// Params returns all trainable parameters.
func (m *MLP) Params() []Param {
	var ps []Param
	for _, l := range m.layers {
		ps = append(ps, l.W, l.B)
	}
	return ps
}

// ParamValues deep-copies the current parameter values, one slice per
// Param, for inclusion in a checkpoint. Gradients are transient (zeroed
// at the start of every update) and are deliberately not captured.
func ParamValues(params []Param) [][]float64 {
	vals := make([][]float64, len(params))
	for i, p := range params {
		vals[i] = append([]float64(nil), p.Val...)
	}
	return vals
}

// SetParamValues copies previously captured values back into the live
// parameter slices, validating shapes so a checkpoint from a different
// architecture cannot be silently applied.
func SetParamValues(params []Param, vals [][]float64) error {
	if len(vals) != len(params) {
		return fmt.Errorf("nn: restoring %d tensors into network with %d", len(vals), len(params))
	}
	for i, p := range params {
		if len(vals[i]) != len(p.Val) {
			return fmt.Errorf("nn: tensor %d has %d values, want %d", i, len(vals[i]), len(p.Val))
		}
	}
	for i, p := range params {
		copy(p.Val, vals[i])
	}
	return nil
}

// ZeroGrad clears all gradient accumulators.
func ZeroGrad(params []Param) {
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm (PPO uses max_grad_norm = 0.5).
func ClipGradNorm(params []Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		f := maxNorm / norm
		for _, p := range params {
			for i := range p.Grad {
				p.Grad[i] *= f
			}
		}
	}
	return norm
}

// Adam implements the Adam optimizer (Kingma & Ba) over a parameter set.
type Adam struct {
	params []Param
	lr     float64
	beta1  float64
	beta2  float64
	eps    float64
	t      int
	m, v   [][]float64
}

// NewAdam creates an Adam optimizer with standard hyperparameters
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(params []Param, lr float64) *Adam {
	a := &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.Val))
		a.v[i] = make([]float64, len(p.Val))
	}
	return a
}

// SetLR updates the learning rate (for schedules).
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// AdamState is a serializable snapshot of the optimizer moments. The
// hyperparameters (lr, betas, eps) are configuration, not state: they are
// re-derived from the run config on restore.
type AdamState struct {
	T    int
	M, V [][]float64
}

// State deep-copies the optimizer's step count and moment estimates.
func (a *Adam) State() AdamState {
	st := AdamState{T: a.t, M: make([][]float64, len(a.m)), V: make([][]float64, len(a.v))}
	for i := range a.m {
		st.M[i] = append([]float64(nil), a.m[i]...)
		st.V[i] = append([]float64(nil), a.v[i]...)
	}
	return st
}

// Restore copies a snapshot back into the optimizer, validating shapes.
func (a *Adam) Restore(st AdamState) error {
	if len(st.M) != len(a.m) || len(st.V) != len(a.v) {
		return fmt.Errorf("nn: adam snapshot has %d/%d moment tensors, want %d", len(st.M), len(st.V), len(a.m))
	}
	for i := range a.m {
		if len(st.M[i]) != len(a.m[i]) || len(st.V[i]) != len(a.v[i]) {
			return fmt.Errorf("nn: adam moment tensor %d has %d/%d values, want %d", i, len(st.M[i]), len(st.V[i]), len(a.m[i]))
		}
	}
	a.t = st.T
	for i := range a.m {
		copy(a.m[i], st.M[i])
		copy(a.v[i], st.V[i])
	}
	return nil
}

// Step applies one Adam update from the accumulated gradients and then
// leaves the gradients untouched (call ZeroGrad before the next
// accumulation).
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad {
			m[j] = a.beta1*m[j] + (1-a.beta1)*g
			v[j] = a.beta2*v[j] + (1-a.beta2)*g*g
			p.Val[j] -= a.lr * (m[j] / bc1) / (math.Sqrt(v[j]/bc2) + a.eps)
		}
	}
}

// Softmax writes softmax(logits) into probs (allocating if probs is nil)
// and returns it, using the max-subtraction trick for stability.
func Softmax(logits, probs []float64) []float64 {
	if probs == nil {
		probs = make([]float64, len(logits))
	}
	maxL := math.Inf(-1)
	for _, l := range logits {
		if l > maxL {
			maxL = l
		}
	}
	var sum float64
	for i, l := range logits {
		probs[i] = math.Exp(l - maxL)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	return probs
}

// SampleCategorical draws an index from the probability vector.
func SampleCategorical(probs []float64, rng *prng.Source) int {
	u := rng.Float64()
	var c float64
	for i, p := range probs {
		c += p
		if u < c {
			return i
		}
	}
	return len(probs) - 1
}

// Argmax returns the index of the largest element.
func Argmax(xs []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range xs {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// LogProb returns log probs[i] with a floor to avoid -Inf.
func LogProb(probs []float64, i int) float64 {
	p := probs[i]
	if p < 1e-12 {
		p = 1e-12
	}
	return math.Log(p)
}

// Entropy returns the Shannon entropy of the distribution in nats.
func Entropy(probs []float64) float64 {
	var h float64
	for _, p := range probs {
		if p > 1e-12 {
			h -= p * math.Log(p)
		}
	}
	return h
}
