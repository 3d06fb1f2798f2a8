package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/prng"
)

// refForward is the plain per-sample forward pass the kernels must
// reproduce: each output is the bias plus the products in input order.
// It returns every layer's output.
func refForward(m *MLP, x []float64) [][]float64 {
	outs := make([][]float64, len(m.layers))
	in := x
	for k, l := range m.layers {
		y := make([]float64, l.Out)
		for o := range y {
			s := l.B.Val[o]
			for i, xv := range in {
				s += l.W.Val[o*l.In+i] * xv
			}
			y[o] = s
		}
		if k < len(m.layers)-1 {
			for i := range y {
				y[i] = m.act.apply(y[i])
			}
		}
		outs[k] = y
		in = y
	}
	return outs
}

// refBackward is the plain per-sample backward pass: it adds one
// sample's terms to every W.Grad and B.Grad element and chains the input
// gradient, a sum over outputs in order, through the activations.
func refBackward(m *MLP, x, gradOut []float64) {
	outs := refForward(m, x)
	gy := gradOut
	for k := len(m.layers) - 1; k >= 0; k-- {
		l := m.layers[k]
		in := x
		var gx []float64
		if k > 0 {
			in = outs[k-1]
			gx = make([]float64, l.In)
		}
		for o := 0; o < l.Out; o++ {
			g := gy[o]
			l.B.Grad[o] += g
			for i, xv := range in {
				l.W.Grad[o*l.In+i] += g * xv
				if gx != nil {
					gx[i] += g * l.W.Val[o*l.In+i]
				}
			}
		}
		if k > 0 {
			for i := range gx {
				gx[i] *= m.act.derivFromOut(outs[k-1][i])
			}
			gy = gx
		}
	}
}

// sameBits reports the first index at which two float slices differ in
// their IEEE-754 bits, or -1.
func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// FuzzMLPBatchEquivalence: ForwardBatch and BackwardBatch must give the
// bytes of the per-sample reference and of n single-sample Forward and
// Backward calls, for any minibatch size, layer sizes, activation and
// inputs (dense or 0/1 sparse observations), with gradients accumulated
// onto nonzero values and the scratch reused at a second size.
func FuzzMLPBatchEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(3), uint8(64), false, true)
	f.Add(uint64(2), uint8(1), uint8(2), uint8(7), true, false)
	f.Add(uint64(3), uint8(5), uint8(1), uint8(4), false, false)
	f.Add(uint64(4), uint8(13), uint8(2), uint8(9), true, true)
	// Input widths 1, 7, 17 and 33, on either side of the 16-wide lane
	// chunks, with 1, 3 and 4 rows around forward's lane threshold.
	f.Add(uint64(5), uint8(0), uint8(1), uint8(0), false, false)
	f.Add(uint64(6), uint8(2), uint8(2), uint8(6), true, true)
	f.Add(uint64(7), uint8(3), uint8(0), uint8(16), false, true)
	f.Add(uint64(8), uint8(19), uint8(2), uint8(32), true, false)
	f.Fuzz(func(t *testing.T, seed uint64, n, depth, width uint8, relu, sparse bool) {
		rng := prng.New(seed)
		sizes := []int{1 + int(width)%70}
		for k := 0; k <= int(depth)%3; k++ {
			sizes = append(sizes, 1+rng.Intn(12))
		}
		act := Tanh
		if relu {
			act = ReLU
		}
		mBatch := NewMLP(sizes, act, prng.New(seed))
		mRef := NewMLP(sizes, act, prng.New(seed))
		mOne := NewMLP(sizes, act, prng.New(seed))
		for p, ps := range mBatch.Params() {
			for i := range ps.Grad {
				g := rng.Float64() - 0.5
				ps.Grad[i] = g
				mRef.Params()[p].Grad[i] = g
				mOne.Params()[p].Grad[i] = g
			}
		}
		in, out := mBatch.InSize(), mBatch.OutSize()
		var b Batch
		for _, rows := range []int{1 + int(n)%16, 1 + int(n*7+3)%9} {
			x := make([]float64, rows*in)
			for i := range x {
				if sparse {
					x[i] = float64(rng.Intn(2))
				} else {
					x[i] = 4*rng.Float64() - 2
				}
			}
			g := make([]float64, rows*out)
			for i := range g {
				g[i] = rng.Float64() - 0.5
			}
			y := append([]float64(nil), mBatch.ForwardBatch(&b, x, rows)...)
			mBatch.BackwardBatch(&b, x, g)
			for s := 0; s < rows; s++ {
				xs, gs := x[s*in:(s+1)*in], g[s*out:(s+1)*out]
				ref := refForward(mRef, xs)[len(sizes)-2]
				if i := sameBits(y[s*out:(s+1)*out], ref); i >= 0 {
					t.Fatalf("sizes %v, %d rows: ForwardBatch row %d output %d = %v, reference %v",
						sizes, rows, s, i, y[s*out+i], ref[i])
				}
				if i := sameBits(mOne.Forward(xs), ref); i >= 0 {
					t.Fatalf("sizes %v: Forward output %d differs from the reference", sizes, i)
				}
				refBackward(mRef, xs, gs)
				mOne.Backward(xs, gs)
			}
			for p, ps := range mBatch.Params() {
				if i := sameBits(ps.Grad, mRef.Params()[p].Grad); i >= 0 {
					t.Fatalf("sizes %v, %d rows: BackwardBatch tensor %d grad %d = %v, reference %v",
						sizes, rows, p, i, ps.Grad[i], mRef.Params()[p].Grad[i])
				}
				if i := sameBits(mOne.Params()[p].Grad, mRef.Params()[p].Grad); i >= 0 {
					t.Fatalf("sizes %v: Backward tensor %d grad %d differs from the reference", sizes, p, i)
				}
			}
		}
	})
}

func TestBackwardBatchPanicsOnWrongShape(t *testing.T) {
	m := NewMLP([]int{3, 4, 2}, Tanh, prng.New(1))
	var b Batch
	m.ForwardBatch(&b, make([]float64, 2*3), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("BackwardBatch with one row of output gradients for two inputs did not panic")
		}
	}()
	m.BackwardBatch(&b, make([]float64, 2*3), make([]float64, 2))
}

// benchBatch is the discovery learner's shape: a 64-wide observation,
// two hidden layers of 64, 64 logits, and a 64-sample minibatch.
func benchBatch() (*MLP, []float64, []float64, int) {
	const rows = 64
	rng := prng.New(1)
	m := NewMLP([]int{64, 64, 64, 64}, Tanh, rng.Split())
	x := make([]float64, rows*64)
	for i := range x {
		x[i] = float64(rng.Intn(2))
	}
	g := make([]float64, rows*64)
	for i := range g {
		g[i] = rng.Float64() - 0.5
	}
	return m, x, g, rows
}

func BenchmarkMLPForwardBatch(b *testing.B) {
	m, x, _, rows := benchBatch()
	var sc Batch
	for i := 0; i < b.N; i++ {
		m.ForwardBatch(&sc, x, rows)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/sample")
}

func BenchmarkMLPBackwardBatch(b *testing.B) {
	m, x, g, rows := benchBatch()
	var sc Batch
	m.ForwardBatch(&sc, x, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BackwardBatch(&sc, x, g)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/sample")
}

// ExampleMLP_ForwardBatch shows the minibatch layout: rows of inputs in,
// rows of outputs out, each row equal to a single-sample Forward.
func ExampleMLP_ForwardBatch() {
	m := NewMLP([]int{2, 3, 1}, Tanh, prng.New(7))
	x := []float64{0, 1, 1, 0} // two samples of width 2
	var b Batch
	y := m.ForwardBatch(&b, x, 2)
	fmt.Println(len(y), y[0] == m.Forward(x[:2])[0], y[1] == m.Forward(x[2:])[0])
	// Output: 2 true true
}
