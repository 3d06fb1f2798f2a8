package nn

import (
	"math"
	"os"
	"testing"

	"repro/internal/prng"
)

func TestMain(m *testing.M) { os.Exit(RunKernelPaths(m.Run)) }

// scalarLanes is lanes written as Go's scalar acc += a*b, the form the
// Go kernels use.
func scalarLanes(dst, init, a, m []float64, stride int) {
	for k := 0; k < 16; k++ {
		acc := init[k]
		for j, v := range a {
			acc += v * m[j*stride+k]
		}
		dst[k] = acc
	}
}

func TestLanesMatchScalar(t *testing.T) {
	if !laneSupport {
		t.Skip("no lane kernels on this host")
	}
	rng := prng.New(5)
	for _, n := range []int{0, 1, 2, 3, 7, 16, 33, 64} {
		for _, stride := range []int{16, 17, 64, 70} {
			a := make([]float64, n)
			m := make([]float64, max(n, 1)*stride)
			init := make([]float64, 16)
			for i := range a {
				a[i] = 4*rng.Float64() - 2
			}
			for i := range m {
				m[i] = math.Ldexp(rng.Float64()-0.5, rng.Intn(40)-20)
			}
			for i := range init {
				init[i] = rng.Float64() - 0.5
			}
			got, want := make([]float64, 16), make([]float64, 16)
			lanes(got, init, a, m, stride)
			scalarLanes(want, init, a, m, stride)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("n %d stride %d: lane %d = %v, scalar %v", n, stride, i, got[i], want[i])
			}
		}
	}
}

// TestLanesDoNotFuse pins both kernel forms to a rounded product: with
// a·m = 1 - 2⁻⁶⁰, the product rounds to 1 and adding -1 gives 0, where a
// fused multiply-add would give -2⁻⁶⁰. Run under GOAMD64=v3 it also
// shows that the Go kernels stay unfused where FMA is available.
func TestLanesDoNotFuse(t *testing.T) {
	a := []float64{1 + 0x1p-30}
	m := make([]float64, 16)
	init := make([]float64, 16)
	for k := range m {
		m[k], init[k] = 1-0x1p-30, -1
	}
	if fused := math.FMA(a[0], m[0], init[0]); fused == 0 {
		t.Fatalf("math.FMA = 0; the test values no longer separate fused from unfused")
	}
	want := make([]float64, 16)
	scalarLanes(want, init, a, m, 16)
	if want[0] != 0 {
		t.Fatalf("Go acc += a*b = %v, want the unfused 0", want[0])
	}
	if !laneSupport {
		return
	}
	got := make([]float64, 16)
	lanes(got, init, a, m, 16)
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("lane %d = %v, want the unfused %v", i, got[i], want[i])
	}
}

// FuzzLaneKernelsMatchGoKernels: ForwardBatch and BackwardBatch give
// the same bytes with the lane kernels on and off, for layer widths on
// either side of the 16-lane chunks and minibatches on either side of
// forward's four-sample threshold.
func FuzzLaneKernelsMatchGoKernels(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(64), uint8(64), uint8(64), false)
	f.Add(uint64(2), uint8(0), uint8(17), uint8(33), uint8(7), true)
	f.Add(uint64(3), uint8(3), uint8(1), uint8(16), uint8(17), false)
	f.Add(uint64(4), uint8(2), uint8(33), uint8(7), uint8(1), false)
	f.Add(uint64(5), uint8(63), uint8(48), uint8(50), uint8(32), true)
	f.Fuzz(func(t *testing.T, seed uint64, n, in, hidden, out uint8, relu bool) {
		if !laneSupport {
			t.Skip("no lane kernels on this host")
		}
		defer func(prev bool) { useLanes = prev }(useLanes)
		sizes := []int{1 + int(in)%80, 1 + int(hidden)%80, 1 + int(hidden/3+out)%80, 1 + int(out)%80}
		act := Tanh
		if relu {
			act = ReLU
		}
		rows := 1 + int(n)%20
		rng := prng.New(seed)
		x := make([]float64, rows*sizes[0])
		for i := range x {
			x[i] = 4*rng.Float64() - 2
		}
		g := make([]float64, rows*sizes[len(sizes)-1])
		for i := range g {
			g[i] = rng.Float64() - 0.5
		}
		var ys [2][]float64
		var nets [2]*MLP
		for p, on := range []bool{true, false} {
			useLanes = on
			m := NewMLP(sizes, act, prng.New(seed))
			for _, ps := range m.Params() {
				for i := range ps.Grad {
					ps.Grad[i] = float64(i%7) - 3
				}
			}
			var b Batch
			ys[p] = append([]float64(nil), m.ForwardBatch(&b, x, rows)...)
			m.BackwardBatch(&b, x, g)
			nets[p] = m
		}
		if i := sameBits(ys[0], ys[1]); i >= 0 {
			t.Fatalf("sizes %v, %d rows: output %d = %v with lanes, %v without", sizes, rows, i, ys[0][i], ys[1][i])
		}
		for p, ps := range nets[0].Params() {
			other := nets[1].Params()[p].Grad
			if i := sameBits(ps.Grad, other); i >= 0 {
				t.Fatalf("sizes %v, %d rows: tensor %d grad %d = %v with lanes, %v without",
					sizes, rows, p, i, ps.Grad[i], other[i])
			}
		}
	})
}
