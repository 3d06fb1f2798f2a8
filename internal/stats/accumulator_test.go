package stats

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/prng"
)

// randomMatrix builds rows x cols of small-integer group values like the
// fault campaigns produce (byte grouping: 0..255).
func randomMatrix(rng *prng.Source, rows, cols, maxVal int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		row := make([]float64, cols)
		for j := range row {
			row[j] = float64(rng.Intn(maxVal + 1))
		}
		m[i] = row
	}
	return m
}

func fill(t *testing.T, groups, maxOrder int, m [][]float64) *Accumulator {
	t.Helper()
	a := NewAccumulator(groups, maxOrder)
	for _, row := range m {
		a.Add(row)
	}
	return a
}

func closeEnough(t *testing.T, name string, got, want float64) {
	t.Helper()
	diff := math.Abs(got - want)
	scale := math.Max(1, math.Abs(want))
	if diff/scale > 1e-9 {
		t.Errorf("%s: streaming %v vs matrix %v (relative diff %g)", name, got, want, diff/scale)
	}
}

// TestAccumulatorMatchesMatrix is the exact-match contract with the
// matrix-based tests: every order's streaming statistic must agree with
// FirstOrder/SecondOrder/HigherOrder on the same data to within 1e-9.
func TestAccumulatorMatchesMatrix(t *testing.T) {
	cases := []struct {
		name         string
		rowsA, rowsB int
		cols, maxVal int
		maxOrder     int
	}{
		{"bytes-order2", 300, 257, 16, 255, 2},
		{"nibbles-order3", 200, 200, 16, 15, 3},
		{"bits-order4", 128, 96, 64, 1, 4},
		{"bytes-unbalanced", 512, 64, 8, 255, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := prng.New(0x5eed + uint64(tc.maxOrder))
			ma := randomMatrix(rng, tc.rowsA, tc.cols, tc.maxVal)
			mb := randomMatrix(rng, tc.rowsB, tc.cols, tc.maxVal)
			a := fill(t, tc.cols, tc.maxOrder, ma)
			b := fill(t, tc.cols, tc.maxOrder, mb)

			for order := 1; order <= tc.maxOrder; order++ {
				var want TTestResult
				switch order {
				case 1:
					want = FirstOrder(ma, mb)
				case 2:
					want = SecondOrder(ma, mb)
				default:
					want = HigherOrder(order, ma, mb)
				}
				got := a.T(order, b)
				closeEnough(t, tc.name, got.T, want.T)
				if got.Order != want.Order || got.PosI != want.PosI || got.PosJ != want.PosJ {
					t.Errorf("order %d: position (%d,%d,%d) vs matrix (%d,%d,%d)",
						order, got.Order, got.PosI, got.PosJ, want.Order, want.PosI, want.PosJ)
				}
			}

			gotMax := a.MaxT(tc.maxOrder, b)
			wantMax := MaxUpToOrder(tc.maxOrder, ma, mb)
			closeEnough(t, tc.name+"/max", gotMax.T, wantMax.T)
			if gotMax.Order != wantMax.Order {
				t.Errorf("MaxT picked order %d, MaxUpToOrder picked %d", gotMax.Order, wantMax.Order)
			}
		})
	}
}

// TestAccumulatorMergeBitIdentical checks that sharded accumulation merged
// in shard order reproduces the serial accumulation bit for bit, which is
// what the parallel campaign relies on.
func TestAccumulatorMergeBitIdentical(t *testing.T) {
	rng := prng.New(42)
	const rows, cols, maxOrder = 300, 16, 3
	m := randomMatrix(rng, rows, cols, 15)

	serial := fill(t, cols, maxOrder, m)

	merged := NewAccumulator(cols, maxOrder)
	for start := 0; start < rows; start += 77 { // ragged shards
		end := start + 77
		if end > rows {
			end = rows
		}
		shard := NewAccumulator(cols, maxOrder)
		for _, row := range m[start:end] {
			shard.Add(row)
		}
		merged.Merge(shard)
	}

	if merged.N() != serial.N() {
		t.Fatalf("merged N %d != serial N %d", merged.N(), serial.N())
	}
	for i := range serial.pow {
		if math.Float64bits(merged.pow[i]) != math.Float64bits(serial.pow[i]) {
			t.Fatalf("pow[%d]: merged %v != serial %v", i, merged.pow[i], serial.pow[i])
		}
	}
	for i := range serial.cross {
		if math.Float64bits(merged.cross[i]) != math.Float64bits(serial.cross[i]) {
			t.Fatalf("cross[%d]: merged %v != serial %v", i, merged.cross[i], serial.cross[i])
		}
	}
}

// TestAccumulatorDegenerate mirrors Welch's degenerate-case handling:
// constant equal populations give t = 0, constant distinct populations hit
// the cap.
func TestAccumulatorDegenerate(t *testing.T) {
	constant := func(v float64, rows int) *Accumulator {
		a := NewAccumulator(1, 2)
		for i := 0; i < rows; i++ {
			a.Add([]float64{v})
		}
		return a
	}
	same := constant(3, 50).T(1, constant(3, 50))
	if same.T != 0 {
		t.Errorf("identical constant populations: t = %v, want 0", same.T)
	}
	diff := constant(3, 50).T(1, constant(5, 50))
	if diff.T != tCap {
		t.Errorf("distinct constant populations: t = %v, want cap %v", diff.T, tCap)
	}
	tiny := constant(3, 1).T(1, constant(5, 50))
	if tiny.T != 0 {
		t.Errorf("n < 2 population: t = %v, want 0", tiny.T)
	}
}

// BenchmarkAccumulatorAdd times Add per row at the group shapes the
// campaigns feed it: gift64's 16 nibbles, aes128's 16 bytes and
// speck64's 8 bytes, at orders 1 and 2.
func BenchmarkAccumulatorAdd(b *testing.B) {
	shapes := []struct {
		cipher      string
		groups, bit int
	}{{"gift64", 16, 4}, {"aes128", 16, 8}, {"speck64", 8, 8}}
	for _, sh := range shapes {
		for order := 1; order <= 2; order++ {
			b.Run(fmt.Sprintf("%s/order%d", sh.cipher, order), func(b *testing.B) {
				rng := prng.New(1)
				rows := randomMatrix(rng, 1024, sh.groups, 1<<sh.bit-1)
				acc := NewAccumulator(sh.groups, order)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					acc.Add(rows[i%len(rows)])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
			})
		}
	}
}
