//go:build !amd64

package nn

// laneSupport is false: the lane primitive exists for amd64 only, and
// the dense kernels run their Go loops everywhere else.
const laneSupport = false

func lanes16(dst, init, a *float64, n int, m *float64, stride int) {
	panic("nn: lane kernels are not available on this architecture")
}
