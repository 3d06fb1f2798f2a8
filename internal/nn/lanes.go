package nn

import (
	"flag"
	"fmt"
	"unsafe"
)

// useLanes reports whether the dense kernels send their 16-wide chunks
// through lanes16. It is fixed at start-up from the host's CPU
// features; only tests change it (see RunKernelPaths).
var useLanes = laneSupport

// RunKernelPaths runs a test binary's tests, given its testing.M.Run,
// with the lane kernels as the host has them and then, if they were on,
// once more with the Go kernels, and returns the first nonzero exit
// code. Results do not depend on the path (see the package comment);
// this is how a package's golden and equivalence tests check that
// without being edited, from TestMain:
//
//	func TestMain(m *testing.M) { os.Exit(nn.RunKernelPaths(m.Run)) }
//
// Listing and fuzzing run once: fuzz workers are separate processes that
// would not see the switch.
func RunKernelPaths(run func() int) int {
	code := run()
	if code != 0 || !useLanes || testFlag("test.list") != "" ||
		testFlag("test.fuzz") != "" || testFlag("test.fuzzworker") == "true" {
		return code
	}
	useLanes = false
	defer func() { useLanes = true }()
	fmt.Println("nn: running the tests again with the Go kernels")
	return run()
}

// testFlag returns the value of a flag the testing package registers,
// or "" when the binary is not a test.
func testFlag(name string) string {
	if f := flag.Lookup(name); f != nil {
		return f.Value.String()
	}
	return ""
}

// zero16 is the zero init of the input-gradient lanes.
var zero16 [16]float64

// lanes sets dst[:16] = init[:16] + Σ_j a[j]·m[j·stride : j·stride+16],
// adding each lane's products in j order, after checking every index
// lanes16 touches. dst may be init.
func lanes(dst, init, a, m []float64, stride int) {
	_, _ = dst[15], init[15]
	if len(a) > 0 {
		_ = m[(len(a)-1)*stride+15]
	}
	lanes16(&dst[0], &init[0], unsafe.SliceData(a), len(a), unsafe.SliceData(m), stride)
}
