package nn

// laneSupport reports whether this host runs lanes16: the CPU has AVX
// and the OS saves the YMM registers across context switches.
var laneSupport = hasAVX()

func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	eax, _ := xgetbv()
	return eax&6 == 6 // XMM and YMM state
}

// lanes16 sets dst[0:16] = init[0:16] + Σ_{j<n} a[j]·m[j·stride :
// j·stride+16]; see lanes for the checked form.
//
//go:noescape
func lanes16(dst, init, a *float64, n int, m *float64, stride int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
