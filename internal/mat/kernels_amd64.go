//go:build amd64

package mat

// SIMD feature detection and kernel selection for amd64. The assembly
// kernels live in kernels_amd64.s; all of them vectorize across output
// columns only, with separate VMULPD/VADDPD (never FMA), so their
// results are bit-identical to the generic Go loop.

// Implemented in kernels_amd64.s.
func mulVecLanesAVX2(dst, data, x []float64, l int)

// Implemented in kernels_amd64.s.
func mulVecLanesAVX512(dst, data, x []float64, l int)

// Implemented in kernels_amd64.s.
func mulVecLanes80AVX512(dst, data, x []float64)

// Implemented in kernels_amd64.s.
func mulVecLanes24AVX512(dst, data, x []float64)

// Implemented in kernels_amd64.s.
func scoreRows8AVX512(out *Scores8, data []float64, off *[8]int, w, prev []float64, squares bool)

// Implemented in render_amd64.s.
func pixelNoiseAVX512(px, u, q []float64, flipped []bool, std float64)

// Implemented in render_amd64.s.
func strokeRowAVX512(px []float64, s Stroke, x0, step int, cy float64)

// Implemented in kernels_amd64.s.
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// Implemented in kernels_amd64.s.
func xgetbvAsm() (eax, edx uint32)

// hasAVX2 and hasAVX512 record what the CPU and OS support.
var hasAVX2, hasAVX512 bool

func init() {
	detectSIMD()
	installKernelISA("auto")
}

// detectSIMD probes CPUID/XGETBV for AVX2 and AVX-512F support with the
// corresponding OS-enabled register state.
func detectSIMD() {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return
	}
	xcr0, _ := xgetbvAsm()
	ymmOK := xcr0&0x6 == 0x6   // XMM + YMM state enabled
	zmmOK := xcr0&0xe6 == 0xe6 // + opmask, ZMM_Hi256, Hi16_ZMM
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2Bit = 1 << 5
	const avx512fBit = 1 << 16
	hasAVX2 = ymmOK && ebx7&avx2Bit != 0
	hasAVX512 = hasAVX2 && zmmOK && ebx7&avx512fBit != 0
}

// installKernelISA installs the named implementation, clamped to what
// the CPU supports; "auto" picks the widest available.
func installKernelISA(name string) {
	want := name
	if want == "auto" {
		switch {
		case hasAVX512:
			want = "avx512"
		case hasAVX2:
			want = "avx2"
		default:
			want = "generic"
		}
	}
	switch {
	case want == "avx512" && hasAVX512:
		mulVecLanesActive, kernelISAName = mulVecLanesAVX512, "avx512"
		mulVecLanes80Active, mulVecLanes24Active = mulVecLanes80AVX512, mulVecLanes24AVX512
		scoreRows8Active = scoreRows8AVX512
		pixelNoiseActive, strokeRowActive = pixelNoiseAVX512, strokeRowAVX512
	case (want == "avx512" || want == "avx2") && hasAVX2:
		mulVecLanesActive, kernelISAName = mulVecLanesAVX2, "avx2"
		mulVecLanes80Active, mulVecLanes24Active = nil, nil
		scoreRows8Active = scoreRows8Generic
		pixelNoiseActive, strokeRowActive = pixelNoiseGeneric, strokeRowGeneric
	default:
		mulVecLanesActive, kernelISAName = mulVecLanesGeneric, "generic"
		mulVecLanes80Active, mulVecLanes24Active = nil, nil
		scoreRows8Active = scoreRows8Generic
		pixelNoiseActive, strokeRowActive = pixelNoiseGeneric, strokeRowGeneric
	}
}
