//go:build !amd64

package mat

// installKernelISA on non-amd64 builds: only the portable generic
// implementation exists, whatever was asked for.
func installKernelISA(string) {
	mulVecLanesActive, kernelISAName = mulVecLanesGeneric, "generic"
	scoreRows8Active, screenRowActive, stepRowActive = scoreRows8Generic, screenRowGeneric, stepRowGeneric
	pixelNoiseActive, strokeRowActive = pixelNoiseGeneric, strokeRowGeneric
}

// halfRow on non-amd64 builds is halfRowGeneric.
func halfRow(dst []uint16, x []float64, acc *[4][16]float64) {
	halfRowGeneric(dst, x, acc)
}
