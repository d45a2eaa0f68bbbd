//go:build !amd64

package mat

// installKernelISA on non-amd64 builds: only the portable generic
// implementation exists, whatever was asked for.
func installKernelISA(string) {
	mulVecLanesActive, kernelISAName = mulVecLanesGeneric, "generic"
	scoreRows8Active = scoreRows8Generic
	pixelNoiseActive, strokeRowActive = pixelNoiseGeneric, strokeRowGeneric
}
