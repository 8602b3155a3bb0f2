package kernels

// vecBodies are an op's vector loops, one per run shape binRuns serves
// whole: both operands contiguous, or one of them a broadcast scalar.
// Each loop takes a multiple of vecWidth elements — binRuns hands it the
// longest such prefix of a run and finishes the rest with the op — and
// computes every element exactly as the op does, so the output is
// bit-identical whichever loop an element falls to.
type vecBodies[T, U any] struct {
	vv func(o []U, x, y []T)   // x and y contiguous
	vs func(o []U, x []T, y T) // y a broadcast scalar
	sv func(o []U, x T, y []T) // x a broadcast scalar
}

// vecWidth is the element count a vector loop iteration takes.
const vecWidth = 8

// reluOp is Relu's scalar definition, v > 0 ? v : 0, so NaN and −0 both
// give +0.
func reluOp(v float32) float32 {
	if v > 0 {
		return v
	}
	return 0
}
