//go:build !amd64

package kernels

// Off amd64 no op has vector loops: binRuns runs Add and Mul through
// their scalar definitions, Relu maps through reluOp as the other
// unaries map through theirs, and GroupNorm's last pass is its scalar
// definition.
var (
	addVec, mulVec *vecBodies[float32, float32]
	relu           = mapF(reluOp)
	normAffine     = normAffineGo
)
