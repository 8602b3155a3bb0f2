//go:build !amd64

package kernels

// Off amd64 no op has vector loops: binRuns runs Add and Mul through
// their scalar definitions, and Relu maps through reluOp as the other
// unaries map through theirs.
var (
	addVec, mulVec *vecBodies[float32, float32]
	relu           = mapF(reluOp)
)
