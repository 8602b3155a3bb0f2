package kernels

// Add and Mul run their SSE2 loops (runbody_amd64.s) through binRuns;
// Relu runs its loop over the largest multiple of vecWidth elements of a
// stripe and reluOp over the rest. Sub, Div, Max and Min have no loops:
// no model runs them on runs long enough to measure one.
var (
	addVec   = &vecBodies[float32, float32]{addVVSSE, addVSSSE, addSVSSE}
	mulVec   = &vecBodies[float32, float32]{mulVVSSE, mulVSSSE, mulSVSSE}
	reluTail = mapF(reluOp)
)

func relu(o, x []float32) {
	n := len(x) &^ (vecWidth - 1)
	reluSSE(o[:n], x[:n])
	reluTail(o[n:], x[n:])
}

// normAffine is normAffineGo: its SSE2 loop over the largest multiple of
// vecWidth elements, then the scalar definition over the rest.
func normAffine(o, x []float32, s, m, inv, b float32) {
	n := len(x) &^ (vecWidth - 1)
	normAffineSSE(o[:n], x[:n], s, m, inv, b)
	normAffineGo(o[n:len(x)], x[n:], s, m, inv, b)
}

// The SSE2 loops take len(o), a multiple of vecWidth, elements; a vector
// operand must be at least as long (runbody_amd64.s).

//go:noescape
func addVVSSE(o, x, y []float32)

//go:noescape
func addVSSSE(o, x []float32, y float32)

//go:noescape
func addSVSSE(o []float32, x float32, y []float32)

//go:noescape
func mulVVSSE(o, x, y []float32)

//go:noescape
func mulVSSSE(o, x []float32, y float32)

//go:noescape
func mulSVSSE(o []float32, x float32, y []float32)

//go:noescape
func reluSSE(o, x []float32)

//go:noescape
func normAffineSSE(o, x []float32, s, m, inv, b float32)
