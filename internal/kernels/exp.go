package kernels

import "math"

// The exp rows: Softmax's and LogSoftmax's exp-and-sum pass, Sigmoid,
// Silu and Gelu. Their scalar definitions are here and run on every
// GOARCH; on amd64, when vecExp holds, 4-lane bodies that compute
// math.Exp bit for bit take every group of four elements whose exp
// arguments lie in [−708, 709], when vecErf holds Gelu's body takes
// every group of four without a NaN, and these definitions take the
// rest (exp_amd64.go).

// expRowGo stores float32(exp(float64(v−maxV))) for each v of row into
// dst and returns sum plus those float64 exps, added one at a time in
// ascending index order.
func expRowGo(dst, row []float32, maxV float32, sum float64) float64 {
	dst = dst[:len(row)]
	for i, v := range row {
		e := math.Exp(float64(v - maxV))
		dst[i] = float32(e)
		sum += e
	}
	return sum
}

func sigmoid(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) }

func silu(v float32) float32 { return v * sigmoid(v) }

func gelu(v float32) float32 {
	return float32(0.5 * float64(v) * (1 + math.Erf(float64(v)/math.Sqrt2)))
}

var (
	sigmoidRowGo = mapF(sigmoid)
	siluRowGo    = mapF(silu)
	geluRowGo    = mapF(gelu)
)
