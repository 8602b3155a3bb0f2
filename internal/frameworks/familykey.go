package frameworks

import (
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// FamilyKey returns the shape-family bucket key the serving layer
// coalesces cross-request batches under, and whether the key is the
// statically proven region ("shape family") key.
//
// When the static verifier proved the memory plan over the model's
// whole input region and the concrete inputs bind inside that region,
// every such request shares ONE key — the region proof is the shape
// family: a single verified plan (and a single admission reservation)
// serves every in-region shape, so requests for different in-region
// shapes may still ride the same coalesced batch. Outside the region
// (or for an unprovable model) the key degrades to the concrete input
// dtypes and dims: only identically-shaped requests coalesce.
//
// An empty key (inputs that do not even name every graph input) means
// the request cannot be bucketed; callers should serve it individually
// and let the guarded run surface the structured error.
func (c *Compiled) FamilyKey(inputs map[string]*tensor.Tensor) (string, bool) {
	if rep := c.Verify(); rep.Mem.Proven {
		if env, err := c.Contract().BindInputs(inputs); err == nil && rep.Region.ContainsEnv(env) {
			return "region|spec:" + c.specDigest, true
		}
	}
	var sb strings.Builder
	for _, in := range c.Graph.Inputs {
		t := inputs[in.Name]
		if t == nil {
			return "", false
		}
		sb.WriteString(strconv.Itoa(int(t.DType)))
		for _, d := range t.Shape {
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatInt(d, 10))
		}
		sb.WriteByte(';')
	}
	return sb.String(), false
}
