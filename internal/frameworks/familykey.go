package frameworks

import (
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// FamilyKey returns the shape-family key of one concrete input set, and
// whether the key is the statically proven region ("shape family") key.
//
// When the static verifier proved the memory plan over the model's
// whole input region and the concrete inputs bind inside that region,
// every such input set shares ONE key — the region proof is the shape
// family: a single verified plan serves every in-region shape. Outside
// the region (or for an unprovable model) the key degrades to the
// concrete input dtypes and dims. An empty key means the inputs do not
// name every graph input.
//
// No serving path calls it; sod2.Compiled.FamilyKey keeps it for the
// wall-clock benchmark.
func (c *Compiled) FamilyKey(inputs map[string]*tensor.Tensor) (string, bool) {
	if rep := c.Verify(); rep.Mem.Proven {
		if env, err := c.Contract().BindInputs(inputs); err == nil && rep.Region.Check(env) == nil {
			return "region", true
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
