package frameworks

import (
	"repro/internal/models"
	"repro/internal/staticverify"
)

// CompileVerified runs the serving compile (CompileServing) and then the static
// plan verifier: symbolic-range analysis over the model's input region,
// execution-plan and liveness proofs, the region-wide memory-plan proof,
// and the graph lint pass. When the memory plan is proven, guarded runs
// whose input shapes fall inside the region are served with the proven
// plan — one verification amortized over every shape in the region
// (GuardReport.RegionCacheHit). A plain Compile serves identically: its
// first guarded run obtains the same memoized proof through Verify.
// Requests of an unprovable model run with dynamic allocation (a
// KindMemPlan degradation); the report records why.
func CompileVerified(b *models.Builder) (*Compiled, *staticverify.Report, error) {
	return CompileVerifiedSched(b, SchedConfig{})
}

// CompileVerifiedSched is CompileVerified with an explicit compile
// configuration (weight quantization).
func CompileVerifiedSched(b *models.Builder, cfg SchedConfig) (*Compiled, *staticverify.Report, error) {
	c, err := CompileServing(b, cfg)
	if err != nil {
		return nil, nil, err
	}
	return c, c.Verify(), nil
}

// Verify runs (and memoizes) the static plan verifier over the compiled
// model. Safe for concurrent use; Invalidate() drops the memo so a
// mutated artifact is never served from a stale proof.
func (c *Compiled) Verify() *staticverify.Report {
	if r := c.verified.Load(); r != nil {
		return r
	}
	c.verifyMu.Lock()
	defer c.verifyMu.Unlock()
	if r := c.verified.Load(); r != nil {
		return r
	}
	name := c.Graph.Name
	if c.Builder != nil {
		name = c.Builder.Name
	}
	gen := c.verifyGen.Load()
	compileCounters.verifyRuns.Add(1)
	r := staticverify.Analyze(staticverify.Input{
		Model:  name,
		Graph:  c.Graph,
		Infos:  c.Infos,
		Order:  c.ExecPlan.Order,
		Region: c.presetRegion,
	})
	// Memoize only if no Invalidate raced this analysis; a stale proof
	// must not be resurrected into the region fast path.
	if c.verifyGen.Load() == gen {
		c.verified.Store(r)
	}
	return r
}
