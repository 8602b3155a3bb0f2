package frameworks

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/fusion"
	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/models"
	"repro/internal/plan"
	"repro/internal/rdp"
	"repro/internal/staticverify"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// This file is the bridge between the live Compiled and the on-disk
// artifact store: Snapshot serializes a compiled+verified model into an
// artifact.Manifest, CompileWithStore boots a model through the store
// (warm when a valid artifact exists, cold otherwise), and the loader
// treats everything it reads as untrusted — names are re-resolved
// against the freshly built graph, the static verifier re-proves the
// loaded plans (verify-on-load), and the re-proof is cross-checked
// against the stored verdicts. Any disagreement quarantines the file
// and falls back to a full recompile; a warm boot can therefore be
// slower than promised, but never wrong.

// ModelHash fingerprints a built graph (structure + weights) through
// its canonical JSON serialization — the model-hash component of the
// store key. Two binaries that build byte-identical graphs share
// artifacts; any model edit misses cleanly.
func ModelHash(g *graph.Graph) (string, error) {
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		return "", fmt.Errorf("frameworks: hash model: %w", err)
	}
	return artifact.HashBytes(buf.Bytes()), nil
}

// shapeDigest fingerprints the RDP fixed point: every (value, shape,
// tracked-value) pair in sorted order. A loader whose analyzer resolves
// the same graph differently detects the drift as version skew instead
// of re-proving plans against shapes they were not planned for.
func shapeDigest(infos map[string]lattice.Info) string {
	names := make([]string, 0, len(infos))
	for name := range infos {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(infos[name].String())
		b.WriteByte('\n')
	}
	return artifact.HashBytes([]byte(b.String()))
}

// Snapshot serializes a compiled and verified model into a manifest for
// the artifact store. rep must be the model's current static-verifier
// report (c.Verify()).
func Snapshot(c *Compiled, rep *staticverify.Report, key artifact.Key) *artifact.Manifest {
	m := &artifact.Manifest{
		Meta: artifact.MetaSection{
			Model:     c.Builder.Name,
			ModelHash: key.ModelHash,
			Device:    key.Device,
			NodeCount: len(c.Graph.Nodes),
		},
		RDP: artifact.RDPSection{
			Iterations:       c.RDPResult.Iterations,
			BackwardResolved: c.RDPResult.BackwardResolved,
			ShapeDigest:      shapeDigest(c.Infos),
		},
	}

	// SEP: the planned order plus top-level sub-graph metadata. Body
	// (If/Loop) sub-graphs are recomputed at load — their nodes live in
	// attribute graphs, not the top-level node table the loader resolves
	// names against.
	topLevel := make(map[*graph.Node]bool, len(c.Graph.Nodes))
	for _, n := range c.Graph.Nodes {
		topLevel[n] = true
	}
	m.SEP.Order = nodeNames(c.ExecPlan.Order)
	m.SEP.PeakBytes = c.ExecPlan.PeakBytes
	for _, sg := range c.ExecPlan.Subgraphs {
		all := true
		for _, n := range sg.Nodes {
			if !topLevel[n] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		m.SEP.Subgraphs = append(m.SEP.Subgraphs, artifact.SubgraphMeta{
			ID: sg.ID, Class: uint8(sg.Class), Method: sg.Method,
			Versions: sg.Versions, Nodes: nodeNames(sg.Nodes),
		})
	}

	m.Region = map[string]artifact.IntervalDTO{}
	for sym, iv := range rep.Region {
		m.Region[sym] = artifact.IntervalDTO{Lo: iv.Lo, Hi: iv.Hi, Stride: iv.Stride}
	}

	if rep.Mem.Proven && rep.Mem.Plan != nil {
		offs := make(map[string]int64, len(rep.Mem.Plan.Offsets))
		for name, off := range rep.Mem.Plan.Offsets {
			offs[name] = off
		}
		m.MemPlan = &artifact.MemPlanSection{
			ArenaSize: rep.Mem.Plan.ArenaSize,
			Strategy:  rep.Mem.Plan.Strategy,
			Offsets:   offs,
		}
	}

	// Quantized weights are persisted byte-for-byte: the warm boot
	// serves exactly the packed bytes this compile verified and served,
	// never a re-quantization that a quantizer change could skew.
	if c.Quant != nil && c.Quant.Tensors > 0 {
		qs := &artifact.QuantSection{
			Format:  c.Quant.Format.String(),
			MaxAbs:  c.Quant.Budget.MaxAbs,
			MaxRel:  c.Quant.Budget.MaxRel,
			Skipped: c.Quant.Skipped,
		}
		names := make([]string, 0, len(c.floatInits))
		for name := range c.floatInits {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t := c.Graph.Initializers[name]
			if t == nil || t.Q == nil {
				continue
			}
			qs.Tensors = append(qs.Tensors, artifact.QuantTensorDTO{
				Name: name, Shape: t.Shape, Rows: t.Q.Rows, Cols: t.Q.Cols,
				Scales: t.Q.Scales, Data: t.Q.Data,
			})
		}
		m.Quant = qs
	}

	m.Verdicts = artifact.VerdictSection{
		ExecProven:   rep.Exec.Proven,
		MemProven:    rep.Mem.Proven,
		MemReason:    rep.Mem.Reason,
		MemArenaSize: rep.Mem.ArenaSize,
		MemBuffers:   rep.Mem.Buffers,
		LintErrors:   rep.Errors(),
		DiagCodes:    diagCodes(rep),
	}
	return m
}

func nodeNames(nodes []*graph.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name
	}
	return out
}

// diagCodes returns the sorted distinct diagnostic codes of a report —
// the stable fingerprint of the lint verdict.
func diagCodes(rep *staticverify.Report) []string {
	seen := map[string]bool{}
	for _, d := range rep.Diagnostics {
		seen[d.Code] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// loadError is an internal, pre-quarantine description of why a loaded
// manifest cannot be trusted. CompileWithStore converts it into a
// quarantine + *artifact.CorruptError.
type loadError struct {
	section, reason, detail string
}

func (e *loadError) Error() string {
	return fmt.Sprintf("%s [%s]: %s", e.section, e.reason, e.detail)
}

// compileFromManifest reconstructs a Compiled from a manifest, treating
// every stored reference as untrusted: node names must resolve against
// the freshly built graph exactly once, and the RDP digest must match
// this binary's analysis. Cheap derivations (the RDP fusion plan, body
// sub-graphs) are recomputed; the SEP search is not — that is the work
// the store exists to skip.
func compileFromManifest(b *models.Builder, g *graph.Graph, man *artifact.Manifest, cfg SchedConfig) (*Compiled, *loadError) {
	// Config/section agreement: the key separates quantized and float
	// artifacts, so a stored quant section that disagrees with the
	// requested compile means the file was moved or the writer lied.
	wantQuant, gotQuant := "", ""
	if cfg.Quant.Format.IsQuantized() {
		wantQuant = cfg.Quant.Format.String()
	}
	if man.Quant != nil {
		gotQuant = man.Quant.Format
	}
	if wantQuant != gotQuant {
		return nil, &loadError{"quant", "version-skew",
			fmt.Sprintf("artifact quant config %q, compile requested %q", gotQuant, wantQuant)}
	}

	res, err := rdp.Analyze(g, nil, rdp.Options{})
	if err != nil {
		return nil, &loadError{"rdp", "graph-mismatch", err.Error()}
	}

	if man.Meta.NodeCount != len(g.Nodes) {
		return nil, &loadError{"meta", "graph-mismatch",
			fmt.Sprintf("artifact has %d nodes, graph has %d", man.Meta.NodeCount, len(g.Nodes))}
	}
	if got := shapeDigest(res.Infos); got != man.RDP.ShapeDigest {
		return nil, &loadError{"rdp", "version-skew",
			fmt.Sprintf("RDP shape digest %s, artifact was compiled against %s", got, man.RDP.ShapeDigest)}
	}

	byName := make(map[string]*graph.Node, len(g.Nodes))
	for _, n := range g.Nodes {
		byName[n.Name] = n
	}
	resolve := func(section string, names []string) ([]*graph.Node, *loadError) {
		out := make([]*graph.Node, len(names))
		for i, name := range names {
			n, ok := byName[name]
			if !ok {
				return nil, &loadError{section, "graph-mismatch",
					fmt.Sprintf("node %q not in graph", name)}
			}
			out[i] = n
		}
		return out, nil
	}

	// The stored order must schedule every top-level node exactly once.
	if len(man.SEP.Order) != len(g.Nodes) {
		return nil, &loadError{"sep", "graph-mismatch",
			fmt.Sprintf("order has %d steps, graph has %d nodes", len(man.SEP.Order), len(g.Nodes))}
	}
	order, lerr := resolve("sep", man.SEP.Order)
	if lerr != nil {
		return nil, lerr
	}
	seen := make(map[*graph.Node]bool, len(order))
	for _, n := range order {
		if seen[n] {
			return nil, &loadError{"sep", "graph-mismatch",
				fmt.Sprintf("node %q scheduled twice", n.Name)}
		}
		seen[n] = true
	}

	c := &Compiled{Builder: b, Graph: g, Infos: res.Infos, RDPResult: res,
		OrigGraph: g, OrigInfos: res.Infos}
	c.presetRegion = staticverify.Region{}
	for sym, iv := range man.Region {
		c.presetRegion[sym] = symbolic.NewInterval(iv.Lo, iv.Hi, iv.Stride)
	}
	c.FusionRDP = fusion.Fuse(g, res.Infos, fusion.RDP)
	c.ExecPlan = &plan.Plan{Order: order, PeakBytes: man.SEP.PeakBytes}
	for _, sm := range man.SEP.Subgraphs {
		nodes, lerr := resolve("sep", sm.Nodes)
		if lerr != nil {
			return nil, lerr
		}
		c.ExecPlan.Subgraphs = append(c.ExecPlan.Subgraphs, &plan.Subgraph{
			ID: sm.ID, Nodes: nodes, Class: plan.SubgraphClass(sm.Class),
			Versions: sm.Versions, Method: sm.Method,
		})
	}
	c.compileSubgraphs()
	// Quantization replay last, mirroring the cold pipeline: the stored
	// packed bytes replace the float weights only after every plan is
	// reconstructed against the float graph.
	if man.Quant != nil {
		if lerr := c.restoreQuant(man.Quant); lerr != nil {
			return nil, lerr
		}
	}
	return c, nil
}

// restoreQuant replays a stored quant section onto a reconstructed
// Compiled: every packed tensor is validated against the freshly built
// graph's float32 initializer (shape, grid coverage, payload lengths,
// finite scales) before it is swapped in. Mirrors applyQuantization's
// install exactly — shallow graph copy, float originals kept for the
// fallback tier.
func (c *Compiled) restoreQuant(qs *artifact.QuantSection) *loadError {
	format, ok := tensor.DTypeByName(qs.Format)
	if !ok || !format.IsQuantized() {
		return &loadError{"quant", "decode",
			fmt.Sprintf("unknown quant format %q", qs.Format)}
	}
	rep := &QuantReport{Format: format, Skipped: qs.Skipped,
		Budget: guard.QuantBudget{MaxAbs: qs.MaxAbs, MaxRel: qs.MaxRel}}
	packed := make(map[string]*tensor.Tensor, len(c.Graph.Initializers))
	for k, v := range c.Graph.Initializers {
		packed[k] = v
	}
	floatInits := make(map[string]*tensor.Tensor, len(qs.Tensors))
	for _, dto := range qs.Tensors {
		orig := c.Graph.Initializers[dto.Name]
		if orig == nil || orig.DType != tensor.Float32 {
			return &loadError{"quant", "graph-mismatch",
				fmt.Sprintf("packed tensor %q is not a float32 initializer of the graph", dto.Name)}
		}
		if !slices.Equal(orig.Shape, dto.Shape) {
			return &loadError{"quant", "graph-mismatch",
				fmt.Sprintf("packed tensor %q shape %v, graph has %v", dto.Name, dto.Shape, orig.Shape)}
		}
		qd := &tensor.QuantData{Format: format, Rows: dto.Rows, Cols: dto.Cols,
			Scales: dto.Scales, Data: dto.Data}
		if err := qd.Validate(orig.Shape); err != nil {
			return &loadError{"quant", "decode", err.Error()}
		}
		qt := &tensor.Tensor{DType: format, Shape: append([]int64(nil), orig.Shape...), Q: qd}
		packed[dto.Name] = qt
		floatInits[dto.Name] = orig
		rep.Tensors++
		rep.FloatBytes += orig.Bytes()
		rep.QuantBytes += qt.Bytes()
	}
	c.Quant = rep
	if rep.Tensors == 0 {
		return nil
	}
	qg := *c.Graph
	qg.Initializers = packed
	c.Graph = &qg
	c.floatInits = floatInits
	return nil
}

// crossCheckVerdicts compares a verify-on-load report against the
// verdicts stored with the artifact. The loaded plans are served only
// if this binary proves exactly what the compiling binary proved —
// same verdicts, same arena footprints, bit-identical offsets, same
// lint fingerprint. Anything else means the analyses drifted (or the
// file lies) and the artifact must not be trusted.
func crossCheckVerdicts(rep *staticverify.Report, man *artifact.Manifest) *loadError {
	v := man.Verdicts
	mismatch := func(detail string) *loadError {
		return &loadError{"verdicts", "proof-mismatch", detail}
	}
	if !rep.Exec.Proven {
		return mismatch("stored execution plan no longer proves: " + rep.Exec.Reason)
	}
	if rep.Exec.Proven != v.ExecProven {
		return mismatch("execution-plan verdict drifted")
	}
	if rep.Mem.Proven != v.MemProven {
		return mismatch(fmt.Sprintf("memory verdict drifted: stored proven=%v, re-proof proven=%v (%s)",
			v.MemProven, rep.Mem.Proven, rep.Mem.Reason))
	}
	if rep.Mem.Proven {
		if rep.Mem.ArenaSize != v.MemArenaSize || rep.Mem.Buffers != v.MemBuffers {
			return mismatch(fmt.Sprintf("memory proof drifted: stored arena %d (%d bufs), re-proof %d (%d bufs)",
				v.MemArenaSize, v.MemBuffers, rep.Mem.ArenaSize, rep.Mem.Buffers))
		}
		if man.MemPlan == nil {
			return mismatch("memory proven but plan section missing")
		}
		if len(rep.Mem.Plan.Offsets) != len(man.MemPlan.Offsets) {
			return mismatch(fmt.Sprintf("memory plan has %d buffers, artifact stored %d",
				len(rep.Mem.Plan.Offsets), len(man.MemPlan.Offsets)))
		}
		for name, off := range rep.Mem.Plan.Offsets {
			stored, ok := man.MemPlan.Offsets[name]
			if !ok || stored != off {
				return mismatch(fmt.Sprintf("offset of %q drifted: stored %d, re-proof %d", name, stored, off))
			}
		}
	}
	if got := rep.Errors(); got != v.LintErrors {
		return mismatch(fmt.Sprintf("lint verdict drifted: stored %d errors, re-run %d", v.LintErrors, got))
	}
	if got := diagCodes(rep); !slices.Equal(got, v.DiagCodes) {
		return mismatch(fmt.Sprintf("diagnostic codes drifted: stored %v, re-run %v", v.DiagCodes, got))
	}
	return nil
}

// BootInfo describes how one model came up through the store.
type BootInfo struct {
	Model string
	Key   artifact.Key
	// Warm reports the model was reconstructed from a stored artifact
	// (verify-on-load passed); false means a full cold compile ran.
	Warm bool
	// BootMS is the end-to-end boot time; VerifyMS the static-verifier
	// share of it (cold compile-time verification, or verify-on-load).
	BootMS, VerifyMS float64
	// Saved reports a cold boot persisted its artifact; SaveErr records
	// a failed save (non-fatal: serving proceeds from memory).
	Saved   bool
	SaveErr error
	// CorruptFallback is non-nil when a stored artifact existed but was
	// refused — torn, checksum/version failure, or a failed
	// verify-on-load proof. It is always a *artifact.CorruptError; the
	// file has been quarantined and the model recompiled cold.
	CorruptFallback error
}

// CompileWithStore boots one model through the artifact store:
//
//   - store hit + verify-on-load pass → warm boot (the SEP search is
//     skipped; the static verifier re-proves
//     the loaded plans before anything serves from them);
//   - store miss → cold compile + verify, then a crash-safe save;
//   - corrupt artifact (torn/checksum/version-skew at load, or a failed
//     verify-on-load cross-check) → the file is quarantined, the model
//     recompiles cold, and BootInfo.CorruptFallback carries the typed
//     *artifact.CorruptError. Corruption never panics and never fails
//     the boot.
//
// st may be nil (pure cold compile, nothing persisted). The device
// string only keys the artifact.
func CompileWithStore(b *models.Builder, st *artifact.Store, device string) (*Compiled, *staticverify.Report, BootInfo, error) {
	return CompileWithStoreSched(b, st, device, SchedConfig{})
}

// CompileWithStoreSched is CompileWithStore with an explicit compile
// configuration; its quantization format also keys the artifact.
func CompileWithStoreSched(b *models.Builder, st *artifact.Store, device string, cfg SchedConfig) (*Compiled, *staticverify.Report, BootInfo, error) {
	start := time.Now()
	info := BootInfo{Model: b.Name}
	g, err := buildGraph(b)
	if err != nil {
		return nil, nil, info, err
	}
	hash, err := ModelHash(g)
	if err != nil {
		return nil, nil, info, err
	}
	key := artifact.Key{ModelHash: hash, Device: device}
	if cfg.Quant.Format.IsQuantized() {
		// Distinct weight formats of one model never share an artifact:
		// the packed bytes and the drift budget differ even though the
		// graph hash is the same.
		key.Config = cfg.Quant.Format.String()
	}
	info.Key = key

	if st != nil {
		man, lerr := st.Load(key)
		switch {
		case lerr == nil:
			c, rep, cerr := bootFromManifest(b, g, man, st, key, &info, cfg)
			if cerr == nil {
				info.Warm = true
				info.BootMS = msSince(start)
				return c, rep, info, nil
			}
			info.CorruptFallback = cerr
		case errors.Is(lerr, artifact.ErrNotFound):
			// Clean miss: cold compile below.
		default:
			// Corrupt (already quarantined by the store) or I/O failure:
			// either way the boot proceeds cold — a broken store degrades
			// startup latency, never availability.
			info.CorruptFallback = lerr
		}
	}

	c, err := compileGraph(b, g, cfg)
	if err != nil {
		return nil, nil, info, err
	}
	vstart := time.Now()
	rep := c.Verify()
	info.VerifyMS = msSince(vstart)
	if st != nil {
		if err := st.Save(key, Snapshot(c, rep, key)); err != nil {
			info.SaveErr = err
		} else {
			info.Saved = true
		}
	}
	info.BootMS = msSince(start)
	return c, rep, info, nil
}

// bootFromManifest reconstructs, verifies-on-load, and cross-checks a
// loaded artifact, quarantining it on any refusal.
func bootFromManifest(b *models.Builder, g *graph.Graph, man *artifact.Manifest,
	st *artifact.Store, key artifact.Key, info *BootInfo, cfg SchedConfig) (*Compiled, *staticverify.Report, *artifact.CorruptError) {
	c, lerr := compileFromManifest(b, g, man, cfg)
	if lerr == nil {
		vstart := time.Now()
		rep := c.Verify() // verify-on-load: the loaded plans are untrusted until re-proven
		info.VerifyMS = msSince(vstart)
		if lerr = crossCheckVerdicts(rep, man); lerr == nil {
			compileCounters.warmLoads.Add(1)
			return c, rep, nil
		}
	}
	return nil, nil, st.Quarantine(key, lerr.section, lerr.reason, lerr.detail)
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}
