package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Manifest is the decoded content of one artifact: every compiled
// decision worth persisting, as plain data. It deliberately contains no
// pointers into the live graph — node references are by name, symbolic
// intervals are (lo, hi, stride) triples — so the format is stable
// against refactors of the in-memory representations, and a loaded
// manifest can be validated field by field before anything trusts it.
//
// The manifest stores *decisions* (the SEP order, the proven arena
// offsets, the analyzed facts and region) plus *fingerprints* of the
// analyses that produced them (the RDP shape digest, the verifier
// verdicts). Cheap, deterministic derivations — the RDP fusion groups,
// the If/Loop bodies' sub-graphs — are recomputed at load; expensive
// searches are reused; and the fingerprints let verify-on-load detect a
// binary whose analyses have drifted since the artifact was written
// (reported as version skew even when the schema number still matches).
type Manifest struct {
	// Meta identifies the compile that produced the artifact.
	Meta MetaSection
	// RDP fingerprints the analysis fixed point.
	RDP RDPSection
	// SEP is the planned execution order and its partition metadata.
	SEP SEPSection
	// Region is the verified shape region, symbol → strided interval.
	Region map[string]IntervalDTO
	// Facts are the analyzed input facts the runtime contract checks.
	Facts []FactDTO
	// MemPlan is the region-wide proven arena plan (nil when the memory
	// proof did not succeed at compile time).
	MemPlan *MemPlanSection
	// Quant persists the weight-quantization pass: the packed bytes of
	// every quantized initializer plus the accuracy-drift budget (nil
	// when the compile served float32 weights). Re-quantizing at load
	// would be cheap but is deliberately avoided — the served bytes must
	// be the verified bytes, not a re-derivation that a quantizer change
	// could silently skew.
	Quant *QuantSection
	// Verdicts pin the static-verifier outcome the loader must be able
	// to reproduce.
	Verdicts VerdictSection
}

// MetaSection identifies the compile.
type MetaSection struct {
	Model     string `json:"model"`
	ModelHash string `json:"model_hash"`
	Device    string `json:"device"`
	NodeCount int    `json:"node_count"`
}

// RDPSection fingerprints the RDP fixed point: iteration counts for
// observability, and a digest over every (value, shape) pair so a
// loader whose analyzer resolves shapes differently detects the drift.
type RDPSection struct {
	Iterations       int    `json:"iterations"`
	BackwardResolved int    `json:"backward_resolved"`
	ShapeDigest      string `json:"shape_digest"`
}

// SEPSection is the memory-minimal planned execution order (§4.3) —
// the expensive search the warm boot skips — plus the top-level
// sub-graph partition metadata. Nodes are referenced by name; the
// loader maps them back and fails as corrupt if any name is unknown,
// duplicated, or missing.
type SEPSection struct {
	Order     []string       `json:"order"`
	PeakBytes int64          `json:"peak_bytes"`
	Subgraphs []SubgraphMeta `json:"subgraphs"`
}

// SubgraphMeta is one planning region's metadata.
type SubgraphMeta struct {
	ID       int      `json:"id"`
	Class    uint8    `json:"class"`
	Method   string   `json:"method"`
	Versions int      `json:"versions"`
	Nodes    []string `json:"nodes"`
}

// IntervalDTO is a strided interval {Lo, Lo+Stride, ..., Hi}.
type IntervalDTO struct {
	Lo     int64 `json:"lo"`
	Hi     int64 `json:"hi"`
	Stride int64 `json:"stride"`
}

// FactDTO is one analyzed input fact (range or divisibility).
type FactDTO struct {
	Symbol string `json:"symbol"`
	Kind   uint8  `json:"kind"`
	Min    int64  `json:"min,omitempty"`
	Max    int64  `json:"max,omitempty"`
	Mod    int64  `json:"mod,omitempty"`
	Rem    int64  `json:"rem,omitempty"`
}

// MemPlanSection is the region-wide worst-case arena plan the memory
// proof produced: byte offsets per buffer and the arena size. The
// loader re-proves the plan and requires bit-identical offsets — a
// mismatch means the planner or the proof changed underneath the
// artifact.
type MemPlanSection struct {
	ArenaSize int64            `json:"arena_size"`
	Strategy  string           `json:"strategy"`
	Offsets   map[string]int64 `json:"offsets"`
}

// QuantSection persists a quantized compile's packed weights and its
// accuracy-drift contract. The loader treats every field as untrusted:
// each tensor's row grid is re-validated against the freshly built
// graph's initializer shape before the packed bytes replace it.
type QuantSection struct {
	// Format is the packed storage format name ("int8").
	Format string `json:"format"`
	// MaxAbs/MaxRel are the drift budget the compile enforced.
	MaxAbs float64 `json:"max_abs,omitempty"`
	MaxRel float64 `json:"max_rel,omitempty"`
	// Skipped counts weight-position initializers the pass left float32.
	Skipped int `json:"skipped"`
	// Tensors are the packed initializers.
	Tensors []QuantTensorDTO `json:"tensors"`
}

// QuantTensorDTO is one packed initializer: its row grid, the per-row
// scale table, and the code payload (base64 in JSON).
type QuantTensorDTO struct {
	Name   string    `json:"name"`
	Shape  []int64   `json:"shape"`
	Rows   int64     `json:"rows"`
	Cols   int64     `json:"cols"`
	Scales []float32 `json:"scales"`
	Data   []byte    `json:"data"`
}

// VerdictSection pins the compile-time verifier outcome. Verify-on-load
// must reproduce it exactly; any disagreement is a proof mismatch.
type VerdictSection struct {
	ExecProven   bool     `json:"exec_proven"`
	MemProven    bool     `json:"mem_proven"`
	MemReason    string   `json:"mem_reason,omitempty"`
	MemArenaSize int64    `json:"mem_arena_size"`
	MemBuffers   int      `json:"mem_buffers"`
	LintErrors   int      `json:"lint_errors"`
	DiagCodes    []string `json:"diag_codes,omitempty"`
}

// Section names. meta/rdp/sep/region/facts/verdicts are required;
// memplan/quant are present only when the compile produced them.
const (
	secMeta     = "meta"
	secRDP      = "rdp"
	secSEP      = "sep"
	secRegion   = "region"
	secFacts    = "facts"
	secMemPlan  = "memplan"
	secQuant    = "quant"
	secVerdicts = "verdicts"
)

// encodeSections renders the manifest as framed sections in a stable
// order (JSON payloads: human-inspectable with dd+jq, and resilient to
// field additions within one schema version).
func (m *Manifest) encodeSections() ([]section, error) {
	var out []section
	add := func(name string, v interface{}) error {
		payload, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("encode section %q: %w", name, err)
		}
		out = append(out, section{name: name, payload: payload})
		return nil
	}
	if err := add(secMeta, &m.Meta); err != nil {
		return nil, err
	}
	if err := add(secRDP, &m.RDP); err != nil {
		return nil, err
	}
	if err := add(secSEP, &m.SEP); err != nil {
		return nil, err
	}
	if err := add(secRegion, m.Region); err != nil {
		return nil, err
	}
	if err := add(secFacts, m.Facts); err != nil {
		return nil, err
	}
	if m.MemPlan != nil {
		if err := add(secMemPlan, m.MemPlan); err != nil {
			return nil, err
		}
	}
	if m.Quant != nil {
		if err := add(secQuant, m.Quant); err != nil {
			return nil, err
		}
	}
	if err := add(secVerdicts, &m.Verdicts); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeSections rebuilds a Manifest from integrity-checked sections.
// Decoding failures and missing required sections are corruption, not
// bugs: the checksum proves the bytes are what was written, so bad
// content means the writer and reader disagree about the schema.
func decodeSections(path string, sections map[string][]byte) (*Manifest, *CorruptError) {
	m := &Manifest{}
	dec := func(name string, v interface{}, required bool) *CorruptError {
		payload, ok := sections[name]
		if !ok {
			if required {
				return &CorruptError{Path: path, Section: name, Reason: "schema",
					Detail: "required section missing"}
			}
			return nil
		}
		if err := json.Unmarshal(payload, v); err != nil {
			return &CorruptError{Path: path, Section: name, Reason: "decode", Err: err}
		}
		return nil
	}
	if ce := dec(secMeta, &m.Meta, true); ce != nil {
		return nil, ce
	}
	if ce := dec(secRDP, &m.RDP, true); ce != nil {
		return nil, ce
	}
	if ce := dec(secSEP, &m.SEP, true); ce != nil {
		return nil, ce
	}
	if ce := dec(secRegion, &m.Region, true); ce != nil {
		return nil, ce
	}
	if ce := dec(secFacts, &m.Facts, true); ce != nil {
		return nil, ce
	}
	if _, ok := sections[secMemPlan]; ok {
		m.MemPlan = &MemPlanSection{}
		if ce := dec(secMemPlan, m.MemPlan, true); ce != nil {
			return nil, ce
		}
	}
	if _, ok := sections[secQuant]; ok {
		m.Quant = &QuantSection{}
		if ce := dec(secQuant, m.Quant, true); ce != nil {
			return nil, ce
		}
	}
	if ce := dec(secVerdicts, &m.Verdicts, true); ce != nil {
		return nil, ce
	}
	return m, nil
}

// HashBytes fingerprints content (the canonical graph serialization)
// into the hex model-hash key component.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}
