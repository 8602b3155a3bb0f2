package staticverify

import (
	"encoding/json"
	"sort"
)

// The JSON report mirrors Format()'s content with stable, documented
// field order (struct declaration order) so CI and external tooling can
// consume diagnostics without parsing the human format. Absent optional
// sections are omitted rather than emitted as zero values.

// JSONRegionEntry is one symbol's interval, sorted by symbol.
type JSONRegionEntry struct {
	Symbol   string `json:"symbol"`
	Interval string `json:"interval"`
}

// JSONDiagnostic is one finding.
type JSONDiagnostic struct {
	Severity string `json:"severity"`
	Code     string `json:"code"`
	Node     string `json:"node,omitempty"`
	Value    string `json:"value,omitempty"`
	Detail   string `json:"detail"`
}

// JSONReport is the machine-readable form of a Report.
type JSONReport struct {
	Model       string            `json:"model"`
	Nodes       int               `json:"nodes"`
	Region      []JSONRegionEntry `json:"region,omitempty"`
	ExecProven  bool              `json:"exec_proven"`
	ExecReason  string            `json:"exec_reason,omitempty"`
	MemProven   bool              `json:"mem_proven"`
	MemReason   string            `json:"mem_reason,omitempty"`
	MemBuffers  int               `json:"mem_buffers,omitempty"`
	MemArena    int64             `json:"mem_arena_bytes,omitempty"`
	Errors      int               `json:"errors"`
	Diagnostics []JSONDiagnostic  `json:"diagnostics"`
}

// JSONReportOf converts a Report (diagnostics already sorted by
// Analyze) into its machine-readable form.
func JSONReportOf(r *Report) JSONReport {
	out := JSONReport{
		Model:      r.Model,
		Nodes:      r.NodeCount,
		ExecProven: r.Exec.Proven,
		ExecReason: r.Exec.Reason,
		MemProven:  r.Mem.Proven,
		MemReason:  r.Mem.Reason,
		MemBuffers: r.Mem.Buffers,
		MemArena:   r.Mem.ArenaSize,
		Errors:     r.Errors(),
	}
	syms := make([]string, 0, len(r.Region))
	for s := range r.Region {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	for _, s := range syms {
		out.Region = append(out.Region, JSONRegionEntry{Symbol: s, Interval: r.Region[s].String()})
	}
	out.Diagnostics = make([]JSONDiagnostic, 0, len(r.Diagnostics))
	for _, d := range r.Diagnostics {
		out.Diagnostics = append(out.Diagnostics, JSONDiagnostic{
			Severity: d.Severity.String(),
			Code:     d.Code,
			Node:     d.Node,
			Value:    d.Value,
			Detail:   d.Detail,
		})
	}
	return out
}

// FormatJSON renders the report as indented JSON with a trailing
// newline. Field order is fixed by the JSONReport declaration, so
// byte-identical output means identical findings — the same golden
// property Format() has.
func (r *Report) FormatJSON() (string, error) {
	b, err := json.MarshalIndent(JSONReportOf(r), "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}
