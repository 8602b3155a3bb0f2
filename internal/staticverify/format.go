package staticverify

import (
	"fmt"
	"strings"
)

// Format renders the report as the stable, deterministic text the
// `sod2 lint` command prints and the golden-snapshot tests pin. Every
// line is sorted or ordered by construction, so byte-identical output
// means identical findings.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model %s: %d nodes\n", r.Model, r.NodeCount)

	syms := r.Region.Symbols()
	if len(syms) == 0 {
		b.WriteString("region: (none)\n")
	} else {
		parts := make([]string, len(syms))
		for i, s := range syms {
			parts[i] = fmt.Sprintf("%s∈%s", s, r.Region[s])
		}
		fmt.Fprintf(&b, "region: %s\n", strings.Join(parts, " "))
	}

	if r.Exec.Proven {
		b.WriteString("exec plan: proven\n")
	} else {
		fmt.Fprintf(&b, "exec plan: UNPROVEN (%s)\n", r.Exec.Reason)
	}
	if r.Mem.Proven {
		fmt.Fprintf(&b, "memory plan: proven (%d buffers, arena %d bytes, all shapes in region)\n",
			r.Mem.Buffers, r.Mem.ArenaSize)
	} else {
		fmt.Fprintf(&b, "memory plan: UNPROVEN (%s)\n", r.Mem.Reason)
	}

	if len(r.Diagnostics) == 0 {
		b.WriteString("diagnostics: none\n")
		return b.String()
	}
	fmt.Fprintf(&b, "diagnostics: %d\n", len(r.Diagnostics))
	for _, d := range r.Diagnostics {
		loc := d.Node
		if loc == "" {
			loc = d.Value
		} else if d.Value != "" {
			loc += "/" + d.Value
		}
		if loc == "" {
			loc = "-"
		}
		fmt.Fprintf(&b, "  %-5s %-18s %-24s %s\n", d.Severity, d.Code, loc, d.Detail)
	}
	return b.String()
}
