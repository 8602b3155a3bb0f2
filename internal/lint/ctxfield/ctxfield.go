// Package ctxfield is a go/analysis-style checker for the repository's
// context-plumbing contract: a context.Context is a per-call value and
// must flow through function arguments, not be parked in long-lived
// struct state where it silently outlives its cancellation scope
// (go.dev/blog/context-and-structs). A stored context keeps its whole
// cancellation tree and any attached values alive for the struct's
// lifetime, and a request served under a stale stored context observes
// the wrong deadline.
//
// Sanctioned exceptions, matching the repo's idiom:
//
//   - option/config carriers — struct types whose name ends in "Options"
//     or "Config" (e.g. exec.Options.Ctx, frameworks.GuardOptions.Ctx).
//     These are per-call parameter bundles, not long-lived state: the
//     context rides one call and is dropped.
//   - session types — struct types whose name contains "Session", which
//     deliberately scope a context to a serving session's lifetime.
//   - the resilience layer (repro/internal/resilience), whose breaker
//     and shedding machinery owns deadline bookkeeping by design.
//
// The checker is stdlib-only (go/ast + go/types): the build environment
// has no golang.org/x/tools, so cmd/sod2vet drives it through a
// hand-rolled `go vet -vettool` unitchecker protocol.
package ctxfield

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// resiliencePath is exempted wholesale: its session/breaker types own
// deadline bookkeeping by design.
const resiliencePath = "repro/internal/resilience"

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

// Check analyzes one type-checked package and returns its findings.
// pkgPath is the package under analysis (used for the resilience-layer
// exemption); files/info are its parsed and type-checked sources.
func Check(fset *token.FileSet, pkgPath string, files []*ast.File, info *types.Info) []Diagnostic {
	if pkgPath == resiliencePath || strings.HasPrefix(pkgPath, resiliencePath+"/") {
		return nil
	}
	var diags []Diagnostic
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || sanctioned(ts.Name.Name) {
					continue
				}
				diags = append(diags, checkStruct(fset, ts.Name.Name, st, info)...)
			}
		}
	}
	return diags
}

// sanctioned reports whether a struct type name is allowed to carry a
// context field.
func sanctioned(name string) bool {
	return strings.HasSuffix(name, "Options") ||
		strings.HasSuffix(name, "Config") ||
		strings.Contains(name, "Session")
}

// checkStruct flags every field of st whose type is context.Context
// (directly, behind a pointer, or as an embedded interface).
func checkStruct(fset *token.FileSet, typeName string, st *ast.StructType, info *types.Info) []Diagnostic {
	var diags []Diagnostic
	for _, field := range st.Fields.List {
		t := info.TypeOf(field.Type)
		if !isContext(t) {
			continue
		}
		// Embedded context.Context has no field names; name it after the
		// interface for the report.
		names := make([]string, 0, len(field.Names))
		for _, n := range field.Names {
			names = append(names, n.Name)
		}
		if len(names) == 0 {
			names = append(names, "Context (embedded)")
		}
		for _, n := range names {
			diags = append(diags, Diagnostic{
				Pos: fset.Position(field.Pos()),
				Message: fmt.Sprintf(
					"struct %s stores context.Context in field %s; pass the context as a function argument or use a per-call *Options carrier",
					typeName, n),
			})
		}
	}
	return diags
}

// isContext matches context.Context, optionally behind one pointer.
func isContext(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
