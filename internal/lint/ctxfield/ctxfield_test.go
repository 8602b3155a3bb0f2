package ctxfield_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/ctxfield"
)

// The in-process tests typecheck snippets against a stub context package
// carrying the real import path, so the checker's type matching is
// exercised without export data or a child process.

const ctxStub = `package context
type Context interface {
	Err() error
}
`

type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("stub importer: unknown package %q", path)
}

func typecheck(t *testing.T, fset *token.FileSet, imp types.Importer, path, src string) (*types.Package, *ast.File, *types.Info) {
	t.Helper()
	f, err := parser.ParseFile(fset, path+"/src.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", path, err)
	}
	return pkg, f, info
}

// checkSnippet runs the analyzer over one fixture source string at the
// given package path and returns the struct names mentioned in its
// diagnostics.
func checkSnippet(t *testing.T, pkgPath, src string) map[string]int {
	t.Helper()
	fset := token.NewFileSet()
	imp := mapImporter{}
	imp["context"], _, _ = typecheck(t, fset, imp, "context", ctxStub)
	_, f, info := typecheck(t, fset, imp, pkgPath, src)
	found := map[string]int{}
	for _, d := range ctxfield.Check(fset, pkgPath, []*ast.File{f}, info) {
		// Message shape: "struct <name> stores context.Context in ...".
		found[strings.Fields(d.Message)[1]]++
	}
	return found
}

func TestCheckFlagsBadTypesOnly(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "ctxuser", "ctxuser.go"))
	if err != nil {
		t.Fatal(err)
	}
	found := checkSnippet(t, "repro/internal/lint/ctxfield/fixture", string(src))
	for _, want := range []string{"badServer", "badEmbedded", "badPointer"} {
		if found[want] == 0 {
			t.Errorf("%s not flagged (findings: %v)", want, found)
		}
	}
	for name := range found {
		if !strings.HasPrefix(name, "bad") {
			t.Errorf("sanctioned type %s flagged (findings: %v)", name, found)
		}
	}
}

func TestCheckExemptsResilienceLayer(t *testing.T) {
	src := `package resilience
import "context"
type breaker struct {
	ctx context.Context
}
var _ = breaker{}
`
	if found := checkSnippet(t, "repro/internal/resilience", src); len(found) != 0 {
		t.Errorf("resilience layer must be exempt, found %v", found)
	}
}

func TestCheckIgnoresNonContextInterfaces(t *testing.T) {
	src := `package fixture
import "context"
type holder struct {
	cancel func()
	err    error
}
func keep(ctx context.Context) error { return ctx.Err() }
var _ = holder{}
var _ = keep
`
	if found := checkSnippet(t, "repro/internal/lint/ctxfield/fixture", src); len(found) != 0 {
		t.Errorf("context-free struct flagged: %v", found)
	}
}

// TestVetToolMulti builds cmd/sod2vet and drives it the way CI does —
// through `go vet -vettool` — against the ctxfield fixture package,
// pinning the analyzer end to end.
func TestVetToolMulti(t *testing.T) {
	goTool, err := osexec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tool := filepath.Join(t.TempDir(), "sod2vet")
	build := osexec.Command(goTool, "build", "-o", tool, "./cmd/sod2vet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building vettool: %v\n%s", err, out)
	}

	vet := osexec.Command(goTool, "vet", "-vettool="+tool,
		"./internal/lint/ctxfield/testdata/ctxuser")
	vet.Dir = root
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet should fail on the fixture package; output:\n%s", out)
	}
	text := string(out)
	for _, want := range []string{"badServer", "badEmbedded", "badPointer"} {
		if !strings.Contains(text, want) {
			t.Errorf("vettool output missing %s finding:\n%s", want, text)
		}
	}
	for _, clean := range []string{"okOptions", "RunConfig", "okSession", "okNoContext"} {
		if strings.Contains(text, clean) {
			t.Errorf("vettool flagged sanctioned type %s:\n%s", clean, text)
		}
	}

	// The real tree must be clean: contexts live in Options carriers and
	// function arguments only.
	clean := osexec.Command(goTool, "vet", "-vettool="+tool, "./...")
	clean.Dir = root
	if out, err := clean.CombinedOutput(); err != nil {
		t.Errorf("go vet -vettool over the repository found issues: %v\n%s", err, out)
	}
}
