// Command sod2vet runs the repository's stdlib-only static checker as
// a `go vet` vettool — ctxfield: context.Context parked in long-lived
// struct fields outside the sanctioned Options/Config/Session carriers.
//
// Usage:
//
//	go build -o bin/sod2vet ./cmd/sod2vet
//	go vet -vettool=bin/sod2vet ./...
//
// The build environment has no golang.org/x/tools, so this driver
// implements the unitchecker protocol by hand with the standard library:
//
//   - `sod2vet -V=full` prints the tool identity line cmd/go hashes
//     into its cache key;
//   - `sod2vet -flags` prints the tool's flag set as JSON so cmd/go
//     can split vet flags from build flags;
//   - `sod2vet [-json] <file>.cfg` analyzes one package unit: the
//     .cfg file (written by cmd/go) lists the unit's Go files, its
//     import map, and the compiled export data of every dependency,
//     which is all a go/types check needs. Facts are not used, so the
//     VetxOutput file is written empty. Diagnostics go to stderr with
//     exit status 2 (or to stdout as JSON with -json and exit 0).
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"

	"repro/internal/lint/ctxfield"
)

// config mirrors the fields of cmd/go's vet .cfg JSON that this driver
// needs (unknown fields are ignored).
type config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func main() {
	args := os.Args[1:]
	if len(args) == 1 && args[0] == "-V=full" {
		// cmd/go requires "<name> version <ver>..." and hashes the line;
		// bump the version when the checker's rules change to invalidate
		// cached vet results.
		fmt.Println("sod2vet version v3 stdlib-unitchecker ctxfield")
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		// cmd/go asks for the tool's flags as JSON to validate the vet
		// command line. Only -json is meaningful here.
		fmt.Println(`[{"Name":"json","Bool":true,"Usage":"emit diagnostics as JSON"}]`)
		return
	}
	jsonOut := false
	if len(args) > 0 && (args[0] == "-json" || args[0] == "-json=true") {
		jsonOut = true
		args = args[1:]
	}
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: sod2vet [-json] <unit>.cfg")
		os.Exit(1)
	}
	if err := run(args[0], jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "sod2vet: %v\n", err)
		os.Exit(1)
	}
}

func run(cfgPath string, jsonOut bool) error {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fmt.Errorf("parsing %s: %v", cfgPath, err)
	}

	// The facts file must exist even though this checker exports none:
	// cmd/go records it as the action's output.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return err
		}
	}
	if cfg.VetxOnly {
		return nil // dependency unit: only facts were wanted
	}

	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(cfg.GoFiles))
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}

	// Dependencies resolve through the export data cmd/go compiled:
	// source import path → canonical path (ImportMap) → .a/.x file
	// (PackageFile), read by the gc importer.
	compiled := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			path = importPath
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compiled.Import(path)
	})

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tcfg := types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	if _, err := tcfg.Check(cfg.ImportPath, fset, files, info); err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil
		}
		return fmt.Errorf("typecheck %s: %v", cfg.ImportPath, err)
	}

	diags := ctxfield.Check(fset, cfg.ImportPath, files, info)
	if jsonOut {
		return printJSON(cfg.ID, diags)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: ctxfield: %s\n", d.Pos, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(2) // the unitchecker convention: diagnostics were reported
	}
	return nil
}

// printJSON emits the unitchecker JSON shape:
// {"pkgID": {"analyzer": [{"posn": ..., "message": ...}]}}.
func printJSON(pkgID string, diags []ctxfield.Diagnostic) error {
	type jsonDiag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	out := []jsonDiag{}
	for _, d := range diags {
		out = append(out, jsonDiag{Posn: d.Pos.String(), Message: d.Message})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	return enc.Encode(map[string]map[string][]jsonDiag{pkgID: {"ctxfield": out}})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
