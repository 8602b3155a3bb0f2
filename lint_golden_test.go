package sod2

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frameworks"
	"repro/internal/models"
)

// -update rewrites the golden lint snapshots instead of diffing them:
//
//	go test -run TestLintGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden lint snapshots in testdata/lint/")

// TestLintGolden pins `sod2 lint` output for all 10 evaluation models —
// the human text format and the machine-readable JSON form — against
// checked-in snapshots, so any verifier or lint regression (a lost
// proof, a new diagnostic, a changed region) is visible in review as a
// testdata diff.
func TestLintGolden(t *testing.T) {
	for _, b := range models.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			_, rep, err := frameworks.CompileVerified(b)
			if err != nil {
				t.Fatal(err)
			}
			jsonGot, err := rep.FormatJSON()
			if err != nil {
				t.Fatal(err)
			}
			for _, snap := range []struct{ got, path string }{
				{rep.Format(), filepath.Join("testdata", "lint", b.Name+".golden")},
				{jsonGot, filepath.Join("testdata", "lint", b.Name+".json.golden")},
			} {
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(snap.path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(snap.path, []byte(snap.got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(snap.path)
				if err != nil {
					t.Fatalf("missing golden snapshot (regenerate with `go test -run TestLintGolden -update`): %v", err)
				}
				if snap.got != string(want) {
					t.Errorf("lint output changed in %s (regenerate with -update if intended):\n%s",
						snap.path, diffLines(string(want), snap.got))
				}
			}
		})
	}
}

// diffLines renders a minimal line diff for golden mismatches.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	n := len(w)
	if len(g) > n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		fmt.Fprintf(&b, "-%s\n+%s\n", wl, gl)
	}
	return b.String()
}
