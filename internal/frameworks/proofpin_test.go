package frameworks

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/models"
	"repro/internal/staticverify"
)

// proofDigestsGolden pins, per model, a digest of what a stored artifact
// re-proves on load: the input region, the proven arena size and the
// sorted offsets. Its first line is the schema version the digests were
// written under.
var proofDigestsGolden = filepath.Join("testdata", "proof_digests.golden")

// proofDigest hashes one model's proven region, arena size and sorted
// offsets — everything crossCheckVerdicts compares against a stored
// artifact besides the verdict flags.
func proofDigest(rep *staticverify.Report) string {
	var b strings.Builder
	for _, s := range rep.Region.Symbols() {
		fmt.Fprintf(&b, "%s∈%s\n", s, rep.Region[s])
	}
	if !rep.Mem.Proven {
		b.WriteString("memory unproven\n")
	} else {
		fmt.Fprintf(&b, "arena %d\n", rep.Mem.Plan.ArenaSize)
		names := make([]string, 0, len(rep.Mem.Plan.Offsets))
		for name := range rep.Mem.Plan.Offsets {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			fmt.Fprintf(&b, "%s@%d\n", name, rep.Mem.Plan.Offsets[name])
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// readProofDigests parses the golden: the schema version, then one
// "model digest" line per model.
func readProofDigests(data []byte) (uint32, map[string]string, error) {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	v, err := strconv.ParseUint(lines[0], 10, 32)
	if err != nil {
		return 0, nil, fmt.Errorf("first line %q is no schema version: %v", lines[0], err)
	}
	digests := map[string]string{}
	for _, line := range lines[1:] {
		model, digest, ok := strings.Cut(line, " ")
		if !ok {
			return 0, nil, fmt.Errorf("malformed line %q", line)
		}
		digests[model] = digest
	}
	return uint32(v), digests, nil
}

// TestProofDigestsPinnedToSchema: a stored artifact is cross-checked
// against a fresh proof on load, and any drift quarantines it as a
// proof mismatch. So an analysis change that moves a proven region,
// arena size or offset must bump artifact.SchemaVersion — the version is
// in the artifact's file name, so the old files become plain misses.
// This test fails when a digest changes under an unchanged version, and
// -update refuses to rewrite a changed digest until the version is
// bumped:
//
//	go test ./internal/frameworks/ -run TestProofDigestsPinnedToSchema -args -update
func TestProofDigestsPinnedToSchema(t *testing.T) {
	got := map[string]string{}
	var names []string
	for _, b := range models.All() {
		_, rep, err := CompileVerified(b)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		got[b.Name] = proofDigest(rep)
		names = append(names, b.Name)
	}
	slices.Sort(names)

	data, readErr := os.ReadFile(proofDigestsGolden)
	var version uint32
	var want map[string]string
	if readErr == nil {
		var err error
		if version, want, err = readProofDigests(data); err != nil {
			t.Fatalf("%s: %v", proofDigestsGolden, err)
		}
	}
	var drifted []string
	for _, name := range names {
		if d, ok := want[name]; ok && d != got[name] {
			drifted = append(drifted, name)
		}
	}

	if *updateGolden {
		if readErr == nil && version == artifact.SchemaVersion && len(drifted) > 0 {
			t.Fatalf("refusing to rewrite the proof digests of %v under unchanged schema v%d: "+
				"bump artifact.SchemaVersion first, so stored artifacts miss instead of failing their cross-check",
				drifted, version)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%d\n", artifact.SchemaVersion)
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(proofDigestsGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	if readErr != nil {
		t.Fatalf("missing golden (write it with -update): %v", readErr)
	}
	if version != artifact.SchemaVersion {
		t.Fatalf("%s pins schema v%d, this binary writes v%d: rewrite it with -update", proofDigestsGolden, version, artifact.SchemaVersion)
	}
	for _, name := range drifted {
		t.Errorf("%s: proof digest %s, pinned %s under unchanged schema v%d: an analysis change moved its proven region, arena or offsets; bump artifact.SchemaVersion and rewrite with -update",
			name, got[name], want[name], version)
	}
	for _, name := range names {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: no pinned proof digest: add it with -update", name)
		}
	}
}
