package sod2

import (
	"repro/internal/artifact"
	"repro/internal/frameworks"
)

// Root-facade surface of the compiled-artifact store. The store
// persists everything the compiler and static verifier produced —
// plans, proofs, verdicts — keyed by (model hash, device profile,
// schema version); loads are untrusted until verify-on-load re-proves
// them, and any corruption quarantines the file and falls back to a
// cold compile.

type (
	// ArtifactStore is the crash-safe on-disk store of compiled
	// artifacts (see OpenStore).
	ArtifactStore = artifact.Store
	// ArtifactKey addresses one artifact: model hash + device profile
	// (the schema version is part of the file name).
	ArtifactKey = artifact.Key
	// StoreStats snapshots a store's save/load/corruption counters.
	StoreStats = artifact.StoreStats
	// CorruptError is the typed refusal of a stored artifact: torn
	// file, checksum or version mismatch, undecodable section, or a
	// failed verify-on-load proof. The bad file has already been
	// quarantined when one is returned.
	CorruptError = artifact.CorruptError
	// BootInfo describes how one model came up: warm from the store,
	// cold compile, or cold after a quarantined artifact.
	BootInfo = frameworks.BootInfo
	// CompileCounters snapshot process-wide boot behavior (full
	// compiles vs warm loads, plan searches, verifier runs).
	CompileCounters = frameworks.CompileCounters
)

// ErrArtifactNotFound reports a clean store miss (errors.Is).
var ErrArtifactNotFound = artifact.ErrNotFound

// OpenStore opens (creating if needed) an artifact store rooted at dir
// and sweeps stale temp files left by crashed writers.
func OpenStore(dir string) (*ArtifactStore, error) { return artifact.Open(dir) }

// CompileStored boots one model through the store: warm from a stored
// artifact when one exists and survives verify-on-load, cold compile +
// crash-safe save otherwise. Corrupt artifacts are quarantined and
// recorded in BootInfo.CorruptFallback; they never fail the boot. st
// may be nil (plain cold compile).
func CompileStored(b *ModelBuilder, st *ArtifactStore, device string) (*Compiled, *VerifyReport, BootInfo, error) {
	c, rep, info, err := frameworks.CompileWithStore(b, st, device)
	if err != nil {
		return nil, nil, info, err
	}
	return &Compiled{inner: c}, rep, info, nil
}

// BootCounters snapshots the process-wide compile/boot counters.
func BootCounters() CompileCounters { return frameworks.Counters() }
