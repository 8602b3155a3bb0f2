// Package artifact is the crash-safe on-disk store for everything the
// SoD² pipeline compiles: RDP results, the SEP execution order, the
// region-wide memory plan, the input region, and the static-verifier
// verdicts. One replica compiles; every replica (and every restart)
// warm-boots by loading and re-proving the artifact instead of
// re-running the planning searches.
//
// The store is built robustness-first, because persistence done naively
// turns disk corruption into undefined behaviour:
//
//   - Writes are atomic: payload → unique temp file in the same
//     directory → fsync(file) → rename → fsync(dir). A writer killed at
//     any instruction leaves either the old artifact or a stale temp
//     file, never a torn artifact under the live name. Stale temps are
//     swept on Open.
//   - Every section carries a CRC64-ECMA checksum, and the header pins
//     a magic number and schema version. A torn file, flipped bit,
//     truncated tail, or version skew is detected at load and reported
//     as a typed *CorruptError — never a panic, never silent garbage.
//   - A corrupt file is quarantined (renamed aside to *.quarantine) so
//     it cannot be re-loaded in a crash loop, and the caller falls back
//     to a full recompile.
//
// Trust model: a loaded artifact is untrusted input. The store proves
// integrity (checksums, bounds, schema); the *semantic* proof — that
// the deserialized plans are still sound for this binary's analyses —
// is the caller's verify-on-load step (frameworks re-runs the static
// verifier and cross-checks the stored verdicts). A failed semantic
// proof is reported through the same *CorruptError / quarantine path.
package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// SchemaVersion is the on-disk format version. Any change to the
// section layout, the manifest encoding, or the semantics of a stored
// plan must bump it; loads of other versions fail as version skew and
// fall back to recompilation.
//
// v2: SEP orders are width-aware (Pareto-scheduled) and the SEP
// section carries the selected scheduling point; v1 artifacts hold
// memory-minimal orders with no point and must recompile.
//
// v3: artifacts carry the region-proven specialization certificate and
// its verdict, and every stored plan describes the *specialized* graph;
// v2 artifacts hold plans for unspecialized graphs and must recompile.
//
// v4: quantized compiles persist per-tensor packed weights (format,
// block scales/mins, nibble or int8 payload) and the accuracy-drift
// budget in a quant section, and the key carries the compile's config
// variant; v3 artifacts predate byte-width-aware planning and must
// recompile.
//
// v5: SEP orders are memory-minimal again and the SEP section carries
// no scheduling point; v4 artifacts may hold width-aware orders and
// must recompile.
//
// v6: artifacts carry no specialization section or verdict — every
// stored plan describes the graph exactly as built; v5 artifacts may
// hold a certificate this binary no longer replays and must recompile.
//
// v7: artifacts carry no wave section and no wavefront verdict — there
// is no wavefront execution; v6 artifacts hold a wave partition this
// binary no longer replays and must recompile.
//
// v8: artifacts carry no facts section — the region section is the one
// description of the inputs a model is compiled for; v7 artifacts hold
// a facts section this binary no longer reads and must recompile.
//
// A change to the analysis that moves a proven region, arena size or
// offset is a change to the semantics of a stored plan: the frameworks
// test TestProofDigestsPinnedToSchema fails until the version is
// bumped, so older artifacts become plain misses instead of
// quarantined proof mismatches.
const SchemaVersion uint32 = 8

// Format constants. The header is:
//
//	offset 0:  8-byte magic "SOD2ART\n"
//	offset 8:  uint32 schema version (little-endian)  ← VersionOffset
//	offset 12: uint32 section count
//
// followed by sectionCount sections, each framed as
//
//	uint32 nameLen | name | uint64 payloadLen | uint64 crc64(name ∥ payload) | payload
//
// The checksum covers the section *name* as well as the payload: a
// corrupted name would otherwise turn an optional section into an
// ignored unknown one — silently dropping, say, the memory plan while
// the load still "succeeds".
const (
	// VersionOffset is the byte offset of the schema version in the
	// header — exported so the chaos tests can inject version skew at
	// the exact field a future binary would rewrite.
	VersionOffset = 8
	headerSize    = 16
)

var magic = [8]byte{'S', 'O', 'D', '2', 'A', 'R', 'T', '\n'}

// Defensive bounds on untrusted files: a corrupted length field must
// not drive allocation or looping.
const (
	maxSections    = 64
	maxSectionName = 128
	maxPayload     = 256 << 20 // 256 MiB
	maxFileSize    = 512 << 20
)

// crcTable is the CRC64-ECMA table every section checksum uses.
var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrNotFound reports a store miss: no artifact exists for the key.
// It is a cache miss, not a failure — the caller compiles cold.
var ErrNotFound = errors.New("artifact: not found")

// CorruptError is the typed verdict for every way a stored artifact can
// be unusable: torn (truncated mid-section), checksum mismatch, version
// skew, undecodable section, schema violation (missing/oversized
// section), a graph that no longer matches the artifact, or a failed
// verify-on-load proof. The file has been quarantined by the time the
// error is returned (QuarantinedAs names the new path, "" if the rename
// itself failed); the caller must fall back to a full recompile.
type CorruptError struct {
	// Path is the artifact file the error is about.
	Path string
	// Section names the offending section ("" for header/file-level).
	Section string
	// Reason is the stable machine-readable class: "torn", "checksum",
	// "version-skew", "decode", "schema", "graph-mismatch",
	// "proof-mismatch".
	Reason string
	// Detail is the human-readable explanation.
	Detail string
	// QuarantinedAs is the path the corrupt file was renamed to.
	QuarantinedAs string
	// Err is the underlying error, if any.
	Err error
}

func (e *CorruptError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "artifact: corrupt %s [%s]", e.Path, e.Reason)
	if e.Section != "" {
		fmt.Fprintf(&b, " section %q", e.Section)
	}
	if e.Detail != "" {
		b.WriteString(": ")
		b.WriteString(e.Detail)
	}
	if e.Err != nil {
		fmt.Fprintf(&b, ": %v", e.Err)
	}
	if e.QuarantinedAs != "" {
		fmt.Fprintf(&b, " (quarantined as %s)", filepath.Base(e.QuarantinedAs))
	}
	return b.String()
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Key identifies one artifact: the content hash of the compiled model
// (graph structure + weights) and the device profile it was compiled
// for. Together with SchemaVersion they name the file, so a model
// update, a device change, or a format bump each miss cleanly instead
// of loading a stale artifact.
type Key struct {
	ModelHash string
	Device    string
	// Config names the compile configuration variant — e.g. the weight
	// quantization format ("int8"). Empty is the default float32
	// compile; distinct variants of one model never share an artifact.
	Config string
}

// fileName renders the key's on-disk name. All components are
// sanitized so a hostile device string cannot escape the store dir.
func (k Key) fileName() string {
	if k.Config != "" {
		return fmt.Sprintf("%s__%s__%s__v%d.art", sanitize(k.ModelHash), sanitize(k.Device), sanitize(k.Config), SchemaVersion)
	}
	return fmt.Sprintf("%s__%s__v%d.art", sanitize(k.ModelHash), sanitize(k.Device), SchemaVersion)
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// StoreStats counts the store's traffic since Open.
type StoreStats struct {
	// Saves/Loads count successful round-trips; Misses count clean
	// not-found lookups.
	Saves, Loads, Misses uint64
	// Corrupt counts loads that failed integrity or semantic checks;
	// Quarantined counts files renamed aside (Corrupt loads plus
	// caller-reported verify-on-load failures).
	Corrupt, Quarantined uint64
	// TempsSwept counts stale temp files removed at Open — the debris a
	// crashed writer leaves behind.
	TempsSwept uint64
}

// Store is a directory of compiled artifacts. Safe for concurrent use;
// concurrent saves of the same key last-writer-win atomically.
type Store struct {
	dir string

	saves       atomic.Uint64
	loads       atomic.Uint64
	misses      atomic.Uint64
	corrupt     atomic.Uint64
	quarantined atomic.Uint64
	tempsSwept  atomic.Uint64

	tmpSeq atomic.Uint64
}

// Open creates (if needed) and opens a store directory, sweeping any
// stale temp files a previously crashed writer left behind. Quarantined
// files are left in place for post-mortem inspection.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open store: %w", err)
	}
	s := &Store{dir: dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("artifact: open store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.Contains(e.Name(), ".tmp-") {
			continue
		}
		// Any surviving temp belongs to a dead writer: the crash-safety
		// protocol renames before the save is acknowledged, so a temp
		// can never be the live copy of anything.
		if err := os.Remove(filepath.Join(dir, e.Name())); err == nil {
			s.tempsSwept.Add(1)
		}
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file path an artifact for key lives at.
func (s *Store) Path(key Key) string { return filepath.Join(s.dir, key.fileName()) }

// Stats snapshots the counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Saves:       s.saves.Load(),
		Loads:       s.loads.Load(),
		Misses:      s.misses.Load(),
		Corrupt:     s.corrupt.Load(),
		Quarantined: s.quarantined.Load(),
		TempsSwept:  s.tempsSwept.Load(),
	}
}

// Save writes the manifest for key crash-safely: encode, write to a
// unique temp file in the store directory, fsync, rename over the live
// name, fsync the directory. A crash at any point leaves either the
// previous artifact or a swept-on-open temp — never a torn file.
func (s *Store) Save(key Key, m *Manifest) error {
	payload, err := encodeFile(m)
	if err != nil {
		return fmt.Errorf("artifact: save %s: %w", key.fileName(), err)
	}
	final := s.Path(key)
	tmp := fmt.Sprintf("%s.tmp-%d-%d", final, os.Getpid(), s.tmpSeq.Add(1))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("artifact: save: %w", err)
	}
	_, werr := f.Write(payload)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("artifact: save: %w", werr)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("artifact: save: %w", err)
	}
	syncDir(s.dir)
	s.saves.Add(1)
	return nil
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Best-effort: some filesystems refuse directory fsync; the rename is
// still atomic with respect to crashes of this process.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Load reads, integrity-checks, and decodes the artifact for key.
// A missing file returns ErrNotFound. Any integrity failure — torn
// file, checksum mismatch, version skew, undecodable or missing
// section — quarantines the file and returns a *CorruptError. Load
// never panics on any file content.
func (s *Store) Load(key Key) (*Manifest, error) {
	path := s.Path(key)
	data, err := readBounded(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			s.misses.Add(1)
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key.fileName())
		}
		var ce *CorruptError
		if errors.As(err, &ce) {
			return nil, s.condemn(ce)
		}
		return nil, fmt.Errorf("artifact: load %s: %w", key.fileName(), err)
	}
	m, cerr := decodeFile(path, data)
	if cerr != nil {
		return nil, s.condemn(cerr)
	}
	s.loads.Add(1)
	return m, nil
}

// Quarantine renames the artifact for key aside with the given reason
// and returns the *CorruptError describing it. Callers use it when an
// integrity-clean artifact fails a semantic check — verify-on-load
// refuting a stored proof, or a graph mismatch — so the bad file cannot
// be retried in a loop. Missing files are a no-op (already gone).
func (s *Store) Quarantine(key Key, section, reason, detail string) *CorruptError {
	ce := &CorruptError{Path: s.Path(key), Section: section, Reason: reason, Detail: detail}
	return s.condemn(ce)
}

// condemn quarantines the file a CorruptError names and stamps the
// error with the quarantine path.
func (s *Store) condemn(ce *CorruptError) *CorruptError {
	s.corrupt.Add(1)
	qpath := quarantinePath(ce.Path)
	if err := os.Rename(ce.Path, qpath); err == nil {
		ce.QuarantinedAs = qpath
		s.quarantined.Add(1)
	} else if !errors.Is(err, os.ErrNotExist) {
		// Rename failed but the corrupt file is still there: remove it
		// outright rather than leave a crash loop behind.
		if os.Remove(ce.Path) == nil {
			s.quarantined.Add(1)
		}
	}
	return ce
}

// quarantinePath picks a .quarantine name that does not clobber the
// evidence of an earlier corruption of the same file.
func quarantinePath(path string) string {
	q := path + ".quarantine"
	for i := 1; ; i++ {
		if _, err := os.Lstat(q); errors.Is(err, os.ErrNotExist) {
			return q
		}
		q = fmt.Sprintf("%s.quarantine.%d", path, i)
	}
}

// readBounded reads a whole artifact file with a hard size cap, so a
// corrupted (or hostile) file cannot drive an unbounded allocation.
func readBounded(path string) ([]byte, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.Size() > maxFileSize {
		return nil, &CorruptError{Path: path, Reason: "schema",
			Detail: fmt.Sprintf("file size %d exceeds cap %d", fi.Size(), int64(maxFileSize))}
	}
	return os.ReadFile(path)
}

// encodeFile frames the manifest's sections into the on-disk format.
func encodeFile(m *Manifest) ([]byte, error) {
	sections, err := m.encodeSections()
	if err != nil {
		return nil, err
	}
	if len(sections) > maxSections {
		return nil, fmt.Errorf("too many sections (%d)", len(sections))
	}
	var buf []byte
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, SchemaVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sections)))
	for _, sec := range sections {
		if len(sec.name) > maxSectionName {
			return nil, fmt.Errorf("section name too long: %q", sec.name)
		}
		if len(sec.payload) > maxPayload {
			return nil, fmt.Errorf("section %q payload too large: %d", sec.name, len(sec.payload))
		}
		sum := crc64.Checksum([]byte(sec.name), crcTable)
		sum = crc64.Update(sum, crcTable, sec.payload)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sec.name)))
		buf = append(buf, sec.name...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(sec.payload)))
		buf = binary.LittleEndian.AppendUint64(buf, sum)
		buf = append(buf, sec.payload...)
	}
	return buf, nil
}

// section is one framed (name, payload) pair.
type section struct {
	name    string
	payload []byte
}

// decodeFile parses and integrity-checks a whole artifact file. Every
// failure is a *CorruptError with a stable reason; no content can make
// it panic or allocate past the caps.
func decodeFile(path string, data []byte) (*Manifest, *CorruptError) {
	if len(data) < headerSize {
		return nil, &CorruptError{Path: path, Reason: "torn",
			Detail: fmt.Sprintf("file shorter than header (%d bytes)", len(data))}
	}
	if [8]byte(data[:8]) != magic {
		return nil, &CorruptError{Path: path, Reason: "schema", Detail: "bad magic"}
	}
	if v := binary.LittleEndian.Uint32(data[VersionOffset:]); v != SchemaVersion {
		return nil, &CorruptError{Path: path, Reason: "version-skew",
			Detail: fmt.Sprintf("schema version %d, this binary speaks %d", v, SchemaVersion)}
	}
	count := binary.LittleEndian.Uint32(data[12:])
	if count > maxSections {
		return nil, &CorruptError{Path: path, Reason: "schema",
			Detail: fmt.Sprintf("section count %d exceeds cap %d", count, maxSections)}
	}
	off := headerSize
	sections := make(map[string][]byte, count)
	for i := uint32(0); i < count; i++ {
		if len(data)-off < 4 {
			return nil, &CorruptError{Path: path, Reason: "torn",
				Detail: fmt.Sprintf("truncated at section %d name length", i)}
		}
		nameLen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if nameLen <= 0 || nameLen > maxSectionName {
			return nil, &CorruptError{Path: path, Reason: "schema",
				Detail: fmt.Sprintf("section %d name length %d out of bounds", i, nameLen)}
		}
		if len(data)-off < nameLen {
			return nil, &CorruptError{Path: path, Reason: "torn",
				Detail: fmt.Sprintf("truncated inside section %d name", i)}
		}
		name := string(data[off : off+nameLen])
		off += nameLen
		if len(data)-off < 16 {
			return nil, &CorruptError{Path: path, Section: name, Reason: "torn",
				Detail: "truncated at section length/checksum"}
		}
		payloadLen := binary.LittleEndian.Uint64(data[off:])
		sum := binary.LittleEndian.Uint64(data[off+8:])
		off += 16
		if payloadLen > maxPayload {
			return nil, &CorruptError{Path: path, Section: name, Reason: "schema",
				Detail: fmt.Sprintf("payload length %d exceeds cap %d", payloadLen, int64(maxPayload))}
		}
		if uint64(len(data)-off) < payloadLen {
			return nil, &CorruptError{Path: path, Section: name, Reason: "torn",
				Detail: fmt.Sprintf("payload truncated: want %d bytes, %d remain", payloadLen, len(data)-off)}
		}
		payload := data[off : off+int(payloadLen)]
		off += int(payloadLen)
		got := crc64.Checksum([]byte(name), crcTable)
		got = crc64.Update(got, crcTable, payload)
		if got != sum {
			return nil, &CorruptError{Path: path, Section: name, Reason: "checksum",
				Detail: fmt.Sprintf("crc64 %016x, header says %016x", got, sum)}
		}
		if _, dup := sections[name]; dup {
			return nil, &CorruptError{Path: path, Section: name, Reason: "schema",
				Detail: "duplicate section"}
		}
		sections[name] = payload
	}
	if off != len(data) {
		return nil, &CorruptError{Path: path, Reason: "schema",
			Detail: fmt.Sprintf("%d trailing bytes after last section", len(data)-off)}
	}
	m, cerr := decodeSections(path, sections)
	if cerr != nil {
		return nil, cerr
	}
	return m, nil
}
