// Package modelstore is the versioned, file-backed store for trained CDT
// models — the operational backbone that turns "a JSON file in a
// directory" into an auditable artifact with history.
//
// The paper's pitch (EDBT 2021 §3.4) is that CDT rules are artifacts a
// human can read, audit, and sign off on; this package gives them the
// lifecycle that claim implies at fleet scale. A model name owns a
// monotonically increasing version sequence. Each version's document is
// the exact persist.go JSON format, stored content-addressed under its
// SHA-256 digest (publishing identical bytes twice shares one blob), so
// an operator can always answer "what exactly was serving at version N"
// byte-for-byte. The manifest records per-version metadata and the
// current/previous promotion pointers; every lifecycle transition —
// publish, promote, rollback, retrain, shadow, and refused candidates —
// appends to an append-only JSONL audit log.
//
// On-disk layout under the store directory:
//
//	blobs/sha256-<hex>.json   content-addressed model documents
//	manifest.json             versions + promotion pointers (atomic rename)
//	audit.log                 append-only JSONL event trail
//
// Crash safety: the manifest is written to manifest.json.tmp and
// renamed, so a torn write can never corrupt the published manifest and
// leftover .tmp files are ignored on Open. Blobs are immutable once
// renamed into place. The audit log is append-only by construction
// (O_APPEND) and by contract: nothing in this package rewrites it. A
// record torn by a crash mid-append is skipped on read, and Open ends
// it with a newline so the next record starts its own line.
//
// Concurrency: one Store value serializes all blob, manifest and
// audit-log mutations behind its mutex; loading model documents happens
// outside the lock. Multiple processes should not share a store
// directory for writing (single-writer, many-reader is the intended
// deployment, the same contract as the serving registry's model
// directory).
package modelstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	cdt "cdt"
)

// manifestFormat identifies the manifest serialization.
const manifestFormat = 1

// Version is one published model version's metadata.
type Version struct {
	// Version is the 1-based, monotonically increasing version number
	// within the model name.
	Version int `json:"version"`
	// Digest is the content address of the model document
	// ("sha256-<hex>").
	Digest string `json:"digest"`
	// CreatedAt is the publish time (unix seconds).
	CreatedAt int64 `json:"created_at"`
	// Source records how the version came to be: "publish" (operator),
	// "retrain" (drift-triggered re-optimization), or "import".
	Source string `json:"source"`
	// Note is free-form operator or retrainer context.
	Note string `json:"note,omitempty"`
	// Omega, Delta, and NumRules summarize the document so listings
	// don't need to load blobs.
	Omega    int `json:"omega"`
	Delta    int `json:"delta"`
	NumRules int `json:"num_rules"`
	// Kind discriminates the artifact flavor ("pyramid"); empty for
	// plain models, keeping pre-pyramid manifests byte-stable.
	Kind string `json:"kind,omitempty"`
	// Scales holds a pyramid's downsample factors; nil for plain models.
	Scales []int `json:"scales,omitempty"`
	// Fusion renders a pyramid's fusion policy ("any", "2-of-n",
	// "weighted(>=0.8)"); empty for plain models.
	Fusion string `json:"fusion,omitempty"`
	// FusionWeights lists a weighted pyramid's learned per-scale weights,
	// aligned with Scales; nil otherwise.
	FusionWeights []float64 `json:"fusion_weights,omitempty"`
}

// modelEntry is one model name's manifest record.
type modelEntry struct {
	// Current is the promoted (serving) version; 0 means no version has
	// been promoted yet.
	Current int `json:"current"`
	// Previous is the version Current replaced — the rollback target.
	Previous int `json:"previous,omitempty"`
	// Versions lists every published version in ascending order.
	Versions []Version `json:"versions"`
}

// manifest is the on-disk index of the store.
type manifest struct {
	Format int                    `json:"format"`
	Models map[string]*modelEntry `json:"models"`
}

// Store is a versioned model store rooted at one directory. All
// mutations (publish, promote, rollback, audit notes) serialize behind
// mu; see the package comment for the locking and crash-safety
// contract.
type Store struct {
	dir string

	// mu guards man and seq and serializes manifest/audit writes.
	mu  sync.Mutex
	man manifest
	seq uint64 // last audit sequence number written
}

// Open opens (creating if needed) the store rooted at dir. A missing
// manifest means an empty store; a present but unparseable or invalid
// manifest (see validate) is an error — serving must not come up
// quietly ignoring its index. Leftover manifest.json.tmp files from a
// crashed write are ignored.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	s := &Store{dir: dir, man: manifest{Format: manifestFormat, Models: make(map[string]*modelEntry)}}
	raw, err := os.ReadFile(s.manifestPath())
	switch {
	case os.IsNotExist(err):
		// Empty store.
	case err != nil:
		return nil, fmt.Errorf("modelstore: reading manifest: %w", err)
	default:
		var man manifest
		if err := json.Unmarshal(raw, &man); err != nil {
			return nil, fmt.Errorf("modelstore: corrupt manifest %s: %w", s.manifestPath(), err)
		}
		if man.Format != manifestFormat {
			return nil, fmt.Errorf("modelstore: manifest format %d, this build reads %d", man.Format, manifestFormat)
		}
		if err := man.validate(); err != nil {
			return nil, fmt.Errorf("modelstore: invalid manifest %s: %w", s.manifestPath(), err)
		}
		if man.Models == nil {
			man.Models = make(map[string]*modelEntry)
		}
		s.man = man
	}
	seq, err := resumeAudit(s.auditPath())
	if err != nil {
		return nil, err
	}
	s.seq = seq
	return s, nil
}

// validate rejects what the store never writes and later calls trip
// over: a null model entry, versions not strictly ascending from 1, a
// digest other than "sha256-" and 64 lowercase hex digits (it names a
// file under blobs/), and a current or previous pointer that is
// neither 0 nor a listed version.
func (m *manifest) validate() error {
	for name, entry := range m.Models {
		if entry == nil {
			return fmt.Errorf("model %q: null entry", name)
		}
		last := 0
		for _, v := range entry.Versions {
			if v.Version <= last {
				return fmt.Errorf("model %q: version %d after %d, want strictly ascending from 1", name, v.Version, last)
			}
			last = v.Version
			if !validDigest(v.Digest) {
				return fmt.Errorf("model %q v%d: digest %q is not sha256-<64 lowercase hex>", name, v.Version, v.Digest)
			}
		}
		if _, ok := findVersion(entry, entry.Current); entry.Current != 0 && !ok {
			return fmt.Errorf("model %q: current version %d is not listed", name, entry.Current)
		}
		if _, ok := findVersion(entry, entry.Previous); entry.Previous != 0 && !ok {
			return fmt.Errorf("model %q: previous version %d is not listed", name, entry.Previous)
		}
	}
	return nil
}

// validDigest reports whether d is a content address as Publish writes
// it.
func validDigest(d string) bool {
	h, ok := strings.CutPrefix(d, "sha256-")
	sum, err := hex.DecodeString(h)
	return ok && err == nil && len(sum) == sha256.Size && hex.EncodeToString(sum) == h
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) manifestPath() string { return filepath.Join(s.dir, "manifest.json") }
func (s *Store) auditPath() string    { return filepath.Join(s.dir, "audit.log") }

func (s *Store) blobPath(digest string) string {
	return filepath.Join(s.dir, "blobs", digest+".json")
}

// validName rejects model names that would escape the store layout or
// collide with its bookkeeping files.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("modelstore: empty model name")
	}
	if strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("modelstore: invalid model name %q", name)
	}
	return nil
}

// Publish validates doc (a persist.go artifact document — plain model
// or pyramid), stores it content-addressed, and appends it as the next
// version of name — unpromoted: serving is unaffected until Promote.
// source is "publish", "retrain", or "import"; note is free-form
// context. A document cdt.LoadAny refuses is rejected, and the refusal
// (with the loader's field-path reason) is itself recorded in the audit
// log.
//
// Publish takes s.mu for the blob write, manifest append, and audit
// write; document validation happens before the lock. Writing the blob
// under the lock keeps two publishes of identical bytes off one temp
// file and keeps GC from sweeping a blob before its manifest append.
func (s *Store) Publish(name string, doc []byte, source, note string) (Version, error) {
	if err := validName(name); err != nil {
		return Version{}, err
	}
	art, err := cdt.LoadAny(bytes.NewReader(doc))
	if err != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		_ = s.appendAuditLocked(Event{Event: EventRefuse, Model: name, Detail: err.Error()})
		return Version{}, fmt.Errorf("modelstore: refusing candidate for %s: %w", name, err)
	}
	sum := sha256.Sum256(doc)
	digest := "sha256-" + hex.EncodeToString(sum[:])

	s.mu.Lock()
	defer s.mu.Unlock()
	entry := s.man.Models[name]
	next := 1
	if entry != nil && len(entry.Versions) > 0 {
		last := entry.Versions[len(entry.Versions)-1].Version
		if last == math.MaxInt {
			return Version{}, fmt.Errorf("modelstore: model %q has no version number after %d", name, last)
		}
		next = last + 1
	}
	if err := s.writeBlobLocked(digest, doc); err != nil {
		return Version{}, err
	}
	if entry == nil {
		entry = &modelEntry{}
		s.man.Models[name] = entry
	}
	if source == "" {
		source = "publish"
	}
	info := art.Info()
	v := Version{
		Version:   next,
		Digest:    digest,
		CreatedAt: time.Now().Unix(),
		Source:    source,
		Note:      note,
		Omega:     info.Omega,
		Delta:     info.Delta,
		NumRules:  info.NumRules,
		Scales:    info.Scales,
	}
	if info.Kind != cdt.KindModel {
		v.Kind = info.Kind
		v.Fusion = info.Fusion
		v.FusionWeights = info.FusionWeights
	}
	entry.Versions = append(entry.Versions, v)
	if err := s.saveManifestLocked(); err != nil {
		// Roll the in-memory append back so the store matches disk.
		entry.Versions = entry.Versions[:len(entry.Versions)-1]
		return Version{}, err
	}
	if err := s.appendAuditLocked(Event{Event: EventPublish, Model: name, Version: next,
		Detail: fmt.Sprintf("source=%s digest=%s omega=%d delta=%d rules=%d", source, shortDigest(digest), v.Omega, v.Delta, v.NumRules)}); err != nil {
		return Version{}, err
	}
	return v, nil
}

// writeBlobLocked stores a content-addressed document if absent
// (tmp+rename, so a crashed write never leaves a partial blob under its
// final name). Callers must hold s.mu.
func (s *Store) writeBlobLocked(digest string, doc []byte) error {
	path := s.blobPath(digest)
	if _, err := os.Stat(path); err == nil {
		return nil // identical content already stored
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, doc, 0o644); err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	return nil
}

// Promote makes version the current (serving) pointer for name,
// remembering the displaced version as the rollback target. Promoting
// the already-current version is a no-op that still audits (an operator
// confirming a pointer is a real event).
//
// Promote takes s.mu for the pointer swap, manifest save, and audit
// write.
func (s *Store) Promote(name string, version int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry := s.man.Models[name]
	if entry == nil {
		return fmt.Errorf("modelstore: unknown model %q", name)
	}
	if _, ok := findVersion(entry, version); !ok {
		return fmt.Errorf("modelstore: model %q has no version %d", name, version)
	}
	prevCurrent, prevPrevious := entry.Current, entry.Previous
	if entry.Current != version {
		entry.Previous = entry.Current
		entry.Current = version
	}
	if err := s.saveManifestLocked(); err != nil {
		entry.Current, entry.Previous = prevCurrent, prevPrevious
		return err
	}
	return s.appendAuditLocked(Event{Event: EventPromote, Model: name, Version: version,
		Detail: fmt.Sprintf("replaced=%d", entry.Previous)})
}

// Rollback restores name's previous promoted version (the one the last
// Promote displaced) and returns it. Rolling back twice toggles between
// the two most recent promotions.
//
// Rollback takes s.mu for the pointer swap, manifest save, and audit
// write.
func (s *Store) Rollback(name string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry := s.man.Models[name]
	if entry == nil {
		return 0, fmt.Errorf("modelstore: unknown model %q", name)
	}
	if entry.Previous == 0 {
		return 0, fmt.Errorf("modelstore: model %q has no previous version to roll back to", name)
	}
	prevCurrent, prevPrevious := entry.Current, entry.Previous
	entry.Current, entry.Previous = entry.Previous, entry.Current
	if err := s.saveManifestLocked(); err != nil {
		entry.Current, entry.Previous = prevCurrent, prevPrevious
		return 0, err
	}
	if err := s.appendAuditLocked(Event{Event: EventRollback, Model: name, Version: entry.Current,
		Detail: fmt.Sprintf("rolled_back_from=%d", entry.Previous)}); err != nil {
		return 0, err
	}
	return entry.Current, nil
}

// findVersion locates a version entry by number.
func findVersion(entry *modelEntry, version int) (Version, bool) {
	for _, v := range entry.Versions {
		if v.Version == version {
			return v, true
		}
	}
	return Version{}, false
}

// Models returns every model name in the store, sorted.
func (s *Store) Models() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.man.Models))
	for name := range s.man.Models {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Versions returns name's published versions in ascending order plus
// its current promoted version (0 if none).
func (s *Store) Versions(name string) ([]Version, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry := s.man.Models[name]
	if entry == nil {
		return nil, 0, fmt.Errorf("modelstore: unknown model %q", name)
	}
	out := make([]Version, len(entry.Versions))
	copy(out, entry.Versions)
	return out, entry.Current, nil
}

// Current returns name's promoted version metadata; ok is false when
// name is unknown or nothing has been promoted.
func (s *Store) Current(name string) (Version, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry := s.man.Models[name]
	if entry == nil || entry.Current == 0 {
		return Version{}, false
	}
	return findVersion(entry, entry.Current)
}

// LoadVersion loads and compiles one published version of name. The
// returned artifact is a *cdt.Model or *cdt.PyramidModel depending on
// the stored document's kind.
func (s *Store) LoadVersion(name string, version int) (cdt.Artifact, Version, error) {
	s.mu.Lock()
	entry := s.man.Models[name]
	var (
		v  Version
		ok bool
	)
	if entry != nil {
		v, ok = findVersion(entry, version)
	}
	s.mu.Unlock()
	if !ok {
		return nil, Version{}, fmt.Errorf("modelstore: model %q has no version %d", name, version)
	}
	f, err := os.Open(s.blobPath(v.Digest))
	if err != nil {
		return nil, Version{}, fmt.Errorf("modelstore: %w", err)
	}
	defer f.Close()
	m, err := cdt.LoadAny(f)
	if err != nil {
		return nil, Version{}, fmt.Errorf("modelstore: loading %s v%d (%s): %w", name, version, shortDigest(v.Digest), err)
	}
	return m, v, nil
}

// LoadCurrent loads name's promoted version.
func (s *Store) LoadCurrent(name string) (cdt.Artifact, Version, error) {
	v, ok := s.Current(name)
	if !ok {
		return nil, Version{}, fmt.Errorf("modelstore: model %q has no promoted version", name)
	}
	return s.LoadVersion(name, v.Version)
}

// CurrentModels loads every model with a promoted version — the serving
// registry's view of the store. Any load failure fails the whole call,
// so a registry swap stays all-or-nothing.
func (s *Store) CurrentModels() (map[string]cdt.Artifact, map[string]int, error) {
	models := make(map[string]cdt.Artifact)
	versions := make(map[string]int)
	for _, name := range s.Models() {
		v, ok := s.Current(name)
		if !ok {
			continue // published but never promoted: candidates only
		}
		m, _, err := s.LoadVersion(name, v.Version)
		if err != nil {
			return nil, nil, err
		}
		models[name] = m
		versions[name] = v.Version
	}
	return models, versions, nil
}

// GC deletes content-addressed blobs that no manifest version
// references and returns the deleted digests, sorted. Published
// versions are never deleted — only blobs orphaned by out-of-band
// manifest surgery or by crashed publishes that wrote a blob but died
// before the manifest append. Leftover .tmp files from crashed writes
// are removed too (they are never referenced by construction). The
// sweep is audit-logged with the reclaimed count.
//
// GC takes s.mu across the whole sweep: referenced-digest collection,
// directory scan, deletions, and the audit write all happen under the
// lock, so a concurrent Publish can never race its fresh blob against
// the sweep.
func (s *Store) GC() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	referenced := make(map[string]bool)
	for _, entry := range s.man.Models {
		for _, v := range entry.Versions {
			referenced[v.Digest] = true
		}
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, "blobs"))
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	var removed []string
	for _, de := range entries {
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			if err := os.Remove(filepath.Join(s.dir, "blobs", name)); err != nil {
				return removed, fmt.Errorf("modelstore: %w", err)
			}
			continue
		}
		digest := strings.TrimSuffix(name, ".json")
		if referenced[digest] {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, "blobs", name)); err != nil {
			return removed, fmt.Errorf("modelstore: %w", err)
		}
		removed = append(removed, digest)
	}
	sort.Strings(removed)
	if err := s.appendAuditLocked(Event{Event: EventGC,
		Detail: fmt.Sprintf("removed=%d referenced=%d", len(removed), len(referenced))}); err != nil {
		return removed, err
	}
	return removed, nil
}

// CheckReady verifies the store is servable from disk right now: the
// manifest file is present and parseable, and every promoted version's
// blob exists. This is the /healthz readiness probe's view — it checks
// the filesystem, not just the in-memory index, so an operator deleting
// blobs out from under a running server shows up.
func (s *Store) CheckReady() error {
	raw, err := os.ReadFile(s.manifestPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil // empty store: ready, serving nothing
		}
		return fmt.Errorf("modelstore: manifest unreadable: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("modelstore: manifest unparseable: %w", err)
	}
	for name, entry := range man.Models {
		if entry == nil || entry.Current == 0 {
			continue
		}
		v, ok := findVersion(entry, entry.Current)
		if !ok {
			return fmt.Errorf("modelstore: model %q current version %d not in manifest", name, entry.Current)
		}
		if _, err := os.Stat(s.blobPath(v.Digest)); err != nil {
			return fmt.Errorf("modelstore: model %q v%d blob missing: %w", name, v.Version, err)
		}
	}
	return nil
}

// saveManifestLocked writes the manifest atomically (tmp+rename).
// Callers must hold s.mu.
func (s *Store) saveManifestLocked() error {
	raw, err := json.MarshalIndent(s.man, "", "  ")
	if err != nil {
		return fmt.Errorf("modelstore: encoding manifest: %w", err)
	}
	tmp := s.manifestPath() + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	if err := os.Rename(tmp, s.manifestPath()); err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	return nil
}

// shortDigest abbreviates a content address for human-facing output.
func shortDigest(d string) string {
	if i := strings.IndexByte(d, '-'); i >= 0 && len(d) > i+13 {
		return d[:i+13]
	}
	return d
}
