// Package profsrv is the fleet profile service: the multi-user form of the
// hint-file loop. Runners capture tnsr/pgo-profile/v1 blobs (internal/pgo)
// and POST them to a tnsprofd daemon, which merges them order-independently
// into one aggregate per codefile fingerprint, ages the aggregate across
// runs so stale advice decays, and serves the current aggregate back to any
// translator (axcel -profile-url, xrun.RunAdaptiveOpts with a remote source).
//
// The correctness story leans entirely on the pgo invariants: Merge is
// order-independent and canonical, profiles are advisory to the translator
// (every run-time guard stays), and a stale or wrong aggregate costs
// interpreter interludes, never answers. The server's own obligations are
// narrower and mechanical: never serve a torn aggregate (atomic rename
// writes, strict re-Validate on load), never mix fingerprints (the store
// key IS the profile's user-space fingerprint, checked on upload), and
// never fall over on hostile input (auth, size caps, rate limit, typed
// rejects — attacked by the adversarial and fuzz tests).
//
// profsrv depends only on pgo and obs; xrun and the CLIs depend on profsrv
// through the small client, never the reverse.
package profsrv

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"tnsr/internal/pgo"
	"tnsr/internal/store"
)

// storeSuffix is the aggregate key suffix in the backing storage; tmpSuffix
// survives only as the legacy torn-write shape the storage layer must keep
// invisible (the contract test in internal/store pins that).
const (
	storeSuffix = ".pgo.json"
	tmpSuffix   = ".tmp"
)

// Store is fingerprint-keyed profile storage over a pluggable
// store.Storage: one aggregate per key <16-hex-fingerprint>.pgo.json,
// written atomically by the storage (a reader or a crash can never see a
// torn aggregate) and re-validated through the strict parser on every load
// so damage on disk surfaces as a typed error, not wrong advice. The
// default backing is a single directory; a sharded store spreads
// aggregates across directories by fingerprint prefix (store.OpenSharded).
type Store struct {
	st store.Storage

	mu    sync.Mutex
	locks map[string]*sync.Mutex // per-fingerprint update locks
}

// OpenStore opens (creating if needed) a directory-backed store at dir.
func OpenStore(dir string) (*Store, error) {
	st, err := store.OpenDir(dir)
	if err != nil {
		return nil, fmt.Errorf("profsrv: store: %w", err)
	}
	return NewStore(st), nil
}

// NewStore builds a store over any Storage implementation.
func NewStore(st store.Storage) *Store {
	return &Store{st: st, locks: map[string]*sync.Mutex{}}
}

// ValidFingerprint reports whether fp is a well-formed store key: exactly
// 16 lowercase hex digits, the form codefile.File.Fingerprint serializes
// to. Everything else is rejected before it can reach the filesystem.
func ValidFingerprint(fp string) bool {
	if len(fp) != 16 {
		return false
	}
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Path returns the aggregate file path for a fingerprint when the backing
// storage maps keys to files (both filesystem backings do; tests damage
// entries through it), and "" for any other backing.
func (s *Store) Path(fp string) string {
	if d, ok := s.st.(interface{ Path(string) string }); ok {
		return d.Path(fp + storeSuffix)
	}
	return ""
}

// Sweep removes crash debris (orphaned atomic-write temporaries) from the
// backing storage; a restarting daemon runs it before serving. Backings
// without a sweep surface report 0.
func (s *Store) Sweep() (int, error) { return store.Sweep(s.st) }

// lock returns the per-fingerprint mutex, creating it on first use.
func (s *Store) lock(fp string) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.locks[fp]
	if l == nil {
		l = &sync.Mutex{}
		s.locks[fp] = l
	}
	return l
}

// Load reads and strictly re-validates the aggregate for fp. A missing
// aggregate is (nil, nil); a present-but-damaged one is a hard error —
// the server refuses to serve it rather than guessing.
func (s *Store) Load(fp string) (*pgo.Profile, error) {
	if !ValidFingerprint(fp) {
		return nil, fmt.Errorf("profsrv: store: bad fingerprint %q", fp)
	}
	data, err := s.st.Get(fp + storeSuffix)
	if errors.Is(err, store.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("profsrv: store: %w", err)
	}
	p, err := pgo.ParseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("profsrv: store: aggregate %s: %w", fp, err)
	}
	return p, nil
}

// save writes the aggregate atomically through the storage layer (temp
// file + fsync + rename in the filesystem implementations). The caller
// must hold the fingerprint's update lock.
func (s *Store) save(fp string, p *pgo.Profile) error {
	data, err := p.JSON()
	if err != nil {
		return fmt.Errorf("profsrv: store: %w", err)
	}
	if err := s.st.Put(fp+storeSuffix, data); err != nil {
		return fmt.Errorf("profsrv: store: %w", err)
	}
	return nil
}

// Update applies fn to the current aggregate for fp (nil when absent)
// under the fingerprint's lock and atomically persists fn's result,
// returning it. fn returning an error aborts without writing.
func (s *Store) Update(fp string, fn func(cur *pgo.Profile) (*pgo.Profile, error)) (*pgo.Profile, error) {
	if !ValidFingerprint(fp) {
		return nil, fmt.Errorf("profsrv: store: bad fingerprint %q", fp)
	}
	l := s.lock(fp)
	l.Lock()
	defer l.Unlock()
	cur, err := s.Load(fp)
	if err != nil {
		return nil, err
	}
	next, err := fn(cur)
	if err != nil {
		return nil, err
	}
	if err := s.save(fp, next); err != nil {
		return nil, err
	}
	return next, nil
}

// List returns the fingerprints with a stored aggregate, sorted. Temp
// files from interrupted writes are not aggregates and are not listed.
func (s *Store) List() ([]string, error) {
	ents, err := s.st.List()
	if err != nil {
		return nil, fmt.Errorf("profsrv: store: %w", err)
	}
	var out []string
	for _, e := range ents {
		fp, ok := strings.CutSuffix(e.Key, storeSuffix)
		if !ok || !ValidFingerprint(fp) {
			continue
		}
		out = append(out, fp)
	}
	return out, nil
}
