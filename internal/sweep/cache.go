package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"dramlat"
)

// Cache is a persistent on-disk result store keyed by the content hash of
// the canonicalized spec. Layout: one JSON file per result at
// <dir>/<hash[:2]>/<hash>.json holding {spec, results}, written atomically
// (temp file + rename) so an interrupted sweep never leaves a torn entry
// and a re-run resumes from whatever completed. A nil *Cache is a valid
// disabled cache.
//
// The cache is safe for concurrent use from many goroutines (and, for
// Get, many processes): temp-file names are unique, renames are atomic,
// and same-hash writers are serialized through a striped lock so two
// workers finishing the same spec at once cannot interleave their
// temp-write/rename sequences.
type Cache struct {
	dir string
	// putLocks stripes the per-hash Put serialization. 64 stripes keeps
	// unrelated hashes effectively uncontended while making same-hash
	// writers strictly sequential.
	putLocks [64]sync.Mutex
}

// putLock returns the stripe lock for a hash.
func (c *Cache) putLock(hash string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(hash))
	return &c.putLocks[h.Sum32()%uint32(len(c.putLocks))]
}

// DefaultCacheDir is the cache location dlbench and dlsweep share when
// -cache is not given: dramlat/sweep under the user cache dir
// ($XDG_CACHE_HOME or ~/.cache on Linux), else a dot-dir in the working
// tree.
func DefaultCacheDir() string {
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "dramlat", "sweep")
	}
	return ".dramlat-sweep"
}

// OpenCache creates dir if needed and returns the cache rooted there.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root ("" for a disabled cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// entry is the on-disk record: the canonical spec rides along with the
// results so cache files are self-describing and auditable, and a
// checksum over both detects torn or bit-rotted files.
type entry struct {
	Spec    dramlat.RunSpec `json:"spec"`
	Results dramlat.Results `json:"results"`
	// Checksum is hex SHA-256 over the compact JSON of {spec, results}.
	Checksum string `json:"checksum"`
}

// checksum computes the entry's content digest. Compact (non-indented)
// marshalling makes the digest independent of the pretty-printing the
// file itself uses.
func checksum(spec dramlat.RunSpec, res dramlat.Results) string {
	payload, err := json.Marshal(entry{Spec: spec, Results: res})
	if err != nil {
		// Both structs are plain data; Marshal cannot fail.
		panic(fmt.Sprintf("sweep: checksum marshal: %v", err))
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash[:2], hash+".json")
}

// Get returns the cached results for a spec, if present and verified:
// an entry that fails to parse or whose checksum does not match its
// content (torn write survived a crash, disk corruption, hand-edited
// file, or a pre-checksum legacy entry) is quarantined — renamed to
// <path>.corrupt for post-mortem — and reported as a miss, so the sweep
// transparently re-runs and re-caches the spec.
func (c *Cache) Get(spec dramlat.RunSpec) (dramlat.Results, bool) {
	if c == nil {
		return dramlat.Results{}, false
	}
	path := c.path(spec.Hash())
	b, err := os.ReadFile(path)
	if err != nil {
		return dramlat.Results{}, false
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil || e.Checksum != checksum(e.Spec, e.Results) {
		c.quarantine(path)
		return dramlat.Results{}, false
	}
	return e.Results, true
}

// quarantine moves a bad entry aside (best-effort; removed on rename
// failure) so it stops shadowing the slot but stays inspectable.
func (c *Cache) quarantine(path string) {
	if err := os.Rename(path, path+".corrupt"); err != nil {
		os.Remove(path)
	}
}

// Put stores a result. Failed runs are never stored, so a crash or
// MaxTicks abort is retried on the next sweep. Same-hash writers are
// serialized (see Cache doc), so concurrent workers that resolved the
// same spec — deduplicated jobs, overlapping sweeps — land exactly one
// whole entry instead of racing the rename.
func (c *Cache) Put(spec dramlat.RunSpec, res dramlat.Results) error {
	if c == nil {
		return nil
	}
	hash := spec.Hash()
	mu := c.putLock(hash)
	mu.Lock()
	defer mu.Unlock()
	canon := spec.Canonical()
	b, err := json.MarshalIndent(entry{Spec: canon, Results: res, Checksum: checksum(canon, res)}, "", " ")
	if err != nil {
		return fmt.Errorf("sweep: encode cache entry: %w", err)
	}
	path := c.path(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("sweep: cache shard: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), hash+".tmp*")
	if err != nil {
		return fmt.Errorf("sweep: cache temp: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache rename: %w", err)
	}
	return nil
}

// Len counts the stored entries (walks the shard directories).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	filepath.WalkDir(c.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			n++
		}
		return nil
	})
	return n
}
