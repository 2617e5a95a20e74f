package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cachesync/internal/flight"
)

// Cache is the on-disk result cache. Entries are keyed by
// sha256(source hash | job name | config hash): any change to the Go
// sources, the job's identity, or its parameters misses, so a warm
// cache can only replay results the current code would reproduce.
//
// Entries live in an append-only result log (see resultlog.go), each
// stored as a binary entry (see entry.go): each Cache appends to a
// segment file of its own and finds entries through an in-RAM keydir.
// A Cache is safe for concurrent use. Writers in other processes
// sharing the directory append to segments of their own, which a local
// miss picks up: every reader sees only whole records.
//
// Do is the lookup-or-run path of runner.Run, whose same-key callers
// it collapses with a single flight of its own. The serving daemon
// collapses requests in its own single-flight group and calls Get,
// PutRaw and Put itself, so a request passes through one group.
// GetRaw and PutRaw are the two sides of the fleet artifact exchange.
type Cache struct {
	sourceHash string
	log        *resultLog
	flight     flight.Group[doResult]
}

// doResult is what one single-flight execution shares with its
// followers.
type doResult struct {
	art    Artifact
	cached bool
}

// DefaultCacheDir is the conventional cache location at the module
// root (git-ignored).
const DefaultCacheDir = ".runnercache"

// OpenCache opens (creating if needed) the cache directory, computes
// the source hash and indexes the segments written under it. An empty
// dir selects DefaultCacheDir under the module root; a relative dir is
// also resolved against the module root, so cached results are shared
// no matter which directory the command runs from. Other files in the
// directory, such as the <key>.json entries of earlier builds, are
// never read.
func OpenCache(dir string) (*Cache, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	if dir == "" {
		dir = DefaultCacheDir
	}
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(root, dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	src, err := SourceHash(root)
	if err != nil {
		return nil, err
	}
	return openCacheHash(dir, src)
}

// openCacheHash opens the cache in an existing dir under a given
// source hash, indexing every segment that source tree wrote there.
func openCacheHash(dir, sourceHash string) (*Cache, error) {
	log, err := openLog(dir, sourceHash)
	if err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	return &Cache{sourceHash: sourceHash, log: log}, nil
}

// rawKey derives the 32-byte key the log stores a job's entry under:
// sha256(source hash | 0 | name | 0 | config hash).
func (c *Cache) rawKey(name, configHash string) [32]byte {
	var buf [512]byte // holds the hashed bytes of every key but the longest sweeps'
	b := append(buf[:0], c.sourceHash...)
	b = append(b, 0)
	b = append(b, name...)
	b = append(b, 0)
	b = append(b, configHash...)
	return sha256.Sum256(b)
}

// KeyFor derives the content-addressed raw key for a (job name, config
// hash) pair under this cache's source tree, in hex. Two processes
// built from the same sources compute identical keys, which is what
// makes raw keys exchangeable between replicas.
func (c *Cache) KeyFor(name, configHash string) string {
	k := c.rawKey(name, configHash)
	return hex.EncodeToString(k[:])
}

// validKey reports whether key has the shape KeyFor produces —
// exactly 64 lowercase hex digits — and decodes it. Raw keys arrive
// over the network (GET /v1/artifact/{key}); anything else must not
// reach the log.
func validKey(key string) ([32]byte, bool) {
	var raw [32]byte
	if len(key) != sha256.Size*2 {
		return raw, false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return raw, false
		}
	}
	hex.Decode(raw[:], []byte(key)) // only hex digits remain
	return raw, true
}

// Get recalls a job's artifact, reporting whether a valid entry
// existed. Unreadable or mismatched entries are treated as misses.
func (c *Cache) Get(j Job) (Artifact, bool) {
	key := c.rawKey(j.Name, j.ConfigHash)
	return c.get(&key, j)
}

// get is Get under the job's precomputed key.
func (c *Cache) get(key *[32]byte, j Job) (Artifact, bool) {
	data, ok := c.log.get(key)
	if !ok {
		return Artifact{}, false
	}
	e, ok := decodeEntry(data)
	// The key already encodes all three fields; the body check guards
	// against key collisions from tampering.
	if !ok || string(e.name) != j.Name || string(e.configHash) != j.ConfigHash ||
		string(e.sourceHash) != c.sourceHash {
		return Artifact{}, false
	}
	return e.artifact(j.Name), true
}

// verifies reports whether e, read or fetched under raw, was stored by
// this source tree for a job whose key is raw.
func (c *Cache) verifies(e *entry, raw *[32]byte) bool {
	return string(e.sourceHash) == c.sourceHash && c.rawKey(string(e.name), string(e.configHash)) == *raw
}

// GetRaw recalls an entry's stored bytes by raw key — the serving
// side of the fleet artifact exchange. It only answers for well-formed
// keys whose stored entry verifies: the embedded fields must re-derive
// the requested key under this cache's source hash, so a process built
// from different sources (or a tampered record) reads as a miss.
func (c *Cache) GetRaw(key string) ([]byte, bool) {
	raw, ok := validKey(key)
	if !ok {
		return nil, false
	}
	data, ok := c.log.get(&raw)
	if !ok {
		return nil, false
	}
	if e, ok := decodeEntry(data); !ok || !c.verifies(&e, &raw) {
		return nil, false
	}
	return data, true
}

// PutRaw validates and stores fetched entry bytes under key,
// returning the contained artifact. The entry is rejected — not
// stored — unless its embedded name, config hash, and source hash
// re-derive exactly the key it was requested under: a peer cannot
// poison this cache with an entry for a different job, a different
// configuration, or a different source tree.
func (c *Cache) PutRaw(key string, data []byte) (Artifact, bool) {
	raw, ok := validKey(key)
	if !ok {
		return Artifact{}, false
	}
	return c.putRaw(&raw, data)
}

// putRaw is PutRaw under the decoded key. A verified entry is stored
// as it arrived: decoding accepts only the bytes appendEntry writes.
func (c *Cache) putRaw(raw *[32]byte, data []byte) (Artifact, bool) {
	e, ok := decodeEntry(data)
	if !ok || !c.verifies(&e, raw) {
		return Artifact{}, false
	}
	c.log.put(raw, data)
	return e.artifact(string(e.name)), true
}

// Put stores a job's artifact as one record appended to this cache's
// own segment. Failures are deliberately silent: a disk where no
// segment can be created degrades to an always-miss cache, never to a
// failed regeneration.
func (c *Cache) Put(j Job, art Artifact) {
	key := c.rawKey(j.Name, j.ConfigHash)
	c.put(&key, j, art)
}

// put is Put under the job's precomputed key.
func (c *Cache) put(key *[32]byte, j Job, art Artifact) {
	data := make([]byte, 0, entrySize(j.Name, j.ConfigHash, c.sourceHash, art))
	c.log.put(key, appendEntry(data, j.Name, j.ConfigHash, c.sourceHash, art))
}

// Do runs a job through the cache with single-flight semantics: a hit
// returns the stored artifact; on a miss, exactly one of any set of
// concurrent same-key callers executes run while the rest wait and
// share its artifact. Successful executions are stored; errors are
// shared with the waiting callers and never cached. The job's key is
// derived once, for the flight, the lookup and the store.
func (c *Cache) Do(j Job, run func() (Artifact, error)) (art Artifact, cached, shared bool, err error) {
	raw := c.rawKey(j.Name, j.ConfigHash)
	r, shared, err := c.flight.Do(string(raw[:]), func() (doResult, error) {
		// Recheck under the flight: a caller that queued behind a
		// completed leader finds the entry the leader just stored.
		if art, ok := c.get(&raw, j); ok {
			return doResult{art: art, cached: true}, nil
		}
		art, err := run()
		if err != nil {
			return doResult{}, err
		}
		c.put(&raw, j, art)
		return doResult{art: art}, nil
	})
	if err != nil {
		return Artifact{}, false, shared, err
	}
	return r.art, r.cached, shared, nil
}

// moduleRoot finds the enclosing Go module root (the directory
// holding go.mod) from the working directory.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("runner: no go.mod above the working directory (cache needs a module root)")
		}
		dir = parent
	}
}

// SourceHash hashes every .go file plus go.mod under root (skipping
// testdata, the cache itself, and dot-directories), in sorted path
// order. It is the "git-clean source hash" of the cache key, computed
// from working-tree contents rather than git metadata so uncommitted
// edits invalidate the cache exactly like committed ones.
func SourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("runner: source walk: %w", err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, err := filepath.Rel(root, f)
		if err != nil {
			rel = f
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return "", fmt.Errorf("runner: source hash: %w", err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
