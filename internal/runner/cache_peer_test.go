package runner

import (
	"path/filepath"
	"strings"
	"testing"
)

// openCacheAt opens a cache rooted in its own directory. OpenCache
// resolves relative dirs against the module root, so tests hand it an
// absolute temp dir.
func openCacheAt(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestKeyForStableAcrossCaches(t *testing.T) {
	a := openCacheAt(t, filepath.Join(t.TempDir(), "a"))
	b := openCacheAt(t, filepath.Join(t.TempDir(), "b"))
	if a.KeyFor("simulate", "cfg1") != b.KeyFor("simulate", "cfg1") {
		t.Fatal("same source tree, same job: keys differ between cache instances")
	}
	if a.KeyFor("simulate", "cfg1") == a.KeyFor("simulate", "cfg2") {
		t.Fatal("different configs produced the same key")
	}
	if _, ok := validKey(a.KeyFor("x", "y")); !ok {
		t.Fatal("KeyFor produced an invalid raw key")
	}
}

func TestGetRawRejectsBadKeysAndTampering(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c := openCacheAt(t, dir)
	j := Job{Name: "simulate", ConfigHash: "cfg"}
	c.Put(j, Artifact{Name: "simulate", Output: "out", Pass: true})
	key := c.KeyFor(j.Name, j.ConfigHash)

	if _, ok := c.GetRaw(key); !ok {
		t.Fatal("GetRaw missed a stored entry")
	}
	for _, bad := range []string{"", "..", "../../etc/passwd", strings.Repeat("Z", 64), key[:40]} {
		if _, ok := c.GetRaw(bad); ok {
			t.Fatalf("GetRaw answered for malformed key %q", bad)
		}
	}

	// An entry planted under a key it does not derive to must read as a
	// miss, here and for a second instance that indexes the record from
	// the segment.
	data, _ := c.GetRaw(key)
	otherJob := Job{Name: "simulate", ConfigHash: "other-cfg"}
	other := c.rawKey(otherJob.Name, otherJob.ConfigHash)
	c.log.put(&other, data)
	second := openCacheAt(t, dir)
	for name, cc := range map[string]*Cache{"writer": c, "second instance": second} {
		if _, ok := cc.GetRaw(c.KeyFor(otherJob.Name, otherJob.ConfigHash)); ok {
			t.Fatalf("%s: GetRaw served an entry under a key it does not verify against", name)
		}
		if _, ok := cc.Get(otherJob); ok {
			t.Fatalf("%s: Get served another job's entry", name)
		}
		if got, ok := cc.GetRaw(key); !ok || string(got) != string(data) {
			t.Fatalf("%s: the genuine entry no longer reads back", name)
		}
	}
}

func TestPutRawValidates(t *testing.T) {
	a := openCacheAt(t, filepath.Join(t.TempDir(), "a"))
	b := openCacheAt(t, filepath.Join(t.TempDir(), "b"))
	j := Job{Name: "simulate", ConfigHash: "cfg"}
	a.Put(j, Artifact{Name: "simulate", Output: "payload", Pass: true})
	key := a.KeyFor(j.Name, j.ConfigHash)
	data, ok := a.GetRaw(key)
	if !ok {
		t.Fatal("GetRaw missed")
	}

	if art, ok := b.PutRaw(key, data); !ok || art.Output != "payload" {
		t.Fatalf("PutRaw rejected a valid peer entry (ok=%v art=%+v)", ok, art)
	}
	if got, ok := b.Get(j); !ok || got.Output != "payload" {
		t.Fatal("PutRaw did not land the entry in the local cache")
	}

	wrongKey := b.KeyFor("simulate", "different")
	if _, ok := b.PutRaw(wrongKey, data); ok {
		t.Fatal("PutRaw accepted an entry under a mismatched key")
	}
	if _, ok := b.PutRaw(key, []byte("{not json")); ok {
		t.Fatal("PutRaw accepted garbage bytes")
	}
}
