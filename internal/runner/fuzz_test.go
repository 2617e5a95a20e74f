package runner

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzCacheSegment feeds arbitrary bytes to the segment scan that
// OpenCache and the miss refresh run. The scan must never panic, never
// size an allocation by a length it has not checked against the bytes
// that remain, and index only whole records whose magic and CRC pass,
// back to back from the start. Opened as a segment, the same bytes must
// serve each indexed key its latest record's body and nothing else.
func FuzzCacheSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		type rec struct {
			key  [32]byte
			body []byte
		}
		var recs []rec
		var want int64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		end := scanRecords(bytes.NewReader(data), 0, int64(len(data)), func(key *[32]byte, n int, off int64) {
			if off != want {
				t.Fatalf("record indexed at %d, want %d", off, want)
			}
			r := data[off : off+int64(recHdrSize+n)]
			sum := crc32.Update(crc32.Checksum(r[4:40], castagnoli), castagnoli, r[recHdrSize:])
			if string(r[:4]) != recMagic || !bytes.Equal(key[:], r[4:36]) ||
				binary.LittleEndian.Uint32(r[36:40]) != uint32(n) || binary.LittleEndian.Uint32(r[40:44]) != sum {
				t.Fatalf("indexed a record at %d that fails its checks", off)
			}
			recs = append(recs, rec{*key, r[recHdrSize:]})
			want = off + int64(recHdrSize+n)
		})
		runtime.ReadMemStats(&after)
		if end != want {
			t.Fatalf("scan stopped at %d, after the last indexed record at %d", end, want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(2*len(data))+64<<10 {
			t.Fatalf("scanning %d bytes allocated %d", len(data), grew)
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fuzz-0"+segSuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := openLog(dir, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		defer l.segs[0].f.Close()
		latest := map[[32]byte][]byte{}
		for _, r := range recs {
			latest[r.key] = r.body
		}
		for key, body := range latest {
			got, ok := l.read(&key)
			if ok && !bytes.Equal(got, body) {
				t.Fatalf("key %x served a body other than its latest record's", key[:4])
			}
			if !ok && recs[len(recs)-1].key == key {
				t.Fatalf("the last record's key %x reads as a miss", key[:4])
			}
		}
	})
}

// FuzzCacheEntry feeds arbitrary bytes to the entry decoder that every
// Get, GetRaw and PutRaw runs. The decoder must never panic and never
// allocate: every field it returns is a view of the input, so no length
// it reads can size an allocation. Copying the artifact out stays
// within twice the input's size (plus slack for what other goroutines
// allocate meanwhile, as in FuzzCacheSegment), and the decoder accepts
// only bodies that re-encode to the same bytes, so PutRaw may store a
// verified peer entry as it arrived.
func FuzzCacheEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, ok := decodeEntry(data)
		var art Artifact
		if ok {
			art = e.artifact("")
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(2*len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if !ok {
			return
		}
		for _, field := range [][]byte{e.name, e.configHash, e.sourceHash, e.artName, e.output} {
			if len(field) > 0 && !viewOf(field, data) {
				t.Fatalf("decoded field %q is not a view of the input", field)
			}
		}
		again := appendEntry(nil, string(e.name), string(e.configHash), string(e.sourceHash), art)
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted entry re-encodes to other bytes:\n%q\nwant\n%q", again, data)
		}
	})
}

// viewOf reports whether the non-empty b lies within data's bytes.
func viewOf(b, data []byte) bool {
	for i := range data {
		if &data[i] == &b[0] {
			return len(b) <= len(data)-i
		}
	}
	return false
}
