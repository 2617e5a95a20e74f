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
