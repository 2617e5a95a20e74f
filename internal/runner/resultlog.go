package runner

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// The result log stores cache entries in append-only segment files
// and finds them through a keydir, an in-RAM index from key to record
// location (the Bitcask layout). Each Cache appends to a segment of its
// own, created on its first write with O_EXCL under a random name, so
// no two writers — goroutines of different instances or separate
// processes — ever share a file, and one stored result costs one
// write(2).
//
// A record is a header and a body, the binary entry of entry.go (its
// fields, then the artifact output verbatim):
//
//	magic "RCL1" | key (32 raw bytes) | body length (uint32 LE) |
//	CRC-32C of key, length and body (uint32 LE) | body
//
// A scan stops a segment at its first record whose magic, length or
// CRC is wrong: the torn tail a killed writer leaves, or a record
// another live instance is still writing, which the next scan retries.
// A read re-checks the record's CRC and full key before trusting its
// body.
//
// Segments are named <source hash>-<random>.seg: an instance opens only
// the segments of its own source tree, whose entries are the only ones
// it could serve.

const (
	recMagic   = "RCL1"
	recHdrSize = len(recMagic) + 32 + 4 + 4
	segSuffix  = ".seg"

	// maxBody bounds a stored body: the keydir carries the length in
	// 24 bits. Larger entries are not stored (the cache misses them).
	maxBody = kdLenMask

	// racyWindow is how long after a directory change a listing may
	// have missed a segment created within the same timestamp tick; a
	// listing that recent is repeated at the next refresh.
	racyWindow = 100 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segment is one segment file, open for reading (and, for the
// instance's own segment, for writing).
type segment struct {
	f *os.File
	// next is the offset of the first record not yet indexed, and seen
	// the file size when it was last scanned (foreign segments only).
	next, seen int64
}

// resultLog is a Cache's storage: its segments, its keydir and its
// own segment's append state.
type resultLog struct {
	dir    string
	prefix string // segment-name prefix: this source tree's segments

	mu    sync.Mutex // guards everything below up to rmu
	kd    keydir
	segs  []*segment
	names map[string]bool
	own   int   // index of the own segment in segs; -1 until created
	size  int64 // bytes of whole records in the own segment
	wbuf  []byte

	// rmu serializes refreshes; it guards the fields below and the
	// foreign segments' next and seen.
	rmu    sync.Mutex
	dirMod time.Time // the directory's mtime at the last listing
	racy   bool      // the last listing may have missed a creation
}

// openLog indexes every segment of sourceHash's tree in dir.
func openLog(dir, sourceHash string) (*resultLog, error) {
	l := &resultLog{dir: dir, prefix: sourceHash + "-", names: make(map[string]bool), own: -1}
	if err := l.list(); err != nil {
		return nil, err
	}
	return l, nil
}

// list opens and indexes the segments the directory holds that this
// log has not opened yet.
func (l *resultLog) list() error {
	fi, err := os.Stat(l.dir)
	if err != nil {
		return err
	}
	now := time.Now()
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	l.dirMod, l.racy = fi.ModTime(), now.Sub(fi.ModTime()) < racyWindow
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, l.prefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		l.mu.Lock()
		known := l.names[name]
		l.mu.Unlock()
		if known {
			continue
		}
		f, err := os.Open(filepath.Join(l.dir, name))
		if err != nil {
			continue
		}
		l.mu.Lock()
		if len(l.segs) == maxSegments {
			l.mu.Unlock()
			f.Close()
			return nil
		}
		l.names[name] = true
		l.segs = append(l.segs, &segment{f: f})
		idx := len(l.segs) - 1
		l.mu.Unlock()
		l.scan(idx)
	}
	return nil
}

// scan indexes the records a foreign segment gained since its last
// scan: one fstat when it has not grown.
func (l *resultLog) scan(idx int) {
	l.mu.Lock()
	s := l.segs[idx]
	l.mu.Unlock()
	fi, err := s.f.Stat()
	if err != nil || fi.Size() == s.seen {
		return
	}
	s.seen = fi.Size()
	s.next = scanRecords(s.f, s.next, s.seen, func(key *[32]byte, bodyLen int, off int64) {
		l.mu.Lock()
		l.kd.put(kdTag(key, bodyLen), kdLoc(idx, off))
		l.mu.Unlock()
	})
}

// refresh picks up what other live instances appended since the last
// refresh: one stat of the directory, a listing only when it changed,
// and one fstat per foreign segment.
func (l *resultLog) refresh() {
	l.rmu.Lock()
	defer l.rmu.Unlock()
	if fi, err := os.Stat(l.dir); err == nil && (l.racy || !fi.ModTime().Equal(l.dirMod)) {
		_ = l.list() // an unreadable directory leaves the keydir as it is
	}
	l.mu.Lock()
	n, own := len(l.segs), l.own
	l.mu.Unlock()
	for i := 0; i < n; i++ {
		if i != own {
			l.scan(i)
		}
	}
}

// scanRecords indexes the whole records of r between off and end,
// stopping at the first that fails the header, length or CRC check,
// and returns the offset it stopped at. A length is trusted only once
// it fits before end, so a corrupt one cannot size an allocation.
// index must copy the key if it keeps it.
func scanRecords(r io.ReaderAt, off, end int64, index func(key *[32]byte, bodyLen int, off int64)) int64 {
	if off < 0 || end <= off {
		return off
	}
	bufSize := end - off
	if bufSize > 64<<10 {
		bufSize = 64 << 10
	}
	br := bufio.NewReaderSize(io.NewSectionReader(r, off, end-off), int(bufSize))
	var hdr [recHdrSize]byte
	var body []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off
		}
		n, ok := recordLen(&hdr, end-off)
		if !ok {
			return off
		}
		if cap(body) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil || !recordCRCOK(&hdr, body) {
			return off
		}
		index((*[32]byte)(hdr[4:36]), n, off)
		off += int64(recHdrSize + n)
	}
}

// recordLen checks a record header's magic and reads its body length,
// which must be nonzero, at most maxBody, and fit with the header in
// room bytes.
func recordLen(hdr *[recHdrSize]byte, room int64) (int, bool) {
	if string(hdr[:4]) != recMagic {
		return 0, false
	}
	n := int64(binary.LittleEndian.Uint32(hdr[36:40]))
	if n == 0 || n > maxBody || int64(recHdrSize)+n > room {
		return 0, false
	}
	return int(n), true
}

// recordCRCOK checks a record's CRC over its key, length and body.
func recordCRCOK(hdr *[recHdrSize]byte, body []byte) bool {
	sum := crc32.Update(crc32.Checksum(hdr[4:40], castagnoli), castagnoli, body)
	return sum == binary.LittleEndian.Uint32(hdr[40:44])
}

// appendRecord appends key's record of body to dst.
func appendRecord(dst []byte, key *[32]byte, body []byte) []byte {
	dst = append(dst, recMagic...)
	dst = append(dst, key[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	sum := crc32.Update(crc32.Checksum(dst[len(dst)-36:], castagnoli), castagnoli, body)
	dst = binary.LittleEndian.AppendUint32(dst, sum)
	return append(dst, body...)
}

// get returns key's stored body. A key the keydir lacks first
// refreshes it from the other instances' segments.
func (l *resultLog) get(key *[32]byte) ([]byte, bool) {
	if body, ok := l.read(key); ok {
		return body, true
	}
	l.refresh()
	return l.read(key)
}

// read preads key's record from the location the keydir gives and
// returns its body if the record's CRC and full key check out.
func (l *resultLog) read(key *[32]byte) ([]byte, bool) {
	l.mu.Lock()
	tag, loc, ok := l.kd.get(kdTag(key, 0))
	var f *os.File
	if ok {
		f = l.segs[loc>>kdOffBits].f
	}
	l.mu.Unlock()
	if !ok {
		return nil, false
	}
	rec := make([]byte, recHdrSize+int(tag&kdLenMask))
	if _, err := f.ReadAt(rec, int64(loc&kdOffMask)); err != nil {
		return nil, false
	}
	hdr := (*[recHdrSize]byte)(rec)
	body := rec[recHdrSize:]
	if n, ok := recordLen(hdr, int64(len(rec))); !ok || n != len(body) ||
		*(*[32]byte)(hdr[4:36]) != *key || !recordCRCOK(hdr, body) {
		return nil, false
	}
	return body, true
}

// put appends key's record of body to the own segment, creating the
// segment on first use, and indexes it. Failures are silent: a
// directory where no segment can be created leaves an always-miss
// cache, and a failed write is cut off the segment (or, if that fails
// too, overwritten by the next append).
func (l *resultLog) put(key *[32]byte, body []byte) {
	if len(body) == 0 || len(body) > maxBody {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.own < 0 && !l.create() {
		return
	}
	l.wbuf = appendRecord(l.wbuf[:0], key, body)
	f := l.segs[l.own].f
	if _, err := f.WriteAt(l.wbuf, l.size); err != nil {
		_ = f.Truncate(l.size)
		return
	}
	l.kd.put(kdTag(key, len(body)), kdLoc(l.own, l.size))
	l.size += int64(len(l.wbuf))
}

// create makes the own segment under a fresh random name. l.mu is
// held.
func (l *resultLog) create() bool {
	var rnd [8]byte
	for try := 0; try < 4; try++ {
		if _, err := rand.Read(rnd[:]); err != nil {
			return false
		}
		name := l.prefix + hex.EncodeToString(rnd[:]) + segSuffix
		f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return false
		}
		if len(l.segs) == maxSegments {
			f.Close()
			_ = os.Remove(f.Name()) // an empty segment indexes nothing either way
			return false
		}
		l.names[name] = true
		l.segs = append(l.segs, &segment{f: f})
		l.own = len(l.segs) - 1
		return true
	}
	return false
}
