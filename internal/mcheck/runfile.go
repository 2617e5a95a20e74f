package mcheck

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Sealed visited runs: the on-disk half of the spill store (spill.go).
//
// A run is an immutable file holding one contiguous slice of a shard's
// visited set — every entry sealed together when the shard crossed its
// memory budget. The file carries three views of the same entries:
//
//   - keys, sorted, delta-compressed: blocks of up to runBlockLen keys
//     where the first key is raw and each following key stores one
//     uvarint per word of the XOR against its predecessor. Sorted
//     neighbours share almost every word, so a key costs ~kw bytes
//     instead of 8·kw. Membership probes binary-search the in-memory
//     block index and decode one block.
//   - hashes, in sorted-key order: re-seeds the shard's in-memory
//     fingerprint set when a run is reopened on resume.
//   - edges, in insertion (global-index) order, fixed 32 bytes each:
//     parent pointers stay addressable by stateID after the keys
//     spill, so counterexample traces rebuild across sealed levels
//     with one pread per hop.
//
// The footer pins the section offsets and an FNV-1a checksum of
// everything before it; openRun rejects files whose geometry, order,
// or checksum is off, so a truncated or corrupted spill never decodes
// into a silently wrong visited set (FuzzRunFileDecode hammers this).

const (
	runMagic    = 0x3152434d // "MCR1" little-endian
	runFooterSz = 48
	runHeaderSz = 32
	// runBlockLen is the number of keys per compressed block: large
	// enough to amortize the raw first key, small enough that a probe
	// decodes only a few KB.
	runBlockLen = 64
	// runEdgeSz is the fixed on-disk size of one parent edge.
	runEdgeSz = 32
)

// runFileName names the seq-th sealed run of a store.
func runFileName(seq int) string { return fmt.Sprintf("run-%06d.mcr", seq) }

// fnv1a is the checksum used by the run and snapshot codecs — cheap,
// streaming, and dependency-free. Integrity against bugs and truncation,
// not adversaries.
func fnv1a(h uint64, p []byte) uint64 {
	if h == 0 {
		h = 0xcbf29ce484222325
	}
	for _, b := range p {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}

// putEdge encodes one parent edge into a fixed 32-byte record; the
// parent's session shard fills the last four bytes.
func putEdge(dst []byte, e edge) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(e.parent))
	binary.LittleEndian.PutUint64(dst[8:], e.act.Block)
	binary.LittleEndian.PutUint64(dst[16:], e.act.Value)
	dst[24] = uint8(e.act.Proc)
	dst[25] = uint8(e.act.Kind)
	dst[26] = uint8(e.act.Op)
	dst[27] = uint8(e.act.Word)
	binary.LittleEndian.PutUint32(dst[28:], uint32(e.psess))
}

// getEdge decodes a 32-byte edge record.
func getEdge(src []byte) edge {
	return edge{
		parent: stateID(binary.LittleEndian.Uint64(src[0:])),
		psess:  int32(binary.LittleEndian.Uint32(src[28:])),
		act: Action{
			Block: binary.LittleEndian.Uint64(src[8:]),
			Value: binary.LittleEndian.Uint64(src[16:]),
			Proc:  int(src[24]),
			Kind:  ActionKind(src[25]),
			Op:    opFromByte(src[26]),
			Word:  int(src[27]),
		},
	}
}

// runWriter streams one sealed run to disk: keys added in sorted order,
// then the edge section, then hashes/index/footer on close. Writes go
// through a buffer, flushed once the footer is in.
type runWriter struct {
	f       *os.File
	bw      *bufio.Writer
	path    string
	kw      int
	base    uint64
	buf     []byte
	off     uint64
	sum     uint64
	count   int
	inBlock int
	prev    []uint64
	index   []runBlockRef
	hashes  []uint64

	// durable makes finish fsync the file before renaming it into place
	// (and sets synced once it has): a checkpoint manifest may name the
	// run after a crash. Without a checkpoint nothing reads a run after
	// the process ends, so the fsync would buy nothing.
	durable, synced bool
}

// runBlockRef is one block-index entry: the block's first key (owned
// copy) and its file offset.
type runBlockRef struct {
	first []uint64
	off   uint64
}

func newRunWriter(dir string, seq int, kw int, base uint64) (*runWriter, error) {
	path := filepath.Join(dir, runFileName(seq))
	f, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := &runWriter{f: f, bw: bufio.NewWriter(f), path: path, kw: kw, base: base, prev: make([]uint64, kw)}
	hdr := make([]byte, runHeaderSz)
	binary.LittleEndian.PutUint32(hdr[0:], runMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(kw))
	binary.LittleEndian.PutUint64(hdr[8:], base)
	// count and nBlocks land in the footer; header bytes 16..32 are
	// reserved (zero) so the header can be written up front.
	return w, w.write(hdr)
}

func (w *runWriter) write(p []byte) error {
	w.sum = fnv1a(w.sum, p)
	w.off += uint64(len(p))
	_, err := w.bw.Write(p)
	return err
}

// add appends one key (strictly greater than the previous) plus its
// hash.
func (w *runWriter) add(key []uint64, hash uint64) error {
	w.buf = w.buf[:0]
	if w.inBlock == 0 {
		w.index = append(w.index, runBlockRef{first: append([]uint64(nil), key...), off: w.off})
		for _, v := range key {
			w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
		}
	} else {
		for i, v := range key {
			w.buf = binary.AppendUvarint(w.buf, v^w.prev[i])
		}
	}
	copy(w.prev, key)
	w.hashes = append(w.hashes, hash)
	w.count++
	w.inBlock++
	if w.inBlock == runBlockLen {
		w.inBlock = 0
	}
	return w.write(w.buf)
}

// finish writes the edge, hash, index, and footer sections. edges must
// hold count records in insertion order, already encoded (runEdgeSz
// bytes each).
func (w *runWriter) finish(edges []byte) (retErr error) {
	defer func() {
		if w.f != nil {
			w.f.Close()
			os.Remove(w.path + ".tmp")
		}
	}()
	if len(edges) != w.count*runEdgeSz {
		return fmt.Errorf("mcheck: run writer: %d edge bytes for %d entries", len(edges), w.count)
	}
	edgesOff := w.off
	if err := w.write(edges); err != nil {
		return err
	}
	hashesOff := w.off
	w.buf = w.buf[:0]
	for _, h := range w.hashes {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, h)
	}
	if err := w.write(w.buf); err != nil {
		return err
	}
	indexOff := w.off
	w.buf = w.buf[:0]
	for _, br := range w.index {
		for _, v := range br.first {
			w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
		}
		w.buf = binary.LittleEndian.AppendUint64(w.buf, br.off)
	}
	if err := w.write(w.buf); err != nil {
		return err
	}
	ftr := make([]byte, runFooterSz)
	binary.LittleEndian.PutUint64(ftr[0:], edgesOff)
	binary.LittleEndian.PutUint64(ftr[8:], hashesOff)
	binary.LittleEndian.PutUint64(ftr[16:], indexOff)
	binary.LittleEndian.PutUint64(ftr[24:], uint64(w.count))
	binary.LittleEndian.PutUint32(ftr[32:], uint32(len(w.index)))
	binary.LittleEndian.PutUint32(ftr[36:], runMagic)
	// The checksum covers every preceding byte, footer head included,
	// so verification can hash [0, size-8) in one pass.
	w.sum = fnv1a(w.sum, ftr[:40])
	binary.LittleEndian.PutUint64(ftr[40:], w.sum)
	if _, err := w.bw.Write(ftr); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if w.durable {
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.synced = true
	}
	if err := w.f.Close(); err != nil {
		w.f = nil
		os.Remove(w.path + ".tmp")
		return err
	}
	w.f = nil
	return os.Rename(w.path+".tmp", w.path)
}

// runReader is one open sealed run: the block index and bounds live in
// memory; key blocks and edges are read on demand with ReadAt, so
// concurrent probes from BFS workers share the file handle statelessly.
type runReader struct {
	f         *os.File
	path      string
	size      int64 // file bytes
	kw        int
	base      uint64 // global index of the first edge entry
	count     int
	edgesOff  uint64
	hashesOff uint64
	index     []runBlockRef
	last      []uint64 // greatest key in the run
}

// openRun validates and indexes a sealed run. verify re-reads the whole
// file to check the footer checksum — done when adopting files from a
// checkpoint (resume), skipped for files this process just wrote.
func openRun(path string, kw int, verify bool) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := indexRun(f, path, kw, verify)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func indexRun(f *os.File, path string, kw int, verify bool) (*runReader, error) {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("mcheck: run %s: %s", path, fmt.Sprintf(format, args...))
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < runHeaderSz+runFooterSz {
		return nil, fail("short file (%d bytes)", size)
	}
	hdr := make([]byte, runHeaderSz)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != runMagic {
		return nil, fail("bad magic")
	}
	if got := int(binary.LittleEndian.Uint32(hdr[4:])); got != kw {
		return nil, fail("key width %d, want %d", got, kw)
	}
	ftr := make([]byte, runFooterSz)
	if _, err := f.ReadAt(ftr, size-runFooterSz); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(ftr[36:]) != runMagic {
		return nil, fail("bad footer magic")
	}
	r := &runReader{
		f: f, path: path, size: size, kw: kw,
		base:      binary.LittleEndian.Uint64(hdr[8:]),
		edgesOff:  binary.LittleEndian.Uint64(ftr[0:]),
		hashesOff: binary.LittleEndian.Uint64(ftr[8:]),
		count:     int(binary.LittleEndian.Uint64(ftr[24:])),
	}
	indexOff := binary.LittleEndian.Uint64(ftr[16:])
	nBlocks := int(binary.LittleEndian.Uint32(ftr[32:]))
	bodyEnd := uint64(size - runFooterSz)
	// Geometry checks: every section must be in order, inside the file,
	// and exactly the size its entry count implies.
	if r.count <= 0 || r.count > 1<<40 || nBlocks != (r.count+runBlockLen-1)/runBlockLen {
		return nil, fail("inconsistent entry/block counts (%d entries, %d blocks)", r.count, nBlocks)
	}
	if r.edgesOff < runHeaderSz || r.edgesOff > r.hashesOff || r.hashesOff > indexOff || indexOff > bodyEnd {
		return nil, fail("section offsets out of order")
	}
	if r.hashesOff-r.edgesOff != uint64(r.count)*runEdgeSz {
		return nil, fail("edge section size mismatch")
	}
	if indexOff-r.hashesOff != uint64(r.count)*8 {
		return nil, fail("hash section size mismatch")
	}
	if bodyEnd-indexOff != uint64(nBlocks)*uint64(kw+1)*8 {
		return nil, fail("index section size mismatch")
	}
	if verify {
		sum, err := checksumFile(f, size-8)
		if err != nil {
			return nil, err
		}
		if sum != binary.LittleEndian.Uint64(ftr[40:]) {
			return nil, fail("checksum mismatch")
		}
	}
	idx := make([]byte, bodyEnd-indexOff)
	if _, err := f.ReadAt(idx, int64(indexOff)); err != nil {
		return nil, err
	}
	r.index = make([]runBlockRef, nBlocks)
	prevOff := uint64(runHeaderSz)
	for i := range r.index {
		rec := idx[i*(kw+1)*8:]
		first := make([]uint64, kw)
		for j := range first {
			first[j] = binary.LittleEndian.Uint64(rec[j*8:])
		}
		off := binary.LittleEndian.Uint64(rec[kw*8:])
		if off < prevOff || off >= r.edgesOff {
			return nil, fail("block %d offset out of range", i)
		}
		if i > 0 && !lessKey(r.index[i-1].first, first) {
			return nil, fail("block index not sorted")
		}
		r.index[i] = runBlockRef{first: first, off: off}
		prevOff = off
	}
	// Decode the last block once to learn the run's greatest key and
	// prove the tail decodes.
	sc := newProbeScratch(kw)
	keys, n, err := r.readBlock(len(r.index)-1, sc)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fail("empty final block")
	}
	r.last = append([]uint64(nil), keys[(n-1)*kw:n*kw]...)
	return r, nil
}

// checksumFile re-reads [0, end) and returns its FNV-1a sum. end is the
// checksum field's own offset.
func checksumFile(f *os.File, end int64) (uint64, error) {
	var sum uint64
	buf := make([]byte, 1<<16)
	for off := int64(0); off < end; {
		n := int64(len(buf))
		if off+n > end {
			n = end - off
		}
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return 0, err
		}
		sum = fnv1a(sum, buf[:n])
		off += n
	}
	return sum, nil
}

func (r *runReader) close() error { return r.f.Close() }

// blockLen returns the number of keys in block i.
func (r *runReader) blockLen(i int) int {
	if i == len(r.index)-1 {
		return r.count - i*runBlockLen
	}
	return runBlockLen
}

// blockBytes returns block i's byte extent.
func (r *runReader) blockBytes(i int) (off, n uint64) {
	off = r.index[i].off
	end := r.edgesOff
	if i+1 < len(r.index) {
		end = r.index[i+1].off
	}
	return off, end - off
}

// readBlock decodes block i into sc's cache slot and returns the flat
// key array (n keys of kw words).
func (r *runReader) readBlock(i int, sc *probeScratch) ([]uint64, int, error) {
	slot := &sc.blocks[i%len(sc.blocks)]
	if slot.r == r && slot.block == i && slot.n > 0 {
		return slot.keys, slot.n, nil
	}
	off, bn := r.blockBytes(i)
	if cap(sc.buf) < int(bn) {
		sc.buf = make([]byte, bn)
	}
	buf := sc.buf[:bn]
	if _, err := r.f.ReadAt(buf, int64(off)); err != nil {
		return nil, 0, fmt.Errorf("mcheck: run %s: block %d: %w", r.path, i, err)
	}
	n := r.blockLen(i)
	if need := n * r.kw; cap(slot.keys) < need {
		slot.keys = make([]uint64, need)
	}
	keys := slot.keys[:n*r.kw]
	if len(buf) < r.kw*8 {
		return nil, 0, fmt.Errorf("mcheck: run %s: block %d truncated", r.path, i)
	}
	for j := 0; j < r.kw; j++ {
		keys[j] = binary.LittleEndian.Uint64(buf[j*8:])
	}
	p := r.kw * 8
	for k := 1; k < n; k++ {
		prev := keys[(k-1)*r.kw : k*r.kw]
		cur := keys[k*r.kw : (k+1)*r.kw]
		for j := 0; j < r.kw; j++ {
			d, sz := binary.Uvarint(buf[p:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("mcheck: run %s: block %d key %d corrupt varint", r.path, i, k)
			}
			p += sz
			cur[j] = prev[j] ^ d
		}
	}
	slot.r, slot.block, slot.n = r, i, n
	return keys, n, nil
}

// inRange reports whether key could be in this run.
func (r *runReader) inRange(key []uint64) bool {
	return !lessKey(key, r.index[0].first) && !lessKey(r.last, key)
}

// probe reports whether key is present in the run.
func (r *runReader) probe(key []uint64, sc *probeScratch) (bool, error) {
	if !r.inRange(key) {
		return false, nil
	}
	// Last block whose first key is <= key.
	i := sort.Search(len(r.index), func(i int) bool {
		return lessKey(key, r.index[i].first)
	}) - 1
	if i < 0 {
		return false, nil
	}
	keys, n, err := r.readBlock(i, sc)
	if err != nil {
		return false, err
	}
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		k := keys[mid*r.kw : (mid+1)*r.kw]
		switch {
		case equalKey(k, key):
			return true, nil
		case lessKey(k, key):
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false, nil
}

// contains reports whether this run covers global edge index idx.
func (r *runReader) containsIdx(idx uint64) bool {
	return idx >= r.base && idx < r.base+uint64(r.count)
}

// edgeAt reads the parent edge of global index idx.
func (r *runReader) edgeAt(idx uint64, sc *probeScratch) (edge, error) {
	if cap(sc.buf) < runEdgeSz {
		sc.buf = make([]byte, runEdgeSz)
	}
	buf := sc.buf[:runEdgeSz]
	off := r.edgesOff + (idx-r.base)*runEdgeSz
	if _, err := r.f.ReadAt(buf, int64(off)); err != nil {
		return edge{}, fmt.Errorf("mcheck: run %s: edge %d: %w", r.path, idx, err)
	}
	return getEdge(buf), nil
}

// readHashes returns the run's hash section (sorted-key order), for
// re-seeding the in-memory fingerprint set on resume.
func (r *runReader) readHashes() ([]uint64, error) {
	buf := make([]byte, r.count*8)
	if _, err := r.f.ReadAt(buf, int64(r.hashesOff)); err != nil {
		return nil, fmt.Errorf("mcheck: run %s: hashes: %w", r.path, err)
	}
	out := make([]uint64, r.count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return out, nil
}

// readEdgesRaw returns the raw edge section, for compaction.
func (r *runReader) readEdgesRaw() ([]byte, error) {
	buf := make([]byte, r.count*runEdgeSz)
	if _, err := r.f.ReadAt(buf, int64(r.edgesOff)); err != nil {
		return nil, fmt.Errorf("mcheck: run %s: edges: %w", r.path, err)
	}
	return buf, nil
}

// runIter streams a run's sorted keys+hashes for compaction merges.
type runIter struct {
	r      *runReader
	sc     *probeScratch
	hashes []uint64
	block  int
	pos    int
	keys   []uint64
	n      int
}

func newRunIter(r *runReader) (*runIter, error) {
	hashes, err := r.readHashes()
	if err != nil {
		return nil, err
	}
	return &runIter{r: r, sc: newProbeScratch(r.kw), hashes: hashes, block: -1}, nil
}

// next advances and returns the next key (aliasing an internal buffer)
// plus its hash; ok is false at the end.
func (it *runIter) next() (key []uint64, hash uint64, ok bool, err error) {
	if it.block < 0 || it.pos >= it.n {
		it.block++
		if it.block >= len(it.r.index) {
			return nil, 0, false, nil
		}
		it.keys, it.n, err = it.r.readBlock(it.block, it.sc)
		if err != nil {
			return nil, 0, false, err
		}
		it.pos = 0
	}
	i := it.block*runBlockLen + it.pos
	key = it.keys[it.pos*it.r.kw : (it.pos+1)*it.r.kw]
	it.pos++
	return key, it.hashes[i], true, nil
}
