package mcheck

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Checkpoint/resume. A session with a checkpoint directory
// (Options.CheckpointDir for Run, SetCheckpointDir for a hosted fleet
// session) checkpoints itself after Open and after every Absorb — the
// only phases that mutate it — in one format:
//
//   - snap-<seq>.mcs — binary snapshot of the live visited tables (the
//     part of the store not yet sealed to disk) with their parent
//     edges, the frontier boundary per table shard, and the counters.
//     Bounded by MemBudget when spilling; the full visited set
//     otherwise.
//   - run-*.mcr — the sealed runs themselves (spill.go writes them
//     here when checkpointing is on, so they survive the process).
//   - MANIFEST.json — names the snapshot and the run files per shard.
//     Written last via tmp+rename, so the manifest on disk always
//     describes a complete, consistent set of files: the new snapshot
//     is durable before the manifest points at it, the previous
//     snapshot and compacted-away runs are deleted only after the
//     rename. A kill at any instant leaves either the old or the new
//     checkpoint intact.
//
// Opening with resume loads the manifest if present — verifying an
// options fingerprint (which pins POR and the session coordinates
// too), every run's checksum, and the snapshot's —
// rebuilds the fingerprint sets from the runs' hash sections, and
// reports the restored level so the coordinator continues at the next
// one. Insertion order survives the reload, so state IDs do too: other
// sessions hold them as parent pointers. Because seals and merges are
// deterministic functions of the explored state space, a resumed run
// produces a byte-identical Result (timing aside) to an uninterrupted
// one, at any worker count; violations are never checkpointed (a level
// that finds one completes the run), so a killed run re-finds its
// counterexample deterministically. Run deletes its checkpoint on
// completion, so only a run killed mid-flight leaves one behind, which
// is what makes always-pass-Resume kill/retry loops safe; without
// Resume it refuses a directory that holds one.
//
// A POR run is one pass like any other and checkpoints in this format.
// The per-block layout of earlier builds (POR_MANIFEST.json plus
// block-<b>/ subdirectories) is not read: such a directory resumes
// nothing and starts fresh.

const (
	snapMagic        = 0x3153434d // "MCS1" little-endian
	ckptManifestName = "MANIFEST.json"
	ckptVersion      = 2
)

type ckptManifest struct {
	Version     int        `json:"version"`
	OptionsHash string     `json:"options_hash"`
	Snap        string     `json:"snap"`
	Runs        [][]string `json:"runs"` // per visited shard, in probe order
}

// optionsHash fingerprints everything that shapes the explored state
// space — POR and the session coordinates included — so a checkpoint
// is never resumed under different options or by another session.
// Workers is deliberately absent: resuming with a different worker
// count is legal and byte-identical.
func optionsHash(o Options, self, total int) string {
	s := fmt.Sprintf("v%d|%s|p%d b%d w%d d%d|sym=%t|por=%t|max=%d|budget=%d|sess=%d/%d",
		ckptVersion, o.Protocol.Name(), o.Procs, o.Blocks, o.Words, o.Depth,
		o.Symmetry, o.POR, o.MaxStates, o.MemBudget, self, total)
	return fmt.Sprintf("%016x", fnv1a(0, []byte(s)))
}

// checkpointer owns one session's checkpoint directory.
type checkpointer struct {
	dir  string
	hash string
	snap string // current snapshot file name; "" before the first save
	// keepDir marks a directory the caller named (Run's CheckpointDir):
	// discarding the checkpoint empties it but leaves it in place.
	keepDir bool
}

// SetCheckpointDir enables checkpointing into dir; resume makes the
// next Open restore an existing checkpoint instead of seeding. Must be
// called before Open.
func (s *ShardSession) SetCheckpointDir(dir string, resume bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("mcheck: checkpoint dir: %w", err)
	}
	s.ck = &checkpointer{dir: dir, hash: optionsHash(s.o, s.self, s.total)}
	s.resume = resume
	return nil
}

// DiscardCheckpoint closes the session's store and removes its
// checkpoint and directory; called when the exploration completes.
func (s *ShardSession) DiscardCheckpoint() {
	if s.ck == nil {
		return
	}
	if s.st != nil {
		s.st.close()
	}
	s.ck.clear()
	if !s.ck.keepDir {
		os.Remove(s.ck.dir)
	}
}

// exists reports whether the directory holds a checkpoint.
func (c *checkpointer) exists() bool {
	_, err := os.Stat(filepath.Join(c.dir, ckptManifestName))
	return err == nil
}

// clear deletes every checkpoint file in the directory.
func (c *checkpointer) clear() {
	os.Remove(filepath.Join(c.dir, ckptManifestName))
	for _, pat := range []string{"snap-*.mcs", "snap-*.mcs.tmp", "run-*.mcr", "run-*.mcr.tmp", ckptManifestName + ".tmp"} {
		matches, _ := filepath.Glob(filepath.Join(c.dir, pat))
		for _, p := range matches {
			os.Remove(p)
		}
	}
	c.snap = ""
}

// load restores the checkpoint in c.dir into s's freshly opened store,
// or reports false when there is none.
func (c *checkpointer) load(s *ShardSession) (bool, error) {
	data, err := os.ReadFile(filepath.Join(c.dir, ckptManifestName))
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	var m ckptManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return false, fmt.Errorf("mcheck: checkpoint manifest: %w", err)
	}
	if m.Version != ckptVersion {
		return false, fmt.Errorf("mcheck: checkpoint version %d, want %d", m.Version, ckptVersion)
	}
	if m.OptionsHash != c.hash {
		return false, fmt.Errorf("mcheck: checkpoint in %s was written under different options or by another session (hash %s, want %s)",
			c.dir, m.OptionsHash, c.hash)
	}
	if len(m.Runs) != shardCount {
		return false, fmt.Errorf("mcheck: checkpoint manifest has %d shards, want %d", len(m.Runs), shardCount)
	}
	if filepath.Base(m.Snap) != m.Snap {
		return false, fmt.Errorf("mcheck: checkpoint manifest names snapshot %q outside its directory", m.Snap)
	}
	st := s.st
	sp, err := readSnapshot(filepath.Join(c.dir, m.Snap), st, s.total)
	if err != nil {
		return false, err
	}
	// Adopt the sealed runs: verify checksums (they crossed a process
	// boundary), check they tile [0, sealed) exactly, and rebuild the
	// in-memory fingerprint sets from their hash sections.
	for sh := range m.Runs {
		ss := &st.shards[sh]
		next := uint64(0)
		for _, name := range m.Runs[sh] {
			if filepath.Base(name) != name {
				return false, fmt.Errorf("mcheck: checkpoint manifest names run %q outside its directory", name)
			}
			r, err := openRun(filepath.Join(c.dir, name), st.kw, true)
			if err != nil {
				return false, err
			}
			ss.runs = append(ss.runs, r)
			if r.base != next {
				return false, fmt.Errorf("mcheck: checkpoint shard %d: run %s starts at %d, want %d", sh, name, r.base, next)
			}
			next = r.base + uint64(r.count)
			hashes, err := r.readHashes()
			if err != nil {
				return false, err
			}
			for _, h := range hashes {
				ss.fp.add(h)
			}
		}
		if next != uint64(ss.sealed) {
			return false, fmt.Errorf("mcheck: checkpoint shard %d: runs cover %d sealed states, snapshot says %d", sh, next, ss.sealed)
		}
	}
	c.snap = m.Snap
	s.seq, s.transitions, s.front = sp.seq, sp.transitions, sp.frontier
	return true, nil
}

// save checkpoints the session at its current level: snapshot first,
// manifest rename second, garbage (previous snapshot, compacted-away
// runs) last. s.frontStart holds each table shard's frontier start.
func (c *checkpointer) save(s *ShardSession) error {
	st := s.st
	snapName := fmt.Sprintf("snap-%06d.mcs", s.seq)
	if err := writeSnapshot(filepath.Join(c.dir, snapName), st, s.seq, s.transitions, s.frontStart); err != nil {
		return err
	}
	m := ckptManifest{Version: ckptVersion, OptionsHash: c.hash, Snap: snapName, Runs: make([][]string, shardCount)}
	for sh := range st.shards {
		files := []string{}
		for _, r := range st.shards[sh].runs {
			files = append(files, filepath.Base(r.path))
		}
		m.Runs[sh] = files
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	mpath := filepath.Join(c.dir, ckptManifestName)
	if err := writeFileSync(mpath+".tmp", data); err != nil {
		return err
	}
	if err := os.Rename(mpath+".tmp", mpath); err != nil {
		return err
	}
	syncDir(c.dir)
	if c.snap != "" && c.snap != snapName {
		os.Remove(filepath.Join(c.dir, c.snap))
	}
	c.snap = snapName
	st.dropObsolete()
	return nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames within it are durable; best
// effort (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// writeSnapshot serializes the store's live half plus counters:
//
//	u32 magic, u32 kw
//	u64 seq, states, transitions, seals, nextSeq
//	64 × shard: u64 sealed, u64 frontStart, u64 liveN,
//	            liveN × (kw×8 key, u64 hash, 32-byte edge)
//	u64 fnv-1a checksum of everything above
func writeSnapshot(path string, st *spillStore, seq, transitions int64, frontStart []int) (retErr error) {
	f, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if retErr != nil {
			f.Close()
			os.Remove(path + ".tmp")
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<16)
	var sum uint64
	wr := func(p []byte) {
		sum = fnv1a(sum, p)
		bw.Write(p) // sticky error, checked at Flush
	}
	buf := make([]byte, 0, 1<<12)
	buf = binary.LittleEndian.AppendUint32(buf, snapMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(st.kw))
	for _, v := range []uint64{uint64(seq), uint64(st.states()), uint64(transitions), uint64(st.seals), uint64(st.nextSeq)} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	wr(buf)
	for s := range st.shards {
		sh := &st.shards[s]
		t := sh.live
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sh.sealed))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(frontStart[s]))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.n))
		wr(buf)
		for i := 0; i < t.n; i++ {
			buf = buf[:0]
			for _, w := range t.key(i) {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
			buf = binary.LittleEndian.AppendUint64(buf, t.hash(i))
			buf = append(buf, t.edge(i)...)
			wr(buf)
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf[:0], sum)
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// snapPoint is a decoded snapshot's session state.
type snapPoint struct {
	seq, transitions int64
	frontier         []stateID
}

// readSnapshot decodes a snapshot into st (live tables, sealed counts,
// seal/seq counters) and returns the session's level, transitions and
// frontier. total bounds the parent sessions the edges may name. The
// checksum is verified first, and every field is bounds-checked
// against the file size before it drives an allocation; each key's
// hash is recomputed rather than trusted — FuzzRunFileDecode feeds
// this arbitrary bytes.
func readSnapshot(path string, st *spillStore, total int) (*snapPoint, error) {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("mcheck: snapshot %s: %s", path, fmt.Sprintf(format, args...))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	const hdrSz = 8 + 5*8
	if len(data) < hdrSz+shardCount*24+8 {
		return nil, fail("short file (%d bytes)", len(data))
	}
	if got := fnv1a(0, data[:len(data)-8]); got != binary.LittleEndian.Uint64(data[len(data)-8:]) {
		return nil, fail("checksum mismatch")
	}
	if binary.LittleEndian.Uint32(data) != snapMagic {
		return nil, fail("bad magic")
	}
	if got := int(binary.LittleEndian.Uint32(data[4:])); got != st.kw {
		return nil, fail("key width %d, want %d", got, st.kw)
	}
	seq := binary.LittleEndian.Uint64(data[8:])
	states := binary.LittleEndian.Uint64(data[16:])
	transitions := binary.LittleEndian.Uint64(data[24:])
	seals := binary.LittleEndian.Uint64(data[32:])
	nextSeq := binary.LittleEndian.Uint64(data[40:])
	if seq > 1<<20 || states > 1<<40 || transitions > 1<<50 || seals > 1<<32 || nextSeq > 1<<32 {
		return nil, fail("implausible counters")
	}
	body := data[:len(data)-8]
	off := hdrSz
	entSz := st.kw*8 + 8 + runEdgeSz
	var frontier []stateID
	var count uint64
	key := make([]uint64, st.kw)
	for s := 0; s < shardCount; s++ {
		if off+24 > len(body) {
			return nil, fail("truncated at shard %d header", s)
		}
		sealed := binary.LittleEndian.Uint64(body[off:])
		fs := binary.LittleEndian.Uint64(body[off+8:])
		liveN := binary.LittleEndian.Uint64(body[off+16:])
		off += 24
		if liveN > uint64((len(body)-off)/entSz) {
			return nil, fail("shard %d claims %d live entries beyond file size", s, liveN)
		}
		n := sealed + liveN
		if n >= 1<<32 || fs < sealed || fs > n {
			return nil, fail("shard %d counts out of range (sealed %d, frontier %d, live %d)", s, sealed, fs, liveN)
		}
		count += n
		sh := &st.shards[s]
		sh.sealed = int(sealed)
		for i := uint64(0); i < liveN; i++ {
			for j := range key {
				key[j] = binary.LittleEndian.Uint64(body[off+j*8:])
			}
			h := hashKey(key)
			if h != binary.LittleEndian.Uint64(body[off+st.kw*8:]) || shardOfHash(h) != s {
				return nil, fail("shard %d entry %d: hash does not match its key", s, i)
			}
			rec := body[off+st.kw*8+8 : off+entSz]
			if e := getEdge(rec); e.psess < 0 || int(e.psess) >= total {
				return nil, fail("shard %d entry %d: parent session %d", s, i, e.psess)
			}
			if sh.live.lookup(key, h) >= 0 {
				return nil, fail("shard %d entry %d: duplicate key", s, i)
			}
			sh.live.insert(key, h, rec)
			off += entSz
		}
		for g := fs; g < n; g++ {
			frontier = append(frontier, packID(s, int(g)))
		}
	}
	if off != len(body) {
		return nil, fail("%d trailing bytes", len(body)-off)
	}
	if count != states {
		return nil, fail("holds %d states, header says %d", count, states)
	}
	st.seals = int(seals)
	st.nextSeq = int(nextSeq)
	return &snapPoint{seq: int64(seq), transitions: int64(transitions), frontier: frontier}, nil
}
