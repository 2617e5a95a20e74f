package mcheck

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cachesync/internal/protocol"
	_ "cachesync/internal/protocol/all"
)

// fuzzKW is the key width every fuzzed decoder runs at. Width
// mismatches are part of what the decoders must reject, so corpus
// bytes written at other widths are still useful inputs.
const fuzzKW = 3

// FuzzRunFileDecode throws arbitrary bytes at both on-disk decoders of
// the spill/checkpoint layer — sealed run files and checkpoint
// snapshots, selected by the first input byte. Each decoder may reject
// the input (they almost always must) but may never panic, hang, or
// allocate unboundedly: both read length fields from the file and the
// bounds checks on those are exactly what this target exercises.
func FuzzRunFileDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, which byte, data []byte) {
		dir := t.TempDir()
		switch which % 2 {
		case 0:
			path := filepath.Join(dir, "fuzz.mcr")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := openRun(path, fuzzKW, true)
			if err == nil {
				// A file that passes verification must also scan cleanly.
				var sc probeScratch
				if it, err := newRunIter(r); err == nil {
					for {
						key, _, ok, err := it.next()
						if err != nil || !ok {
							break
						}
						if _, err := r.probe(key, &sc); err != nil {
							break
						}
					}
				}
				r.close()
			}
		case 1:
			path := filepath.Join(dir, "fuzz.mcs")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			st := newSpillStore(fuzzKW, dir, 0, 1)
			_, _ = readSnapshot(path, st, 2)
		}
	})
}

// absorbBody is the part of a replica's absorb call body that reaches
// ShardSession.Absorb.
type absorbBody struct {
	Seq   int64      `json:"seq"`
	Cands []WireCand `json:"cands"`
}

// fuzzAbsorbSession opens session 0 of 2 on bitar p2 b2 and expands
// its first level, the state a replica is in when level 1's absorb
// arrives.
func fuzzAbsorbSession(t testing.TB) (*ShardSession, *ShardExpandReply) {
	o := Options{Protocol: protocol.MustNew("bitar"), Procs: 2, Blocks: 2, Depth: 4, Workers: 1}
	s, err := NewShardSession(o, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(); err != nil {
		t.Fatal(err)
	}
	ex, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return s, ex
}

// FuzzShardAbsorb decodes arbitrary bytes as an absorb body and feeds
// it to a session that has been opened and expanded. Absorb may reject
// the input but must not panic, and the session must still expand
// afterwards: a rejected absorb leaves it untouched, an accepted one
// leaves only states the executor can restore.
func FuzzShardAbsorb(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var body absorbBody
		if json.Unmarshal(data, &body) != nil {
			return
		}
		s, _ := fuzzAbsorbSession(t)
		_, _ = s.Absorb(body.Seq, body.Cands)
		if _, err := s.Expand(); err != nil {
			t.Fatalf("session no longer expands after absorb: %v", err)
		}
	})
}

// TestRegenerateFuzzSeeds rewrites the committed seed corpora under
// testdata/fuzz from freshly encoded valid inputs — a run file and a
// snapshot for FuzzRunFileDecode, level-1 absorb bodies from a real
// expansion for FuzzShardAbsorb — so the fuzzers start from inputs
// that reach deep past the header checks. Run with
// MCHECK_WRITE_FUZZ_SEEDS=1 after a format change; it is a no-op
// otherwise.
func TestRegenerateFuzzSeeds(t *testing.T) {
	if os.Getenv("MCHECK_WRITE_FUZZ_SEEDS") == "" {
		t.Skip("set MCHECK_WRITE_FUZZ_SEEDS=1 to regenerate the seed corpus")
	}
	// writeSeed writes one corpus file; a nil which marks a target
	// that takes only the bytes.
	writeSeed := func(target, name string, which *byte, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := "go test fuzz v1\n"
		if which != nil {
			body += fmt.Sprintf("byte(%q)\n", *which)
		}
		body += fmt.Sprintf("[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()

	// A sealed run file with enough keys for delta blocks.
	w, err := newRunWriter(dir, 1, fuzzKW, 0)
	if err != nil {
		t.Fatal(err)
	}
	var edges []byte
	var ebuf [runEdgeSz]byte
	cur := make([]uint64, fuzzKW)
	for i := 0; i < 200; i++ {
		cur[0] += 1 + uint64(i%7)
		cur[1] = uint64(i) * 3
		if err := w.add(cur, hashKey(cur)); err != nil {
			t.Fatal(err)
		}
		putEdge(ebuf[:], edge{parent: packID(i%shardCount, i), psess: int32(i % 2), act: Action{Proc: i % 2}})
		edges = append(edges, ebuf[:]...)
	}
	if err := w.finish(edges); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	runfile, snapshot := byte(0), byte(1)
	writeSeed("FuzzRunFileDecode", "seed-runfile", &runfile, data)

	// A checkpoint snapshot of a small live store whose edges name
	// both sessions of a two-session run.
	st := newSpillStore(fuzzKW, dir, 0, 1)
	key := make([]uint64, fuzzKW)
	frontStart := make([]int, shardCount)
	for i := 0; i < 50; i++ {
		key[0] = uint64(i) + 1
		key[2] = uint64(i * i)
		h := hashKey(key)
		st.insert(shardOfHash(h), key, h, edge{parent: packID(i%shardCount, i), psess: int32(i % 2)})
	}
	snapPath := filepath.Join(dir, "seed.mcs")
	if err := writeSnapshot(snapPath, st, 2, 199, frontStart); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(snapPath); err != nil {
		t.Fatal(err)
	}
	writeSeed("FuzzRunFileDecode", "seed-snapshot", &snapshot, data)

	// Level-1 absorb bodies: what session 0 mails itself (accepted)
	// and what it mails session 1 (misrouted here, so rejected).
	_, ex := fuzzAbsorbSession(t)
	for d, name := range []string{"seed-own", "seed-misrouted"} {
		body, err := json.Marshal(absorbBody{Seq: 1, Cands: ex.Out[d]})
		if err != nil {
			t.Fatal(err)
		}
		writeSeed("FuzzShardAbsorb", name, nil, body)
	}
}
