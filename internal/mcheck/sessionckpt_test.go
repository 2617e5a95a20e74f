package mcheck

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"cachesync/internal/protocol"
	_ "cachesync/internal/protocol/all"
)

// crashPeer wraps one in-process ShardSession and simulates its
// replica dying at a chosen Absorb: the session object is thrown away
// and a fresh one is resumed from the checkpoint directory, exactly
// what a coordinator re-dispatching to another replica does. mode
// "before" kills the replica before the absorb applied (the retry is
// a first delivery to the restored session); "after" kills it once the
// absorb applied but before the reply arrived (the retry must hit the
// idempotent-replay path).
type crashPeer struct {
	t       *testing.T
	o       Options
	self    int
	total   int
	dir     string
	sess    *ShardSession
	absorbs int
	crashAt int
	mode    string
}

func (p *crashPeer) swap(wantSeq int64) {
	s, err := NewShardSession(p.o, p.self, p.total)
	if err != nil {
		p.t.Fatal(err)
	}
	if err := s.SetCheckpointDir(p.dir, true); err != nil {
		p.t.Fatal(err)
	}
	reply, err := s.Open()
	if err != nil {
		p.t.Fatalf("resume open: %v", err)
	}
	if !reply.Resumed {
		p.t.Fatalf("session %d did not resume from %s", p.self, p.dir)
	}
	if reply.Seq != wantSeq {
		p.t.Fatalf("session %d resumed at seq %d, want %d", p.self, reply.Seq, wantSeq)
	}
	p.sess = s
}

func (p *crashPeer) Open() (*ShardOpenReply, error) {
	s, err := NewShardSession(p.o, p.self, p.total)
	if err != nil {
		return nil, err
	}
	if err := s.SetCheckpointDir(p.dir, false); err != nil {
		return nil, err
	}
	p.sess = s
	return s.Open()
}

func (p *crashPeer) Expand() (*ShardExpandReply, error) { return p.sess.Expand() }

func (p *crashPeer) Absorb(seq int64, cands []WireCand) (*ShardAbsorbReply, error) {
	p.absorbs++
	crash := p.absorbs == p.crashAt
	if crash && p.mode == "before" {
		p.swap(seq - 1)
	}
	reply, err := p.sess.Absorb(seq, cands)
	if err != nil || !(crash && p.mode == "after") {
		return reply, err
	}
	p.swap(seq)
	retry, err := p.sess.Absorb(seq, cands)
	if err != nil {
		p.t.Fatalf("idempotent retry of absorb seq %d: %v", seq, err)
	}
	if retry.Added != reply.Added || retry.Seq != reply.Seq {
		p.t.Fatalf("retry of absorb seq %d replied (%d,%d), first delivery said (%d,%d)",
			seq, retry.Added, retry.Seq, reply.Added, reply.Seq)
	}
	return retry, nil
}

func (p *crashPeer) TraceHop(id uint64) (*ShardHopReply, error) { return p.sess.TraceHop(id) }
func (p *crashPeer) Close() error                               { return nil }

// TestShardSessionCheckpointResume kills one session shard mid-run —
// both before and after the fatal absorb applied — resumes it from its
// checkpoint, and requires the merged Result to stay byte-identical to
// the single-process run. The mutant case additionally drags the
// counterexample trace rebuild through the resurrected session.
func TestShardSessionCheckpointResume(t *testing.T) {
	cases := []struct {
		name    string
		inject  string
		crashAt int
		mode    string
	}{
		{name: "before-first", crashAt: 1, mode: "before"},
		{name: "before-mid", crashAt: 3, mode: "before"},
		{name: "after-mid", crashAt: 3, mode: "after"},
		// The mutant violates during the depth-2 expansion, so the last
		// absorb is level 1 — crash there and the counterexample trace
		// rebuild walks through the resurrected sessions.
		{name: "mutant-after", inject: "ignore-lock", crashAt: 1, mode: "after"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			mk := func() protocol.Protocol {
				p := protocol.MustNew("bitar")
				if c.inject != "" {
					mp, err := Mutate(p, c.inject)
					if err != nil {
						t.Fatal(err)
					}
					p = mp
				}
				return p
			}
			o := Options{Protocol: mk(), Procs: 3, Blocks: 1, Depth: 5, Workers: 1, Symmetry: true}
			single, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			normalizeTiming(single)
			want, err := json.Marshal(single)
			if err != nil {
				t.Fatal(err)
			}

			const shards = 3
			root := t.TempDir()
			so := o
			so.Protocol = mk()
			peers := make([]ShardPeer, shards)
			for i := range peers {
				peers[i] = &crashPeer{
					t: t, o: so, self: i, total: shards,
					dir:     filepath.Join(root, fmt.Sprintf("sess%d", i)),
					crashAt: c.crashAt, mode: c.mode,
				}
			}
			res, err := RunSharded(so, peers)
			if err != nil {
				t.Fatal(err)
			}
			normalizeTiming(res)
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("result differs after crash+resume\n got %s\nwant %s", got, want)
			}
			for i, p := range peers {
				if cp := p.(*crashPeer); cp.absorbs < cp.crashAt {
					t.Errorf("session %d saw %d absorbs; the crash at %d never happened", i, cp.absorbs, cp.crashAt)
				}
			}
		})
	}
}

// TestRedispatchBetweenExpandAndAbsorb: a replica can die between a
// session's Expand and its Absorb. The coordinator then re-opens the
// session from its checkpoint and retries the Absorb with the
// candidates it already holds. The checkpoint that Absorb writes must
// count the level's expansion, so that a later resume reports what an
// uninterrupted session reports at the same level.
func TestRedispatchBetweenExpandAndAbsorb(t *testing.T) {
	for _, o := range []Options{
		{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 2, Depth: 4, Workers: 2, Symmetry: true},
		// Under POR the recount filters each state's actions as Expand does.
		{Protocol: protocol.MustNew("bitar"), Procs: 3, Blocks: 2, Depth: 4, Workers: 2, Symmetry: true, POR: true},
	} {
		open := func(dir string, resume bool) (*ShardSession, *ShardOpenReply) {
			t.Helper()
			s, err := NewShardSession(o, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetCheckpointDir(dir, resume); err != nil {
				t.Fatal(err)
			}
			reply, err := s.Open()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s, reply
		}
		expand := func(s *ShardSession) []WireCand {
			t.Helper()
			ex, err := s.Expand()
			if err != nil {
				t.Fatal(err)
			}
			return ex.Out[0]
		}
		absorb := func(s *ShardSession, seq int64, cands []WireCand) {
			t.Helper()
			if _, err := s.Absorb(seq, cands); err != nil {
				t.Fatalf("absorb seq %d: %v", seq, err)
			}
		}
		for _, crashAt := range []int64{1, 3} {
			full, crashed := t.TempDir(), t.TempDir()
			u, _ := open(full, false)
			s, _ := open(crashed, false)
			for seq := int64(1); seq <= crashAt; seq++ {
				absorb(u, seq, expand(u))
				if seq < crashAt {
					absorb(s, seq, expand(s))
				}
			}
			cands := expand(s)
			r, reply := open(crashed, true)
			if !reply.Resumed || reply.Seq != crashAt-1 {
				t.Fatalf("re-dispatched session resumed=%v at seq %d, want seq %d", reply.Resumed, reply.Seq, crashAt-1)
			}
			absorb(r, crashAt, cands)
			counts := func(r *ShardOpenReply) [4]int64 { return [4]int64{r.Seq, r.States, r.Transitions, r.Frontier} }
			_, want := open(full, true)
			_, got := open(crashed, true)
			if counts(got) != counts(want) {
				t.Errorf("por=%v crash before absorb %d: seq, states, transitions and frontier resume as %v, uninterrupted %v",
					o.POR, crashAt, counts(got), counts(want))
			}
		}
	}
}

// TestShardSessionAbsorbSeq pins Absorb's input discipline. A replayed
// level is answered from the recorded reply without reapplying, and
// anything out of order is an error, not silent corruption. Candidates
// are checked as they would arrive over HTTP: the owner hashes each key
// itself, so one key sent twice under different claimed hashes is one
// state, and a parent outside every session is refused before anything
// is stored.
func TestShardSessionAbsorbSeq(t *testing.T) {
	o := Options{Protocol: protocol.MustNew("bitar"), Procs: 2, Blocks: 2, Depth: 4, Workers: 1}
	s, err := NewShardSession(o, 0, 1)
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
	first, err := s.Absorb(1, ex.Out[0])
	if err != nil {
		t.Fatal(err)
	}
	replay, err := s.Absorb(1, ex.Out[0])
	if err != nil {
		t.Fatalf("replay of seq 1: %v", err)
	}
	if replay.Added != first.Added || replay.Seq != 1 {
		t.Fatalf("replay replied (%d,%d), first delivery said (%d,1)", replay.Added, replay.Seq, first.Added)
	}
	if states := s.st.states(); states != first.Added+1 {
		t.Fatalf("replay reapplied: %d visited states, want %d", states, first.Added+1)
	}
	for _, bad := range []int64{0, 3} {
		if _, err := s.Absorb(bad, nil); err == nil || !strings.Contains(err.Error(), "absorb seq") {
			t.Fatalf("absorb seq %d (session at 1): err = %v, want sequence error", bad, err)
		}
	}

	s, err = NewShardSession(o, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if ex, err = s.Expand(); err != nil {
		t.Fatal(err)
	}
	c := ex.Out[0][0]
	bad := c
	bad.ParentSess = -1
	if _, err := s.Absorb(1, []WireCand{c, bad}); err == nil || !strings.Contains(err.Error(), "parent") {
		t.Fatalf("absorb of a candidate with psess -1: err = %v, want a parent error", err)
	}
	if n := s.st.states(); n != 1 {
		t.Fatalf("rejected absorb stored states: %d visited, want 1", n)
	}
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	h := hashKey(c.Key)
	body := fmt.Sprintf(`[{"hash":%d,%s,{"hash":%d,%s]`, h, raw[1:], h^1<<63, raw[1:])
	var twice []WireCand
	if err := json.Unmarshal([]byte(body), &twice); err != nil {
		t.Fatal(err)
	}
	got, err := s.Absorb(1, twice)
	if err != nil {
		t.Fatal(err)
	}
	if got.Added != 1 || s.st.states() != 2 {
		t.Fatalf("one key under two claimed hashes: added %d, %d visited; want 1 and 2", got.Added, s.st.states())
	}
}

// TestShardSessionSnapshotRejectsMismatch: a snapshot written under
// one configuration must not restore into a session with another.
func TestShardSessionSnapshotRejectsMismatch(t *testing.T) {
	dir := t.TempDir()
	o := Options{Protocol: protocol.MustNew("bitar"), Procs: 2, Blocks: 2, Depth: 4, Workers: 1}
	s, err := NewShardSession(o, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCheckpointDir(dir, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(); err != nil {
		t.Fatal(err)
	}

	od := o
	od.Depth = 5
	od.Protocol = protocol.MustNew("bitar")
	s2, err := NewShardSession(od, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.SetCheckpointDir(dir, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Open(); err == nil || !strings.Contains(err.Error(), "different options") {
		t.Fatalf("resume under different depth: err = %v, want options mismatch", err)
	}

	// Same options, different coordinates: shard 1's session must not
	// swallow shard 0's snapshot.
	oc := o
	oc.Protocol = protocol.MustNew("bitar")
	s3, err := NewShardSession(oc, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.SetCheckpointDir(dir, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Open(); err == nil || !strings.Contains(err.Error(), "different options") {
		t.Fatalf("resume under different coordinates: err = %v, want mismatch", err)
	}
}
