package cache

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"cachesync/internal/addr"
	"cachesync/internal/bus"
	"cachesync/internal/core"
	"cachesync/internal/memory"
	"cachesync/internal/protocol"
)

var g = addr.MustGeometry(4, 4)

func newCache(t *testing.T, id int, cfg Config) (*Cache, *memory.Memory) {
	t.Helper()
	mem := memory.New(g)
	return New(id, g, core.Protocol{}, cfg, mem), mem
}

func fullAssoc() Config { return Config{Sets: 1, Ways: 8} }

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero ways did not panic")
		}
	}()
	New(0, g, core.Protocol{}, Config{Sets: 1, Ways: 0}, nil)
}

func TestProbeMissThenInstall(t *testing.T) {
	c, _ := newCache(t, 0, fullAssoc())
	r := c.Probe(protocol.OpRead, 8)
	if r.Hit || r.Cmd != bus.Read {
		t.Fatalf("probe miss: %+v", r)
	}
	if got := c.Counts.Get("proc.miss.read"); got != 1 {
		t.Errorf("miss not counted: %d", got)
	}
	c.Install(2, []uint64{1, 2, 3, 4}, core.RSC)
	if st := c.State(2); st != core.RSC {
		t.Errorf("state after install = %v", st)
	}
	if v, ok := c.ReadWord(9); !ok || v != 2 {
		t.Errorf("ReadWord(9) = %d,%v want 2,true", v, ok)
	}
	r = c.Probe(protocol.OpRead, 8)
	if !r.Hit {
		t.Errorf("probe after install: %+v, want hit", r)
	}
	if got := c.Counts.Get("proc.hit.read"); got != 1 {
		t.Errorf("hit not counted: %d", got)
	}
}

func TestWriteWordMarksUnitDirty(t *testing.T) {
	gu := addr.MustGeometry(4, 2)
	mem := memory.New(gu)
	c := New(0, gu, core.Protocol{}, Config{Sets: 1, Ways: 2, UnitMode: true}, mem)
	c.Install(0, []uint64{0, 0, 0, 0}, core.WSC)
	if !c.WriteWord(3, 7) {
		t.Fatal("WriteWord failed on valid block")
	}
	// Only unit 1 dirty: supply for a request on word 0 moves unit 0
	// (requested) + unit 1 (dirty) = 4 words; a request on word 3
	// moves only unit 1's 2 words... requested unit 1 is also the
	// dirty one.
	if got := c.SupplyWords(0, 0); got != 4 {
		t.Errorf("SupplyWords(word0) = %d, want 4", got)
	}
	if got := c.SupplyWords(0, 3); got != 2 {
		t.Errorf("SupplyWords(word3) = %d, want 2", got)
	}
	if got := c.EvictWords(0); got != 2 {
		t.Errorf("EvictWords = %d, want 2 (one dirty unit)", got)
	}
}

func TestSupplyWordsWholeBlockWithoutUnitMode(t *testing.T) {
	c, _ := newCache(t, 0, fullAssoc())
	c.Install(0, []uint64{1, 2, 3, 4}, core.WSD)
	if got := c.SupplyWords(0, 1); got != 4 {
		t.Errorf("SupplyWords = %d, want 4", got)
	}
	if got := c.EvictWords(0); got != 4 {
		t.Errorf("EvictWords = %d, want 4", got)
	}
}

func TestPrepareFillNoEvictionWhenRoom(t *testing.T) {
	c, _ := newCache(t, 0, Config{Sets: 1, Ways: 2})
	if v := c.PrepareFill(5); v.Needed {
		t.Errorf("empty cache wanted eviction: %+v", v)
	}
	c.Install(5, nil, core.RSC)
	if v := c.PrepareFill(6); v.Needed {
		t.Errorf("half-full cache wanted eviction: %+v", v)
	}
}

func TestPrepareFillEvictsLRU(t *testing.T) {
	c, _ := newCache(t, 0, Config{Sets: 1, Ways: 2})
	c.Install(1, []uint64{1, 1, 1, 1}, core.WSD)
	c.Install(2, []uint64{2, 2, 2, 2}, core.RSC)
	// Touch block 1 so block 2 is LRU.
	c.Probe(protocol.OpRead, g.Base(1))
	v := c.PrepareFill(3)
	if !v.Needed || v.Block != 2 {
		t.Fatalf("victim = %+v, want block 2", v)
	}
	if v.Evict.Writeback {
		t.Errorf("clean victim should not write back: %+v", v.Evict)
	}
	c.Drop(v.Block)
	c.Install(3, nil, core.RSC)
	if c.State(2) != protocol.Invalid {
		t.Error("victim still present")
	}
	if c.State(1) != core.WSD || c.State(3) != core.RSC {
		t.Error("survivor/new block wrong")
	}
}

func TestPrepareFillDirtyVictimNeedsWriteback(t *testing.T) {
	c, _ := newCache(t, 0, Config{Sets: 1, Ways: 1})
	c.Install(1, []uint64{9, 9, 9, 9}, core.WSD)
	v := c.PrepareFill(2)
	if !v.Needed || !v.Evict.Writeback {
		t.Fatalf("dirty victim: %+v", v)
	}
	if v.Data[0] != 9 {
		t.Errorf("victim data = %v", v.Data)
	}
}

func TestPrepareFillLockPurge(t *testing.T) {
	c, _ := newCache(t, 0, Config{Sets: 1, Ways: 1})
	c.Install(4, []uint64{1, 0, 0, 0}, core.LSDW)
	v := c.PrepareFill(5)
	if !v.Needed || !v.Evict.LockPurge || !v.Evict.Waiter {
		t.Fatalf("lock purge victim: %+v", v)
	}
}

func TestSetAssociativityMapping(t *testing.T) {
	c, _ := newCache(t, 0, Config{Sets: 4, Ways: 1})
	// Blocks 0 and 4 collide in set 0; block 1 goes to set 1.
	c.Install(0, nil, core.RSC)
	c.Install(1, nil, core.RSC)
	v := c.PrepareFill(4)
	if !v.Needed || v.Block != 0 {
		t.Fatalf("collision victim = %+v, want block 0", v)
	}
	if v2 := c.PrepareFill(5); !v2.Needed || v2.Block != 1 {
		t.Fatalf("set-1 victim = %+v, want block 1", v2)
	}
}

func TestSnoopReadSuppliesAndDowngrades(t *testing.T) {
	c, _ := newCache(t, 1, fullAssoc())
	c.Install(3, []uint64{7, 8, 9, 10}, core.WSD)
	txn := &bus.Transaction{Cmd: bus.Read, Block: 3, Requester: 0}
	c.Snoop(txn)
	if !txn.Lines.Hit || !txn.Lines.SourceHit || !txn.Lines.Dirty || !txn.Lines.Inhibit {
		t.Errorf("lines = %+v", txn.Lines)
	}
	if txn.BlockData == nil || txn.BlockData[0] != 7 {
		t.Errorf("supplied data = %v", txn.BlockData)
	}
	if c.State(3) != core.R {
		t.Errorf("post-snoop state = %v, want R", c.State(3))
	}
	if len(txn.Suppliers) != 1 || txn.Suppliers[0] != 1 {
		t.Errorf("suppliers = %v", txn.Suppliers)
	}
}

func TestSnoopReadXInvalidatesAndCounts(t *testing.T) {
	c, _ := newCache(t, 1, fullAssoc())
	c.Install(3, []uint64{1, 2, 3, 4}, core.R)
	txn := &bus.Transaction{Cmd: bus.ReadX, Block: 3, Requester: 0}
	c.Snoop(txn)
	if c.State(3) != protocol.Invalid {
		t.Errorf("state = %v, want Invalid", c.State(3))
	}
	if got := c.Counts.Get("snoop.invalidated"); got != 1 {
		t.Errorf("invalidation count = %d", got)
	}
}

func TestSnoopLockedBlockAssertsLine(t *testing.T) {
	c, _ := newCache(t, 1, fullAssoc())
	c.Install(3, []uint64{1, 0, 0, 0}, core.LSD)
	txn := &bus.Transaction{Cmd: bus.ReadX, Block: 3, Requester: 0, LockIntent: true}
	c.Snoop(txn)
	if !txn.Lines.Locked {
		t.Error("Locked line not asserted")
	}
	if c.State(3) != core.LSDW {
		t.Errorf("state = %v, want L.S.D.W", c.State(3))
	}
	if c.Counts.Get("snoop.locked-denial") != 1 {
		t.Error("denial not counted")
	}
}

func TestSnoopMissIsQuiet(t *testing.T) {
	c, _ := newCache(t, 1, fullAssoc())
	txn := &bus.Transaction{Cmd: bus.Read, Block: 3, Requester: 0}
	c.Snoop(txn)
	if txn.Lines.Hit || txn.Lines.SourceHit {
		t.Errorf("lines asserted on miss: %+v", txn.Lines)
	}
	if c.Counts.Get("snoop.tagmatch") != 0 {
		t.Error("tagmatch counted on miss")
	}
}

func TestBusyWaitRegisterWakeupCount(t *testing.T) {
	c, _ := newCache(t, 1, fullAssoc())
	c.BWReg = BusyWaitRegister{Armed: true, Block: 5}
	c.Snoop(&bus.Transaction{Cmd: bus.Unlock, Block: 5, Requester: 0})
	if c.Counts.Get("bwreg.wakeup") != 1 {
		t.Error("wakeup not counted")
	}
	c.Snoop(&bus.Transaction{Cmd: bus.Unlock, Block: 6, Requester: 0})
	if c.Counts.Get("bwreg.wakeup") != 1 {
		t.Error("wakeup counted for wrong block")
	}
}

func TestWriteHitCleanStatistic(t *testing.T) {
	// Feature 3: frequency of write hits to clean blocks.
	c, _ := newCache(t, 0, fullAssoc())
	c.Install(1, nil, core.WSC)
	c.Probe(protocol.OpWrite, g.Base(1)) // clean -> dirty: counted
	c.Probe(protocol.OpWrite, g.Base(1)) // dirty -> dirty: not counted
	if got := c.Counts.Get("dir.write-hit-clean"); got != 1 {
		t.Errorf("dir.write-hit-clean = %d, want 1", got)
	}
}

func TestBlocksSnapshot(t *testing.T) {
	c, _ := newCache(t, 0, fullAssoc())
	c.Install(1, nil, core.RSC)
	c.Install(9, nil, core.WSD)
	c.Install(4, nil, core.RSC)
	c.SetState(4, core.I) // invalid lines are not held
	got := c.AppendBlocks([]addr.Block{7})
	if !slices.Equal(got, []addr.Block{7, 1, 9}) {
		t.Errorf("AppendBlocks([7]) = %v, want [7 1 9]", got)
	}
}

func TestDataReturnsCopy(t *testing.T) {
	c, _ := newCache(t, 0, fullAssoc())
	c.Install(1, []uint64{5, 6, 7, 8}, core.RSC)
	d := c.Data(1)
	d[0] = 99
	if v, _ := c.ReadWord(g.Base(1)); v != 5 {
		t.Errorf("Data aliases cache: %d", v)
	}
	if c.Data(42) != nil {
		t.Error("Data of absent block should be nil")
	}
}

func TestInstallZeroesWithoutData(t *testing.T) {
	c, _ := newCache(t, 0, fullAssoc())
	c.Install(1, []uint64{5, 6, 7, 8}, core.WSD)
	c.Drop(1)
	c.Install(1, nil, core.WSD) // WriteNoFetch path
	if v, _ := c.ReadWord(g.Base(1)); v != 0 {
		t.Errorf("reused frame not zeroed: %d", v)
	}
}

func TestSetStateAndDrop(t *testing.T) {
	c, _ := newCache(t, 0, fullAssoc())
	c.Install(1, nil, core.R)
	c.SetState(1, core.WSD)
	if c.State(1) != core.WSD {
		t.Error("SetState ignored")
	}
	c.SetState(1, protocol.Invalid)
	if c.State(1) != protocol.Invalid {
		t.Error("SetState(Invalid) ignored")
	}
	c.Drop(99) // absent: no-op
}

// Property: with W ways, the W most recently touched blocks of a set
// are never the eviction victim.
func TestLRUVictimProperty(t *testing.T) {
	f := func(seq []uint8, waysRaw uint8) bool {
		ways := 2 + int(waysRaw%3) // 2..4
		mem := memory.New(g)
		c := New(0, g, core.Protocol{}, Config{Sets: 1, Ways: ways}, mem)
		touched := []addr.Block{}
		for _, raw := range seq {
			b := addr.Block(raw % 8)
			if c.State(b) == protocol.Invalid {
				if v := c.PrepareFill(b); v.Needed {
					c.Drop(v.Block)
				}
				c.Install(b, nil, core.RSC)
			} else {
				c.Probe(protocol.OpRead, g.Base(b))
			}
			// Track recency.
			for i, tb := range touched {
				if tb == b {
					touched = append(touched[:i], touched[i+1:]...)
					break
				}
			}
			touched = append(touched, b)
		}
		// The victim for a fresh block must not be among the last
		// min(ways-1, len) touched blocks.
		v := c.PrepareFill(99)
		if !v.Needed {
			return true
		}
		recent := touched
		if len(recent) > ways-1 {
			recent = recent[len(recent)-(ways-1):]
		}
		for _, b := range recent {
			if v.Block == b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnitModeBoundaries(t *testing.T) {
	gu := addr.MustGeometry(8, 2)
	mem := memory.New(gu)
	c := New(0, gu, core.Protocol{}, Config{Sets: 1, Ways: 2, UnitMode: true}, mem)
	c.Install(0, nil, core.WSC)
	// Dirty every unit: supply cost = whole block regardless of the
	// requested word.
	for w := 0; w < 8; w++ {
		c.WriteWord(addr.Addr(w), uint64(w))
	}
	if got := c.SupplyWords(0, 3); got != 8 {
		t.Errorf("all-dirty SupplyWords = %d, want 8", got)
	}
	if got := c.EvictWords(0); got != 8 {
		t.Errorf("all-dirty EvictWords = %d, want 8", got)
	}
	// A clean block moves only the requested unit.
	c.Install(1, nil, core.RSC)
	if got := c.SupplyWords(1, gu.Base(1)+5); got != 2 {
		t.Errorf("clean SupplyWords = %d, want 2", got)
	}
	// Absent block: conservative whole-block estimate.
	if got := c.SupplyWords(7, gu.Base(7)); got != 8 {
		t.Errorf("absent SupplyWords = %d, want 8", got)
	}
}

func TestSetUnitDirtyTransfersWithBlock(t *testing.T) {
	gu := addr.MustGeometry(4, 2)
	mem := memory.New(gu)
	c := New(0, gu, core.Protocol{}, Config{Sets: 1, Ways: 2, UnitMode: true}, mem)
	c.Install(0, []uint64{1, 2, 3, 4}, core.RSD)
	c.SetUnitDirty(0, []bool{false, true})
	if got := c.EvictWords(0); got != 2 {
		t.Errorf("EvictWords = %d, want 2 after dirty-unit transfer", got)
	}
	c.SetUnitDirty(99, []bool{true}) // absent: no-op
	c.SetUnitDirty(0, nil)           // nil: no-op
}

func TestReplacementPolicies(t *testing.T) {
	// FIFO evicts the oldest install even if recently touched; LRU
	// evicts the least recently touched.
	mkC := func(r Replacement) *Cache {
		mem := memory.New(g)
		return New(0, g, core.Protocol{}, Config{Sets: 1, Ways: 2, Replace: r}, mem)
	}
	lru := mkC(LRU)
	lru.Install(1, nil, core.RSC)
	lru.Install(2, nil, core.RSC)
	lru.Probe(protocol.OpRead, g.Base(1)) // touch 1: LRU victim is 2
	if v := lru.PrepareFill(3); v.Block != 2 {
		t.Errorf("LRU victim = %d, want 2", v.Block)
	}
	fifo := mkC(FIFO)
	fifo.Install(1, nil, core.RSC)
	fifo.Install(2, nil, core.RSC)
	fifo.Probe(protocol.OpRead, g.Base(1)) // touch does not matter
	if v := fifo.PrepareFill(3); v.Block != 1 {
		t.Errorf("FIFO victim = %d, want 1 (oldest install)", v.Block)
	}
	rnd := mkC(Random)
	rnd.Install(1, nil, core.RSC)
	rnd.Install(2, nil, core.RSC)
	v := rnd.PrepareFill(3)
	if !v.Needed || (v.Block != 1 && v.Block != 2) {
		t.Errorf("Random victim = %+v", v)
	}
	// Random is deterministic per cache.
	rnd2 := mkC(Random)
	rnd2.Install(1, nil, core.RSC)
	rnd2.Install(2, nil, core.RSC)
	if v2 := rnd2.PrepareFill(3); v2.Block != v.Block {
		t.Errorf("Random not deterministic: %d vs %d", v.Block, v2.Block)
	}
	if LRU.String() != "lru" || FIFO.String() != "fifo" || Random.String() != "random" {
		t.Error("replacement names wrong")
	}
}

// TestPrepareFillJournalsTagOnlyReuse: reusing a tag-only invalid frame
// drops that frame's tag, which the model checker's state key encodes,
// so the dropped block is journaled.
func TestPrepareFillJournalsTagOnlyReuse(t *testing.T) {
	c, _ := newCache(t, 0, Config{Sets: 1, Ways: 2})
	c.Restore([]LineSnapshot{{Block: 0, State: core.I, Data: []uint64{1, 2, 3, 4}}})
	var j addr.Journal
	c.SetJournal(&j)
	if v := c.PrepareFill(1); v.Needed {
		t.Fatalf("a tag-only frame wanted an eviction: %+v", v)
	}
	if _, _, ok := c.FrameView(0); ok {
		t.Fatal("PrepareFill kept the tag-only frame it was expected to reuse")
	}
	if got := j.Sorted(); !slices.Equal(got, []addr.Block{0}) {
		t.Errorf("journal = %v, want [0]", got)
	}
}

// TestPrepareFillTakesFirstFreeOrTagOnlyFrame pins the frame rule: the
// first frame in set order that is unused or tag-only is taken,
// whichever comes first. A fill into [b0 tag-only, unused] reuses b0's
// frame and drops its tag; a fill into [unused, b0 tag-only] takes the
// unused frame and keeps it. Rudolph's table row and the workload
// digests depend on this order.
func TestPrepareFillTakesFirstFreeOrTagOnlyFrame(t *testing.T) {
	tagOnly := LineSnapshot{Block: 0, State: core.I, Data: []uint64{1, 2, 3, 4}}

	c, _ := newCache(t, 0, Config{Sets: 1, Ways: 2})
	c.Restore([]LineSnapshot{tagOnly})
	if v := c.PrepareFill(1); v.Needed {
		t.Fatalf("[b0 tag-only, unused]: eviction %+v", v)
	}
	if _, _, ok := c.FrameView(0); ok {
		t.Error("[b0 tag-only, unused]: b0's tag kept, want its frame reused")
	}

	c, _ = newCache(t, 0, Config{Sets: 1, Ways: 2})
	c.Restore([]LineSnapshot{{Block: 2, State: core.RSC, Data: []uint64{5, 6, 7, 8}}, tagOnly})
	c.Drop(2)
	if got := frames(c); got[0].Block != ^addr.Block(0) || got[1].Block != 0 {
		t.Fatalf("frames = %+v, want [unused, b0]", got)
	}
	if v := c.PrepareFill(1); v.Needed {
		t.Fatalf("[unused, b0 tag-only]: eviction %+v", v)
	}
	if _, _, ok := c.FrameView(0); !ok {
		t.Error("[unused, b0 tag-only]: b0's tag dropped, want the unused frame taken")
	}
}

// frames lists a cache's frames in order, as the model checker's
// executor can observe them: tag, state and data of each tagged frame,
// nothing for an untagged one.
func frames(c *Cache) []LineSnapshot {
	var out []LineSnapshot
	for _, set := range c.sets {
		for i := range set {
			ln := &set[i]
			if !ln.hasTag {
				out = append(out, LineSnapshot{Block: ^addr.Block(0)})
				continue
			}
			out = append(out, LineSnapshot{Block: ln.tag, State: ln.state, Data: slices.Clone(ln.data)})
		}
	}
	return out
}

// TestRestoreBlockMatchesRestore: restoring the blocks a sequence of
// writes touched — every frame dropped first, the present ones then
// reinstalled in ascending block order — leaves the frames, in order,
// as a Restore of the whole snapshot does, even when the writes put a
// block into the frame an earlier block of the snapshot held. (Dropping
// and reinstalling block by block would put block 0 into frame 2.)
func TestRestoreBlockMatchesRestore(t *testing.T) {
	snap := []LineSnapshot{
		{Block: 0, State: core.I, Data: []uint64{1, 2, 3, 4}}, // tag-only
		{Block: 2, State: core.RSC, Data: []uint64{5, 6, 7, 8}},
	}
	want, _ := newCache(t, 0, Config{Sets: 1, Ways: 3})
	want.Restore(snap)

	c, _ := newCache(t, 0, Config{Sets: 1, Ways: 3})
	c.Restore(snap)
	c.PrepareFill(1) // reuses block 0's tag-only frame 0
	c.Install(1, []uint64{9, 9, 9, 9}, core.WSD)
	var j addr.Journal
	c.SetJournal(&j)
	touched := []addr.Block{0, 1}
	for _, b := range touched {
		c.RestoreBlock(b, false, core.I, nil)
	}
	c.RestoreBlock(snap[0].Block, true, snap[0].State, snap[0].Data)
	if got, w := frames(c), frames(want); !reflect.DeepEqual(got, w) {
		t.Fatalf("frames after RestoreBlock = %+v, want %+v", got, w)
	}
	if got := j.Sorted(); !slices.Equal(got, touched) {
		t.Errorf("journal = %v, want %v", got, touched)
	}
	if st := c.State(1); st != core.I {
		t.Errorf("block 1 still %v after being restored absent", st)
	}
}
