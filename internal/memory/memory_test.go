package memory

import (
	"testing"
	"testing/quick"

	"cachesync/internal/addr"
	"cachesync/internal/bus"
)

var g4 = addr.MustGeometry(4, 4)

func TestReadDefaultZero(t *testing.T) {
	m := New(g4)
	if v := m.ReadWord(123); v != 0 {
		t.Errorf("uninitialized word = %d, want 0", v)
	}
	blk := m.ReadBlock(9)
	if len(blk) != 4 {
		t.Fatalf("block len = %d, want 4", len(blk))
	}
	for i, v := range blk {
		if v != 0 {
			t.Errorf("blk[%d] = %d, want 0", i, v)
		}
	}
}

func TestWordReadWrite(t *testing.T) {
	m := New(g4)
	m.WriteWord(6, 42)
	if v := m.ReadWord(6); v != 42 {
		t.Errorf("ReadWord(6) = %d, want 42", v)
	}
	// Word 6 is offset 2 of block 1.
	blk := m.ReadBlock(1)
	if blk[2] != 42 {
		t.Errorf("block view = %v, want word 2 == 42", blk)
	}
}

func TestBlockReadWriteIsolation(t *testing.T) {
	m := New(g4)
	m.WriteBlock(2, []uint64{1, 2, 3, 4})
	got := m.ReadBlock(2)
	got[0] = 99 // must not alias memory
	if v := m.ReadWord(8); v != 1 {
		t.Errorf("ReadBlock aliases memory: word 8 = %d, want 1", v)
	}
}

func TestSourceBit(t *testing.T) {
	m := New(g4)
	if !m.IsSource(5) {
		t.Error("memory should be source by default")
	}
	m.SetSource(5, false)
	if m.IsSource(5) {
		t.Error("SetSource(false) ignored")
	}
	m.SetSource(5, true)
	if !m.IsSource(5) {
		t.Error("SetSource(true) ignored")
	}
}

func TestLockTag(t *testing.T) {
	m := New(g4)
	if tag := m.GetLockTag(3); tag.Locked {
		t.Error("default lock tag should be unlocked")
	}
	m.SetLockTag(3, LockTag{Locked: true, Owner: 2})
	if tag := m.GetLockTag(3); !tag.Locked || tag.Owner != 2 {
		t.Errorf("lock tag = %+v", tag)
	}
	m.SetLockTag(3, LockTag{})
	if tag := m.GetLockTag(3); tag.Locked {
		t.Error("clearing lock tag failed")
	}
}

func TestRespondSupplies(t *testing.T) {
	m := New(g4)
	m.WriteBlock(1, []uint64{5, 6, 7, 8})
	txn := &bus.Transaction{Cmd: bus.Read, Block: 1, Requester: 0}
	if !m.Respond(txn) {
		t.Fatal("memory should have supplied")
	}
	if txn.BlockData[1] != 6 {
		t.Errorf("supplied data = %v", txn.BlockData)
	}
	if m.Counts.Get("mem.supply") != 1 {
		t.Error("mem.supply not counted")
	}
}

func TestRespondInhibited(t *testing.T) {
	m := New(g4)
	txn := &bus.Transaction{Cmd: bus.Read, Block: 1, Requester: 0}
	txn.Lines.Inhibit = true
	if m.Respond(txn) {
		t.Error("memory supplied despite inhibit line")
	}
	if txn.BlockData != nil {
		t.Error("memory wrote data despite inhibit")
	}
}

func TestRespondWriteThrough(t *testing.T) {
	m := New(g4)
	txn := &bus.Transaction{Cmd: bus.WriteWord, Addr: 10, Block: g4.BlockOf(10), WordData: 77, Requester: 0}
	m.Respond(txn)
	if v := m.ReadWord(10); v != 77 {
		t.Errorf("write-through value = %d, want 77", v)
	}
}

func TestRespondUpdateWord(t *testing.T) {
	m := New(g4)
	// Dragon-style update: memory NOT updated.
	txn := &bus.Transaction{Cmd: bus.UpdateWord, Addr: 4, Block: 1, WordData: 9}
	m.Respond(txn)
	if v := m.ReadWord(4); v != 0 {
		t.Errorf("Dragon update reached memory: %d", v)
	}
	// Firefly-style update: memory IS updated.
	txn2 := &bus.Transaction{Cmd: bus.UpdateWord, Addr: 4, Block: 1, WordData: 9, MemUpdate: true}
	m.Respond(txn2)
	if v := m.ReadWord(4); v != 9 {
		t.Errorf("Firefly update missed memory: %d", v)
	}
}

func TestRespondFlush(t *testing.T) {
	m := New(g4)
	txn := &bus.Transaction{Cmd: bus.Flush, Block: 2, BlockData: []uint64{1, 1, 2, 3}}
	m.Respond(txn)
	if got := m.ReadBlock(2); got[3] != 3 {
		t.Errorf("flush not applied: %v", got)
	}
}

func TestRespondConcurrentFlush(t *testing.T) {
	// Feature 7: a snooper flushing during a cache-to-cache transfer
	// also updates memory.
	m := New(g4)
	txn := &bus.Transaction{Cmd: bus.Read, Block: 2, Requester: 1}
	txn.Lines.Inhibit = true
	txn.Flushed = true
	txn.BlockData = []uint64{4, 4, 4, 4}
	m.Respond(txn)
	if got := m.ReadBlock(2); got[0] != 4 {
		t.Errorf("concurrent flush not applied: %v", got)
	}
}

func TestRespondLockTagDeniesOthers(t *testing.T) {
	m := New(g4)
	m.SetLockTag(7, LockTag{Locked: true, Owner: 3})
	txn := &bus.Transaction{Cmd: bus.ReadX, Block: 7, Requester: 0}
	if m.Respond(txn) {
		t.Error("memory supplied a memory-locked block to a non-owner")
	}
	if !txn.Lines.Locked {
		t.Error("Locked line not asserted for memory lock tag")
	}
	if tag := m.GetLockTag(7); !tag.Waiter {
		t.Error("denied request did not set the waiter bit")
	}
}

func TestRespondLockTagOwnerReclaims(t *testing.T) {
	m := New(g4)
	m.SetLockTag(7, LockTag{Locked: true, Owner: 3})
	txn := &bus.Transaction{Cmd: bus.ReadX, Block: 7, Requester: 3, UnlockIntent: true}
	if !m.Respond(txn) {
		t.Error("owner could not refetch its memory-locked block")
	}
	if txn.Lines.Locked {
		t.Error("owner refetch saw Locked line")
	}
}

func TestRespondIOWrite(t *testing.T) {
	m := New(g4)
	txn := &bus.Transaction{Cmd: bus.IOWrite, Block: 1, Requester: -1, BlockData: []uint64{9, 8, 7, 6}}
	m.Respond(txn)
	if got := m.ReadBlock(1); got[0] != 9 || got[3] != 6 {
		t.Errorf("IOWrite not applied: %v", got)
	}
}

// Property: a WriteWord followed by ReadWord returns the written value
// and leaves every other word in the block untouched.
func TestWordWriteIsolationProperty(t *testing.T) {
	f := func(rawAddr uint32, v uint64) bool {
		m := New(g4)
		a := addr.Addr(rawAddr)
		m.WriteBlock(g4.BlockOf(a), []uint64{10, 20, 30, 40})
		m.WriteWord(a, v)
		if m.ReadWord(a) != v {
			return false
		}
		blk := m.ReadBlock(g4.BlockOf(a))
		for i, w := range blk {
			if i == g4.Offset(a) {
				continue
			}
			if w != uint64((i+1)*10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: lock tags round-trip and denial marks the waiter exactly
// once per block, independent of requester order.
func TestLockTagDenialProperty(t *testing.T) {
	f := func(owners []uint8, requesters []uint8) bool {
		m := New(g4)
		for i, o := range owners {
			b := addr.Block(i % 8)
			m.SetLockTag(b, LockTag{Locked: true, Owner: int(o % 4)})
			_ = b
		}
		for _, r := range requesters {
			b := addr.Block(int(r) % 8)
			tag := m.GetLockTag(b)
			txn := &bus.Transaction{Cmd: bus.ReadX, Block: b, Requester: int(r % 4)}
			m.Respond(txn)
			newTag := m.GetLockTag(b)
			if !tag.Locked {
				// Unlocked block: never denied.
				if txn.Lines.Locked {
					return false
				}
				continue
			}
			if tag.Owner == int(r%4) {
				// The owner is never denied by its own tag.
				if txn.Lines.Locked && (txn.UnlockIntent || txn.LockIntent) {
					return false
				}
			} else {
				if !txn.Lines.Locked || !newTag.Waiter {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestRespondJournalsWaiterBit: a denied fetch that sets a lock tag's
// Waiter bit records the block, because the model checker's state key
// encodes the bit; a second denial, which changes nothing, does not.
func TestRespondJournalsWaiterBit(t *testing.T) {
	m := New(g4)
	m.SetLockTag(7, LockTag{Locked: true, Owner: 3})
	var j addr.Journal
	m.SetJournal(&j)
	m.Respond(&bus.Transaction{Cmd: bus.Read, Block: 7, Requester: 0})
	if got := j.Sorted(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("journal after the first denial = %v, want [7]", got)
	}
	j.Reset()
	m.Respond(&bus.Transaction{Cmd: bus.Read, Block: 7, Requester: 1})
	if got := j.Sorted(); len(got) != 0 {
		t.Errorf("journal after a repeat denial = %v, want []", got)
	}
}
