package ptest

import (
	"fmt"
	"strings"
	"testing"

	"cachesync"
	"cachesync/internal/addr"
	"cachesync/internal/cache"
	"cachesync/internal/protocol"
	"cachesync/internal/protocol/all"
	"cachesync/internal/sim"
	"cachesync/internal/syncprim"
	"cachesync/internal/workload"
)

// The table-vs-method differential: every protocol runs the same
// workload twice, once on the compiled transition tables and once on
// the method path (cache.Config.NoTables, the oracle), and the two
// runs must be indistinguishable — byte-identical bus logs and
// rendered statistics, equal cycles, and identical final cache states,
// cache data, and memory images. The tables are generated from the methods by
// exhaustive enumeration (internal/protocol/table.go), so any
// divergence here is a compiler bug, not a protocol disagreement.

// diffWorkload builds one workload's Programs for a layout and lists
// the blocks they touch, which the final machine image covers.
type diffWorkload func(l workload.Layout, procs int) ([]sim.Program, []addr.Block)

// mixedWorkload is a random shared/private reference stream.
func mixedWorkload(seed int64) diffWorkload {
	return func(l workload.Layout, procs int) ([]sim.Program, []addr.Block) {
		w := workload.Mixed{Ops: 300, SharedBlocks: 6, PrivBlocks: 8,
			SharedFrac: 0.4, WriteFrac: 0.4, Seed: seed}
		var blocks []addr.Block
		for i := 0; i < w.SharedBlocks; i++ {
			blocks = append(blocks, l.SharedBlock(i))
		}
		for p := 0; p < procs; p++ {
			for i := 0; i < w.PrivBlocks; i++ {
				blocks = append(blocks, l.PrivateBlock(p, i))
			}
		}
		return w.Programs(l, procs), blocks
	}
}

// lockWorkload is simrun's "lock" workload at 12 iterations under the
// protocol's own lock scheme. Its one lock lives in block 0, and the
// critical section writes the rest of that block, or with one-word
// blocks a data block of the lock's own.
func lockWorkload(p protocol.Protocol) diffWorkload {
	return func(l workload.Layout, procs int) ([]sim.Program, []addr.Block) {
		w := workload.LockContention{Locks: 1, Iters: 12, HoldCycles: 20, ThinkCycles: 10,
			CSWrites: 2, Scheme: syncprim.SchemeFor(p), Seed: 1}
		return w.Programs(l, procs), []addr.Block{l.G.BlockOf(l.LockAddr(0)), l.SharedBlock(512)}
	}
}

// tableDiffRun executes a workload on one path, the compiled tables or
// (noTables) the method oracle, and returns everything observable: the
// bus event log, the rendered statistics, the finishing cycle, and the
// final image of the blocks the workload touches.
func tableDiffRun(t *testing.T, p protocol.Protocol, noTables bool, w diffWorkload) (logText, statsText string, cycles int64, image string) {
	t.Helper()
	cfg := sim.DefaultConfig(p)
	cfg.Procs = 4
	if p.Features().OneWordBlocks {
		cfg.Geometry = addr.MustGeometry(1, 1)
	}
	cfg.Cache = cache.Config{Sets: 1, Ways: 4, NoTables: noTables}
	s := sim.New(cfg)
	evlog := s.AttachLog(1 << 20)
	progs, blocks := w(workload.Layout{G: s.Geometry()}, cfg.Procs)
	if err := s.RunPrograms(progs); err != nil {
		t.Fatalf("%s (notables=%v): %v", p.Name(), noTables, err)
	}
	var lb strings.Builder
	if err := evlog.Dump(&lb); err != nil {
		t.Fatal(err)
	}
	return lb.String(), cachesync.RenderStats(s.Stats().Snapshot()), s.Clock(), machineImage(s, cfg.Procs, blocks)
}

// machineImage renders cache states, cache data, and memory contents
// of blocks into one comparable string.
func machineImage(s *sim.System, procs int, blocks []addr.Block) string {
	var b strings.Builder
	p := s.Protocol()
	for c := 0; c < procs; c++ {
		for _, blk := range blocks {
			st := s.Caches[c].State(blk)
			writeKV(&b, "cache", c, int(blk), p.StateName(st), nil)
			if st != protocol.Invalid {
				writeKV(&b, "data", c, int(blk), "", s.Caches[c].Data(blk))
			}
		}
	}
	for _, blk := range blocks {
		writeKV(&b, "mem", 0, int(blk), "", s.Mem.ReadBlock(blk))
	}
	return b.String()
}

// tableVsMethod runs w on both paths and requires them to agree.
func tableVsMethod(t *testing.T, p protocol.Protocol, what string, w diffWorkload) {
	t.Helper()
	mLog, mStats, mCycles, mImg := tableDiffRun(t, p, true, w) // method oracle
	tLog, tStats, tCycles, tImg := tableDiffRun(t, p, false, w)
	if mLog != tLog {
		t.Errorf("%s: bus logs diverge between table and method paths", what)
	}
	if mStats != tStats {
		t.Errorf("%s: statistics diverge:\n--- method ---\n%s\n--- table ---\n%s", what, mStats, tStats)
	}
	if mCycles != tCycles {
		t.Errorf("%s: cycles diverge: method %d, table %d", what, mCycles, tCycles)
	}
	if mImg != tImg {
		t.Errorf("%s: final machine images diverge:\n--- method ---\n%s\n--- table ---\n%s", what, mImg, tImg)
	}
}

func writeKV(b *strings.Builder, kind string, c, blk int, s string, words []uint64) {
	b.WriteString(kind)
	b.WriteByte(' ')
	b.WriteByte(byte('0' + c))
	b.WriteByte(':')
	writeInt(b, blk)
	if s != "" {
		b.WriteByte(' ')
		b.WriteString(s)
	}
	for _, w := range words {
		b.WriteByte(' ')
		writeInt(b, int(w))
	}
	b.WriteByte('\n')
}

func writeInt(b *strings.Builder, v int) {
	if v >= 10 {
		writeInt(b, v/10)
	}
	b.WriteByte(byte('0' + v%10))
}

// TestTableVsMethodDifferential runs the differential for every
// registered protocol over several seeds of the mixed workload.
func TestTableVsMethodDifferential(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, name := range all.Everything {
		name := name
		t.Run(name, func(t *testing.T) {
			p := protocol.MustNew(name)
			for _, seed := range seeds {
				tableVsMethod(t, p, fmt.Sprintf("mixed seed %d", seed), mixedWorkload(seed))
			}
		})
	}
}

// TestTableVsMethodLockWorkload repeats the differential over the
// lock-contention workload, covering the hardware-lock and
// syncprim-lowered lock transitions the mixed workload never issues.
func TestTableVsMethodLockWorkload(t *testing.T) {
	for _, name := range all.Everything {
		name := name
		t.Run(name, func(t *testing.T) {
			p := protocol.MustNew(name)
			tableVsMethod(t, p, "lock", lockWorkload(p))
		})
	}
}
