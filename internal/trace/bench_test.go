package trace

import (
	"bytes"
	"math/rand"
	"testing"

	"cachesync"
	"cachesync/internal/addr"
	"cachesync/internal/syncprim"
)

// mixedBenchTrace is the text trace bench's engine workload replays:
// `tracegen -pattern mixed` on 8 processors × 2000 events (seed 1).
func mixedBenchTrace(b *testing.B) []byte {
	g := addr.MustGeometry(4, 4)
	rng := rand.New(rand.NewSource(1))
	t := &Trace{}
	for p := 0; p < 8; p++ {
		for k := 0; k < 2000; k++ {
			var a addr.Addr
			if rng.Float64() < 0.3 {
				a = g.Base(addr.Block(64 + rng.Intn(8)))
			} else {
				a = g.Base(addr.Block(64 + 4096 + p*4096 + rng.Intn(16)))
			}
			a += addr.Addr(rng.Intn(g.BlockWords))
			if rng.Float64() < 0.35 {
				t.Events = append(t.Events, Event{Proc: p, Kind: Write, Addr: a, Value: uint64(k)})
			} else {
				t.Events = append(t.Events, Event{Proc: p, Kind: Read, Addr: a})
			}
		}
	}
	var buf bytes.Buffer
	if err := t.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkDecode times Decode on the 16,000-event mixed trace.
func BenchmarkDecode(b *testing.B) {
	text := mixedBenchTrace(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode times Encode on the same trace.
func BenchmarkEncode(b *testing.B) {
	tr, err := Decode(bytes.NewReader(mixedBenchTrace(b)))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tr.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay replays the decoded trace on a fresh bitar machine
// with 8 processors, through the blocking adapter (Machine.Run) and
// as Programs (Machine.RunPrograms); the difference is the adapter's
// cost. Machine set-up is outside the timer.
func BenchmarkReplay(b *testing.B) {
	tr, err := Decode(bytes.NewReader(mixedBenchTrace(b)))
	if err != nil {
		b.Fatal(err)
	}
	for _, blocking := range []bool{true, false} {
		name := "programs"
		if blocking {
			name = "blocking"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := cachesync.New(cachesync.Config{Protocol: "bitar", Procs: 8})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if blocking {
					err = m.Run(tr.Workloads(8))
				} else {
					err = m.RunPrograms(tr.Programs(8, syncprim.CacheLock))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
