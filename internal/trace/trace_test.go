package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"cachesync/internal/addr"
	"cachesync/internal/core"
	"cachesync/internal/interconnect"
	"cachesync/internal/sim"
	"cachesync/internal/syncprim"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := &Trace{Events: []Event{
		{Proc: 0, Kind: Read, Addr: 5},
		{Proc: 1, Kind: Write, Addr: 9, Value: 42},
		{Proc: 0, Kind: Lock, Addr: 0},
		{Proc: 0, Kind: Unlock, Addr: 0, Value: 7},
		{Proc: 2, Kind: Compute, Cycles: 100},
		{Proc: 1, Kind: Atomic, Addr: 16},
		{Proc: 1, Kind: ReadEx, Addr: 20},
	}}
	var buf bytes.Buffer
	if err := in.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Events) != len(in.Events) {
		t.Fatalf("round trip lost events: %d vs %d", len(out.Events), len(in.Events))
	}
	for i := range in.Events {
		if in.Events[i] != out.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, in.Events[i], out.Events[i])
		}
	}
	if out.Procs() != 3 {
		t.Errorf("Procs() = %d, want 3", out.Procs())
	}
}

func TestDecodeCommentsAndBlanks(t *testing.T) {
	src := "# a trace\n\n0 R 4\n   \n# done\n1 W 8 3\n"
	tr, err := Decode(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2 {
		t.Fatalf("got %d events", len(tr.Events))
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []string{
		"0 R",     // too few fields
		"x R 4",   // bad proc
		"-1 R 4",  // negative proc
		"0 Z 4",   // unknown kind
		"0 W 4",   // write missing value
		"0 W x 1", // bad address
		"0 W 4 x", // bad value
		"0 C x",   // bad cycles
		"0 RW 4",  // kind too long
	}
	for _, src := range bad {
		if _, err := Decode(strings.NewReader(src)); err == nil {
			t.Errorf("Decode(%q): want error", src)
		}
	}
}

// fmtEvent is the fmt rendering String had before its append-based
// formatter, kept as that formatter's oracle.
func fmtEvent(e Event) string {
	var s string
	switch e.Kind {
	case Write, Unlock:
		s = fmt.Sprintf("%d %c %d %d", e.Proc, e.Kind, e.Addr, e.Value)
	case Compute:
		s = fmt.Sprintf("%d C %d", e.Proc, e.Cycles)
	default:
		s = fmt.Sprintf("%d %c %d", e.Proc, e.Kind, e.Addr)
	}
	if e.Class != interconnect.Unclassified {
		s += " " + e.Class.String()
	}
	return s
}

// TestEventTextMatchesFmt: String and Encode write exactly what fmt
// wrote, for every kind and class, extreme field values, and all 256
// Kind bytes (%c writes a byte of 0x80 or above as two UTF-8 bytes).
func TestEventTextMatchesFmt(t *testing.T) {
	evs := []Event{
		{Proc: -1, Kind: Write, Addr: math.MaxUint64, Value: math.MaxUint64},
		{Proc: math.MaxInt, Kind: Compute, Cycles: math.MinInt64},
		{Proc: math.MinInt, Kind: Unlock, Value: 1, Class: interconnect.Sync},
		{Proc: 3, Kind: Compute, Cycles: math.MaxInt64, Addr: 9, Value: 9},
	}
	for k := 0; k < 256; k++ {
		for c := interconnect.Class(0); c <= interconnect.Data+1; c++ {
			evs = append(evs, Event{Proc: k % 9, Kind: Kind(k), Addr: addr.Addr(k) * 7919,
				Value: uint64(k) << 40, Cycles: int64(k) - 128, Class: c})
		}
	}
	var want bytes.Buffer
	for _, e := range evs {
		if got, w := e.String(), fmtEvent(e); got != w {
			t.Fatalf("%+v: String() = %q, fmt gives %q", e, got, w)
		}
		fmt.Fprintln(&want, fmtEvent(e))
	}
	var got bytes.Buffer
	if err := (&Trace{Events: evs}).Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Encode wrote %d bytes that differ from fmt's %d", got.Len(), want.Len())
	}
}

// TestDecodeAllocsPerLine: apart from the event chunks, Decode's
// allocations do not grow with the number of lines. The field splitter
// and the number scanner allocate nothing per line; bytes.Fields in
// the splitter's place costs one allocation per line, and in the
// engine benchmark a higher lat_p90_ms. The returned Events slice is
// exact (cap == len), and the whole decode allocates under 2.5× its
// bytes: an appended slice's growth cost about 4.7×.
func TestDecodeAllocsPerLine(t *testing.T) {
	const shortLines, longLines = 1_000, 16_000
	text := func(lines int) []byte {
		var b []byte
		for i := 0; i < lines; i++ {
			e := Event{Proc: i % 8, Kind: Read, Addr: addr.Addr(i) * 4}
			if i%3 == 0 {
				e.Kind, e.Value = Write, uint64(i)
			}
			b = append(append(b, e.String()...), '\n')
		}
		return b
	}
	allocs := func(lines int) float64 {
		b := text(lines)
		return testing.AllocsPerRun(5, func() {
			if _, err := Decode(bytes.NewReader(b)); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(shortLines), allocs(longLines)
	perLine := (long - short) / (longLines - shortLines)
	t.Logf("allocs: %d lines %.0f, %d lines %.0f, %.5f per extra line", shortLines, short, longLines, long, perLine)
	if perLine > 0.01 {
		t.Fatalf("Decode made %.5f allocations per extra line (limit 0.01): the per-line path is allocating", perLine)
	}

	b := text(longLines)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := Decode(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != longLines || cap(tr.Events) != len(tr.Events) {
		t.Fatalf("Events has len %d cap %d, want both %d", len(tr.Events), cap(tr.Events), longLines)
	}
	events := float64(unsafe.Sizeof(Event{})) * float64(len(tr.Events))
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / events
	t.Logf("bytes: %d lines allocated %.2f× the %.0f bytes of their events", longLines, ratio, events)
	if ratio >= 2.5 {
		t.Fatalf("Decode allocated %.2f× the bytes of the events it returned (limit 2.5×)", ratio)
	}
}

// TestProgramsAllocsFlat: Programs partitions the events into
// per-processor streams with a fixed number of allocations, however
// many events the trace holds.
func TestProgramsAllocsFlat(t *testing.T) {
	allocs := func(events int) float64 {
		tr := &Trace{}
		for i := 0; i < events; i++ {
			tr.Events = append(tr.Events, Event{Proc: i % 8, Kind: Read, Addr: addr.Addr(i) * 4})
		}
		return testing.AllocsPerRun(5, func() { tr.Programs(8, syncprim.CacheLock) })
	}
	if short, long := allocs(1_000), allocs(16_000); short != long {
		t.Fatalf("Programs made %.0f allocations for 1,000 events and %.0f for 16,000", short, long)
	}
}

// Property: any generated trace round-trips through text exactly.
func TestRoundTripProperty(t *testing.T) {
	kinds := []Kind{Read, ReadEx, Write, Lock, Unlock, Atomic, Compute}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := &Trace{}
		for i := 0; i < int(n%50); i++ {
			e := Event{
				Proc: rng.Intn(8),
				Kind: kinds[rng.Intn(len(kinds))],
			}
			switch e.Kind {
			case Compute:
				e.Cycles = int64(rng.Intn(1000))
			case Write, Unlock:
				e.Addr = addr.Addr(rng.Intn(4096))
				e.Value = rng.Uint64()
			default:
				e.Addr = addr.Addr(rng.Intn(4096))
			}
			e.Class = interconnect.Class(rng.Intn(4))
			in.Events = append(in.Events, e)
		}
		var buf bytes.Buffer
		if in.Encode(&buf) != nil {
			return false
		}
		out, err := Decode(&buf)
		if err != nil {
			return false
		}
		if len(out.Events) != len(in.Events) {
			return false
		}
		for i := range in.Events {
			if in.Events[i] != out.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWorkloadsReplay(t *testing.T) {
	tr := &Trace{Events: []Event{
		{Proc: 0, Kind: Write, Addr: 4, Value: 11},
		{Proc: 0, Kind: Lock, Addr: 0},
		{Proc: 0, Kind: Unlock, Addr: 0, Value: 1},
		{Proc: 1, Kind: Compute, Cycles: 200},
		{Proc: 1, Kind: Read, Addr: 4},
		{Proc: 1, Kind: Atomic, Addr: 8},
	}}
	s := sim.New(sim.DefaultConfig(core.Protocol{}))
	if err := s.Run(tr.Workloads(4)); err != nil {
		t.Fatal(err)
	}
	// The write must have landed and the RMW incremented word 8.
	if v := s.Caches[0].Data(1); v == nil || v[0] != 11 {
		t.Errorf("replayed write missing: %v", v)
	}
	found := false
	for _, c := range s.Caches {
		if v, ok := c.ReadWord(8); ok && v == 1 {
			found = true
		}
	}
	if !found && s.Mem.ReadWord(8) != 1 {
		t.Error("replayed atomic increment missing")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	in := &Trace{Events: []Event{
		{Proc: 0, Kind: Read, Addr: 5},
		{Proc: 3, Kind: Write, Addr: 1 << 40, Value: 1<<63 + 7},
		{Proc: 1, Kind: Lock, Addr: 0},
		{Proc: 1, Kind: Unlock, Addr: 0, Value: 2},
		{Proc: 2, Kind: Compute, Cycles: 123456},
		{Proc: 0, Kind: Atomic, Addr: 99},
		{Proc: 0, Kind: ReadEx, Addr: 12},
	}}
	var buf bytes.Buffer
	if err := in.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Events) != len(in.Events) {
		t.Fatalf("lost events: %d vs %d", len(out.Events), len(in.Events))
	}
	for i := range in.Events {
		if in.Events[i] != out.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, in.Events[i], out.Events[i])
		}
	}
}

func TestBinaryErrors(t *testing.T) {
	if _, err := DecodeBinary(strings.NewReader("XXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodeBinary(strings.NewReader("CS")); err == nil {
		t.Error("short magic accepted")
	}
	if _, err := DecodeBinary(strings.NewReader("CSTR\x09")); err == nil {
		t.Error("bad version accepted")
	}
	// Truncated event.
	var buf bytes.Buffer
	tr := &Trace{Events: []Event{{Proc: 0, Kind: Write, Addr: 4, Value: 1}}}
	if err := tr.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := DecodeBinary(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Error("truncated event accepted")
	}
	// Unknown kind.
	bad := &Trace{Events: []Event{{Proc: 0, Kind: Kind('Z'), Addr: 1}}}
	if err := bad.EncodeBinary(&buf); err == nil {
		t.Error("unknown kind encoded")
	}
}

// Property: the binary codec round-trips arbitrary generated traces
// and is never larger than ~2x the event count in words.
func TestBinaryRoundTripProperty(t *testing.T) {
	kinds := []Kind{Read, ReadEx, Write, Lock, Unlock, Atomic, Compute}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := &Trace{}
		for i := 0; i < int(n%60); i++ {
			e := Event{Proc: rng.Intn(16), Kind: kinds[rng.Intn(len(kinds))]}
			switch e.Kind {
			case Compute:
				e.Cycles = int64(rng.Intn(1 << 20))
			case Write, Unlock:
				e.Addr = addr.Addr(rng.Uint64() >> 16)
				e.Value = rng.Uint64()
			default:
				e.Addr = addr.Addr(rng.Uint64() >> 16)
			}
			e.Class = interconnect.Class(rng.Intn(4))
			in.Events = append(in.Events, e)
		}
		var buf bytes.Buffer
		if in.EncodeBinary(&buf) != nil {
			return false
		}
		out, err := DecodeBinary(&buf)
		if err != nil || len(out.Events) != len(in.Events) {
			return false
		}
		for i := range in.Events {
			if in.Events[i] != out.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
