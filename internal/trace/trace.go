// Package trace defines a plain-text reference-trace format so
// workloads can be captured, stored, and replayed against any
// protocol — the moral equivalent of the address traces the
// contemporaneous evaluations (Archibald-Baer, Smith) were driven by.
//
// Format: one event per line,
//
//	<proc> R <addr>          read
//	<proc> E <addr>          read with the read-for-write instruction
//	<proc> W <addr> <val>    write
//	<proc> L <addr>          lock-read
//	<proc> U <addr> <val>    unlock-write
//	<proc> A <addr>          atomic increment (RMW)
//	<proc> C <cycles>        compute
//
// Any event may carry an optional trailing routing-class token —
// "sync", "instr", or "data" — for replay on tiered machines; events
// without one are unclassified, and classic traces parse unchanged.
//
// '#' starts a comment; blank lines are ignored.
package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"cachesync/internal/addr"
	"cachesync/internal/interconnect"
	"cachesync/internal/sim"
	"cachesync/internal/syncprim"
)

// Kind is a trace event type.
type Kind byte

// Event kinds.
const (
	Read    Kind = 'R'
	ReadEx  Kind = 'E'
	Write   Kind = 'W'
	Lock    Kind = 'L'
	Unlock  Kind = 'U'
	Atomic  Kind = 'A'
	Compute Kind = 'C'
)

// Event is one trace record.
type Event struct {
	Proc   int
	Kind   Kind
	Addr   addr.Addr
	Value  uint64
	Cycles int64
	Class  interconnect.Class // routing class; zero = unclassified
}

// String renders the event in trace format.
func (e Event) String() string {
	var buf [64]byte
	return string(e.appendText(buf[:0]))
}

// appendText appends the event in trace format to b: the one
// formatter behind String and Encode. The kind is written as a rune,
// so a Kind byte of 0x80 or above takes two UTF-8 bytes, as %c gives.
func (e Event) appendText(b []byte) []byte {
	b = strconv.AppendInt(b, int64(e.Proc), 10)
	b = append(b, ' ')
	b = utf8.AppendRune(b, rune(e.Kind))
	b = append(b, ' ')
	if e.Kind == Compute {
		b = strconv.AppendInt(b, e.Cycles, 10)
	} else {
		b = strconv.AppendUint(b, uint64(e.Addr), 10)
	}
	if e.Kind == Write || e.Kind == Unlock {
		b = append(b, ' ')
		b = strconv.AppendUint(b, e.Value, 10)
	}
	if e.Class != interconnect.Unclassified {
		b = append(b, ' ')
		b = append(b, e.Class.String()...)
	}
	return b
}

// Trace is an ordered sequence of per-processor events. Events of
// different processors are independent streams; ordering between
// processors is decided by the simulator.
type Trace struct {
	Events []Event
}

// Procs returns the number of processors the trace references.
func (t *Trace) Procs() int {
	n := 0
	for _, e := range t.Events {
		if e.Proc+1 > n {
			n = e.Proc + 1
		}
	}
	return n
}

// Encode writes the trace in text form.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.Events {
		line := append(e.appendText(bw.AvailableBuffer()), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode parses a text trace. Fields are split at white space, and
// each number is read as fmt's %d reads it: the processor and cycle
// fields take an optional sign, every number needs at least one
// digit, the longest digit run is read and anything after it in the
// field is ignored ("3x" reads as 3), and a value out of range is
// rejected.
//
// Events collect in fixed-size chunks and are copied once into an
// exact-length Events slice, so a decode allocates about twice the
// events' size, not the up to fourfold an appended slice's growth
// costs.
func Decode(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	var (
		raw    []byte
		fields [][]byte
		lineNo int
		full   [][]Event // filled chunks, in order
		cur    []Event   // the chunk being filled
	)
	// bad builds a line's error; only it turns the line into a string.
	bad := func(what string) error {
		return fmt.Errorf("trace: line %d: %s: %q", lineNo, what, bytes.TrimSpace(raw))
	}
	for sc.Scan() {
		lineNo++
		raw = sc.Bytes()
		fields = splitFields(fields[:0], raw)
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		var e Event
		if len(fields) < 3 {
			return nil, bad("too few fields")
		}
		proc, ok := scanInt(fields[0])
		if !ok || proc < 0 || proc > math.MaxInt {
			return nil, bad("bad processor")
		}
		e.Proc = int(proc)
		kind := fields[1]
		if len(kind) != 1 {
			return nil, fmt.Errorf("trace: line %d: bad kind %q", lineNo, kind)
		}
		e.Kind = Kind(kind[0])
		used := 3
		switch e.Kind {
		case Read, ReadEx, Lock, Atomic:
			a, ok := scanUint(fields[2])
			if !ok {
				return nil, bad("bad address")
			}
			e.Addr = addr.Addr(a)
		case Write, Unlock:
			if len(fields) < 4 {
				return nil, bad("write needs a value")
			}
			a, ok := scanUint(fields[2])
			if !ok {
				return nil, bad("bad address")
			}
			e.Addr = addr.Addr(a)
			if e.Value, ok = scanUint(fields[3]); !ok {
				return nil, bad("bad value")
			}
			used = 4
		case Compute:
			if e.Cycles, ok = scanInt(fields[2]); !ok {
				return nil, bad("bad cycle count")
			}
		default:
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", lineNo, kind)
		}
		if len(fields) > used {
			if len(fields) > used+1 {
				return nil, bad("too many fields")
			}
			c, err := interconnect.ParseClass(string(fields[used]))
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
			}
			e.Class = c
		}
		if len(cur) == cap(cur) {
			if cur != nil {
				full = append(full, cur)
			}
			cur = make([]Event, 0, decodeChunk)
		}
		cur = append(cur, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n := len(full)*decodeChunk + len(cur); n > 0 {
		t.Events = make([]Event, 0, n)
		for _, c := range full {
			t.Events = append(t.Events, c...)
		}
		t.Events = append(t.Events, cur...)
	}
	return t, nil
}

// decodeChunk is the number of events Decode collects per chunk.
const decodeChunk = 4096

// splitFields appends the white-space-separated fields of line to
// dst, as bytes.Fields splits them. An ASCII line is split in place;
// a line with any other byte falls back to bytes.Fields, so Unicode
// spaces still separate fields. Reusing dst is what it is for:
// bytes.Fields allocates a slice per line, and with it Decode took
// 1.5 times as long and the bench's engine workload read a higher
// lat_p90_ms and peak_rss_mb (EXPERIMENTS.md, "Trace replay at engine
// speed"). TestDecodeAllocsPerLine holds Decode to no allocation per
// line.
func splitFields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			return append(dst[:0], bytes.Fields(line)...)
		case c == ' ' || ('\t' <= c && c <= '\r'):
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// scanUint reads the unsigned decimal number at the start of f: at
// least one digit, the longest digit run, no sign. It reports false
// for a missing digit or a value past 64 bits.
func scanUint(f []byte) (uint64, bool) {
	var n uint64
	i := 0
	for ; i < len(f) && '0' <= f[i] && f[i] <= '9'; i++ {
		d := uint64(f[i] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, i > 0
}

// scanInt is scanUint with an optional leading sign, for a signed
// 64-bit value.
func scanInt(f []byte) (int64, bool) {
	neg := len(f) > 0 && f[0] == '-'
	if len(f) > 0 && (f[0] == '+' || f[0] == '-') {
		f = f[1:]
	}
	u, ok := scanUint(f)
	switch {
	case !ok || u > 1<<63 || u == 1<<63 && !neg:
		return 0, false
	case neg:
		return -int64(u), true
	}
	return int64(u), true
}

// Programs converts the trace into one Program per processor, each a
// flat replay of that processor's events in order. Lock events follow
// the run's locking scheme, so lock traces replay on every protocol:
// under CacheLock, L and U are the hardware lock-read and unlock-write
// of Section E.3; under any other scheme they are that scheme's
// syncprim acquire and release. There the lock word itself is the
// lock, so U releases it with a Sync-class write of zero rather than
// of the event's value — storing a nonzero value would leave the lock
// held and every waiter spinning.
func (t *Trace) Programs(procs int, scheme syncprim.Scheme) []sim.Program {
	// Count each processor's events, then carve every stream from one
	// slice, so that no append below grows a stream.
	counts := make([]int, procs)
	n := 0
	for _, e := range t.Events {
		if e.Proc < procs {
			counts[e.Proc]++
			n++
		}
	}
	all := make([]Event, n)
	rs := make([]replay, procs)
	for i, k := range counts {
		rs[i].evs, all = all[:0:k], all[k:]
	}
	for _, e := range t.Events {
		if e.Proc < procs {
			rs[e.Proc].evs = append(rs[e.Proc].evs, e)
		}
	}
	progs := make([]sim.Program, procs)
	for i := range rs {
		rs[i].scheme = scheme
		progs[i] = &rs[i]
	}
	return progs
}

// Workloads runs Programs under the CacheLock scheme as blocking
// workload functions, one per processor, for System.Run (see
// sim.Workloads). Lock events replay as the hardware lock, so on a
// protocol without it a trace with lock events fails the run with the
// engine's hardware-lock error; Programs with the run's scheme replays
// them anywhere.
func (t *Trace) Workloads(procs int) []func(*sim.Proc) {
	return sim.Workloads(t.Programs(procs, syncprim.CacheLock))
}

// replay is one processor's event stream as a Program.
type replay struct {
	evs    []Event
	scheme syncprim.Scheme
	lk     syncprim.LockAcquire
	sync   Kind // Lock or Unlock while a syncprim acquire or release is in flight
}

func incr(v uint64) uint64 { return v + 1 }

func (r *replay) Next(p *sim.Proc, last sim.Result) (sim.Op, bool) {
	switch r.sync {
	case Lock:
		if op, done := r.lk.Step(p, last); !done {
			return op, true
		}
	case Unlock:
		syncprim.FinishRelease(p)
	}
	r.sync = 0
	for len(r.evs) > 0 {
		e := r.evs[0]
		r.evs = r.evs[1:]
		switch e.Kind {
		case Read:
			return sim.ReadOp(e.Addr).WithClass(e.Class), true
		case ReadEx:
			return sim.ReadExOp(e.Addr).WithClass(e.Class), true
		case Write:
			return sim.WriteOp(e.Addr, e.Value).WithClass(e.Class), true
		case Lock:
			if r.scheme == syncprim.CacheLock {
				return sim.LockReadOp(e.Addr), true
			}
			r.sync = Lock
			return r.lk.Start(r.scheme, e.Addr), true
		case Unlock:
			if r.scheme == syncprim.CacheLock {
				return sim.UnlockWriteOp(e.Addr, e.Value), true
			}
			r.sync = Unlock
			return syncprim.StartRelease(r.scheme, e.Addr), true
		case Atomic:
			return sim.RMWOp(e.Addr, incr), true
		case Compute:
			if e.Cycles > 0 { // as Proc.Compute: no op for no work
				return sim.ComputeOp(e.Cycles), true
			}
		}
	}
	return sim.Op{}, false
}
