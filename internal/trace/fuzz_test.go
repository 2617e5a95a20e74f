package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"cachesync/internal/interconnect"
)

// FuzzTraceBinaryRoundTrip drives DecodeBinary with arbitrary bytes:
// decoding must never panic, and for every stream that decodes, the
// decode∘encode∘decode composition must be the identity on events.
// (Byte-level identity is deliberately NOT required: uvarints are
// non-canonical, so a valid stream can carry over-long varints that
// re-encode shorter.)
func FuzzTraceBinaryRoundTrip(f *testing.F) {
	// A representative valid trace as the primary seed.
	seedTrace := &Trace{Events: []Event{
		{Proc: 0, Kind: Read, Addr: 5},
		{Proc: 1, Kind: Write, Addr: 5, Value: 42},
		{Proc: 2, Kind: Lock, Addr: 8},
		{Proc: 2, Kind: Unlock, Addr: 8, Value: 7},
		{Proc: 3, Kind: ReadEx, Addr: 12},
		{Proc: 0, Kind: Atomic, Addr: 16},
		{Proc: 1, Kind: Compute, Cycles: 100},
	}}
	var buf bytes.Buffer
	if err := seedTrace.EncodeBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})                                                                                      // empty
	f.Add([]byte("CSTR"))                                                                                // magic, no version
	f.Add([]byte("CSTR\x01"))                                                                            // valid empty trace
	f.Add([]byte("CSTR\x02R\x00\x05"))                                                                   // wrong version
	f.Add([]byte("XXXX\x01"))                                                                            // bad magic
	f.Add([]byte("CSTR\x01R\x00"))                                                                       // truncated event
	f.Add([]byte("CSTR\x01Z\x00\x05"))                                                                   // unknown kind
	f.Add([]byte("CSTR\x01W\x01\x05\x2a"))                                                               // single write
	f.Add(append([]byte("CSTR\x01R"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x05)) // huge proc uvarint

	// Version 2: per-event routing-class byte.
	classTrace := &Trace{Events: []Event{
		{Proc: 0, Kind: Read, Addr: 5, Class: interconnect.Instr},
		{Proc: 1, Kind: Write, Addr: 9, Value: 3, Class: interconnect.Data},
		{Proc: 2, Kind: Lock, Addr: 8, Class: interconnect.Sync},
		{Proc: 3, Kind: Compute, Cycles: 40},
	}}
	var cbuf bytes.Buffer
	if err := classTrace.EncodeBinary(&cbuf); err != nil {
		f.Fatal(err)
	}
	f.Add(cbuf.Bytes())
	f.Add([]byte("CSTR\x02"))                                  // valid empty v2 trace
	f.Add([]byte("CSTR\x02R\x00\x05"))                         // v2 event missing its class byte
	f.Add([]byte("CSTR\x02R\x00\x05\x07"))                     // class byte out of range
	f.Add([]byte("CSTR\x02R\x00\x05\x02\x57\x01\x09\x03\x03")) // instr read + data write

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeBinary(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		for _, e := range tr.Events {
			if e.Proc < 0 || e.Cycles < 0 {
				t.Fatalf("decode accepted out-of-range event %+v", e)
			}
		}
		var enc bytes.Buffer
		if err := tr.EncodeBinary(&enc); err != nil {
			t.Fatalf("re-encoding a decoded trace failed: %v", err)
		}
		tr2, err := DecodeBinary(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded trace failed: %v", err)
		}
		if len(tr.Events) != len(tr2.Events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(tr.Events), len(tr2.Events))
		}
		for i := range tr.Events {
			if tr.Events[i] != tr2.Events[i] {
				t.Fatalf("round trip changed event %d: %+v -> %+v", i, tr.Events[i], tr2.Events[i])
			}
		}
	})
}

// FuzzTraceTextDecode drives the text parser: arbitrary text must
// either decode or error, never panic; Decode must give exactly what
// decodeReference gives, the same events or the same error text; and
// whatever decodes must survive the text round trip.
func FuzzTraceTextDecode(f *testing.F) {
	f.Add("0 R 5\n1 W 5 42\n2 L 8\n2 U 8 7\n0 A 16\n1 C 100\n")
	f.Add("# comment\n\n0 E 3\n")
	f.Add("not a trace")
	f.Add("0 W 5")    // write without value
	f.Add("-1 R 5\n") // negative proc
	f.Add("0 R 5 instr\n1 W 5 42 data\n2 L 8 sync\n")
	f.Add("0 R 5 bogus\n")        // unknown class token
	f.Add("0 W 5 42 data junk\n") // trailing junk after the class
	// Each leniency of fmt's %d that Decode keeps.
	f.Add("3x R 12abc\n")                           // text after the digits is ignored
	f.Add("+1 C -5\n")                              // signed processor and cycle count
	f.Add("-0 R 1\n")                               // minus zero is processor 0
	f.Add("0 R +1\n")                               // an address takes no sign
	f.Add("0 R 00000000000000000000000000012345\n") // leading zeros past 20 digits
	f.Add("0 R 18446744073709551615\n")             // the largest 20-digit address
	f.Add("0 R 18446744073709551616\n")             // an address of 2^64 overflows
	f.Add("9223372036854775808 R 1\n")              // a processor past int64 overflows
	f.Add("0 C -9223372036854775808\n")             // the smallest cycle count
	f.Add("0\u00a0R\u20035\u3000data\n")            // Unicode spaces separate fields
	f.Add("\u2028# a comment after a Unicode space\n0 R \xff5\n")
	f.Add("   # a comment after leading spaces\n\t0 R 1\r\n")
	f.Add("0 R 1\n" + strings.Repeat("x", 70000) + "\n") // a line over 64 KiB
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := Decode(strings.NewReader(text))
		ref, refErr := decodeReference(strings.NewReader(text))
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("Decode error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(tr, ref) {
			t.Fatalf("Decode gave %+v, reference %+v", tr.Events, ref.Events)
		}
		var enc bytes.Buffer
		if err := tr.Encode(&enc); err != nil {
			t.Fatalf("re-encoding a decoded trace failed: %v", err)
		}
		tr2, err := Decode(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded trace failed: %v", err)
		}
		if len(tr.Events) != len(tr2.Events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(tr.Events), len(tr2.Events))
		}
	})
}

// decodeReference is the fmt-based text decoder Decode replaced,
// kept as the differential fuzz's oracle: it reads each number with
// fmt.Sscanf's %d.
func decodeReference(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var e Event
		var kind string
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("trace: line %d: too few fields: %q", lineNo, line)
		}
		if _, err := fmt.Sscanf(fields[0], "%d", &e.Proc); err != nil || e.Proc < 0 {
			return nil, fmt.Errorf("trace: line %d: bad processor: %q", lineNo, line)
		}
		kind = fields[1]
		if len(kind) != 1 {
			return nil, fmt.Errorf("trace: line %d: bad kind %q", lineNo, kind)
		}
		e.Kind = Kind(kind[0])
		used := 3
		switch e.Kind {
		case Read, ReadEx, Lock, Atomic:
			if _, err := fmt.Sscanf(fields[2], "%d", &e.Addr); err != nil {
				return nil, fmt.Errorf("trace: line %d: bad address: %q", lineNo, line)
			}
		case Write, Unlock:
			if len(fields) < 4 {
				return nil, fmt.Errorf("trace: line %d: write needs a value: %q", lineNo, line)
			}
			if _, err := fmt.Sscanf(fields[2], "%d", &e.Addr); err != nil {
				return nil, fmt.Errorf("trace: line %d: bad address: %q", lineNo, line)
			}
			if _, err := fmt.Sscanf(fields[3], "%d", &e.Value); err != nil {
				return nil, fmt.Errorf("trace: line %d: bad value: %q", lineNo, line)
			}
			used = 4
		case Compute:
			if _, err := fmt.Sscanf(fields[2], "%d", &e.Cycles); err != nil {
				return nil, fmt.Errorf("trace: line %d: bad cycle count: %q", lineNo, line)
			}
		default:
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", lineNo, kind)
		}
		if len(fields) > used {
			if len(fields) > used+1 {
				return nil, fmt.Errorf("trace: line %d: too many fields: %q", lineNo, line)
			}
			c, err := interconnect.ParseClass(fields[used])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
			}
			e.Class = c
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
