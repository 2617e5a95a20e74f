package main

import (
	"flag"
	"math"
	"strings"
	"testing"
	"time"
)

// TestPhaseTicksRefusesUnusableFlags: a rate whose tick interval is
// not a positive duration, in the main phase or in the 16× overload
// phase when that runs, and a -conc below 1 are refused with an error
// naming the flag. time.NewTicker and make(chan) panicked on them.
func TestPhaseTicksRefusesUnusableFlags(t *testing.T) {
	cases := []struct {
		rate     float64
		conc     int
		overload bool
		refused  string // "" when the flags are usable
	}{
		{rate: 25, conc: 256, overload: true},
		{rate: 1e9, conc: 1, overload: false},
		{rate: 1e8, conc: 1, overload: false},
		{rate: 1e8, conc: 1, overload: true, refused: "overload"},
		{rate: 0, conc: 256, overload: true, refused: "-rate"},
		{rate: 0, conc: 256, overload: false, refused: "-rate"},
		{rate: -5, conc: 256, refused: "-rate"},
		{rate: 2e9, conc: 256, refused: "-rate"},
		{rate: 1e-12, conc: 256, refused: "-rate"},
		{rate: math.NaN(), conc: 256, refused: "-rate"},
		{rate: math.Inf(1), conc: 256, refused: "-rate"},
		{rate: 25, conc: 0, refused: "-conc"},
		{rate: 25, conc: -1, refused: "-conc"},
	}
	for _, c := range cases {
		every, overEvery, err := phaseTicks(c.rate, c.conc, c.overload)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("rate %g conc %d overload %v: refused: %v", c.rate, c.conc, c.overload, err)
		case c.refused == "" && (every <= 0 || c.overload && overEvery <= 0):
			t.Errorf("rate %g conc %d overload %v: ticks %v and %v", c.rate, c.conc, c.overload, every, overEvery)
		case c.refused != "" && (err == nil || !strings.Contains(err.Error(), c.refused)):
			t.Errorf("rate %g conc %d overload %v: error %v, want one naming %q", c.rate, c.conc, c.overload, err, c.refused)
		}
	}
	if every, _, _ := phaseTicks(25, 1, false); every != 40*time.Millisecond {
		t.Errorf("25 req/s ticks every %v, want 40ms", every)
	}
}

// TestRunRefusesBeforeAnyPhase: run returns the refusal instead of
// starting the self-hosted daemon and panicking in a phase.
func TestRunRefusesBeforeAnyPhase(t *testing.T) {
	set := func(name, value string) {
		if err := flag.Set(name, value); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range [][2]string{{"rate", "0"}, {"conc", "-1"}} {
		set("selfhost", "true")
		set(bad[0], bad[1])
		err := run()
		set("selfhost", "false")
		set(bad[0], flag.Lookup(bad[0]).DefValue)
		if err == nil || !strings.Contains(err.Error(), "-"+bad[0]) {
			t.Errorf("-%s %s: run returned %v, want a refusal naming the flag", bad[0], bad[1], err)
		}
	}
}
