package simrun

import "testing"

// TestValidateBoundsFields: every field a request can set is bounded
// before any work happens, and the values the CLI, the reports and the
// tests use pass.
func TestValidateBoundsFields(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"defaults", func(c *Config) {}, true},
		{"ways=-1", func(c *Config) { c.Ways = -1 }, false},
		{"ways=4097", func(c *Config) { c.Ways = 4097 }, false},
		{"ways=1<<30", func(c *Config) { c.Ways = 1 << 30 }, false},
		{"ways=1", func(c *Config) { c.Ways = 1 }, true},
		{"ways=4096", func(c *Config) { c.Ways = 4096 }, true},
		{"block=-4", func(c *Config) { c.BlockWords = -4 }, false},
		{"block=3", func(c *Config) { c.BlockWords = 3 }, false},
		{"block=128", func(c *Config) { c.BlockWords = 128 }, false},
		{"block=1<<24", func(c *Config) { c.BlockWords = 1 << 24 }, false},
		{"block=1", func(c *Config) { c.BlockWords = 1 }, true},
		{"block=16", func(c *Config) { c.BlockWords = 16 }, true},
		{"block=64", func(c *Config) { c.BlockWords = 64 }, true},
		{"unit=-4", func(c *Config) { c.UnitWords = -4 }, false},
		{"unit=3", func(c *Config) { c.UnitWords = 3 }, false},
		{"unit=128", func(c *Config) { c.UnitWords = 128 }, false},
		{"unit=2", func(c *Config) { c.UnitWords = 2 }, true},
		{"unit=8>block", func(c *Config) { c.UnitWords = 8 }, true}, // clamped to the block
		{"hold=-5", func(c *Config) { c.Hold = -5 }, false},
		{"hold=-1<<40", func(c *Config) { c.Hold = -1 << 40 }, false},
		{"hold=1000001", func(c *Config) { c.Hold = 1_000_001 }, false},
		{"hold=1000000", func(c *Config) { c.Hold = 1_000_000 }, true},
		{"log=-1", func(c *Config) { c.LogN = -1 }, false},
		{"log=10001", func(c *Config) { c.LogN = 10_001 }, false},
		{"log=10000", func(c *Config) { c.LogN = 10_000 }, true},
		{"scheme=nope", func(c *Config) { c.Scheme = "nope" }, false},
		{"scheme=tas", func(c *Config) { c.Scheme = "tas" }, true},
		{"scheme=tasmemory", func(c *Config) { c.Scheme = "tasmemory" }, true},
	} {
		cfg := Config{}.Normalize()
		tc.edit(&cfg)
		err := cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err == nil {
			if _, _, err := BuildMachine(cfg); err != nil {
				t.Errorf("%s: accepted config does not build: %v", tc.name, err)
			}
		}
	}
}
