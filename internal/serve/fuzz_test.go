package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"cachesync/internal/mcheck"
	"cachesync/internal/simrun"
)

// FuzzSimulateRequest feeds arbitrary bytes through the /v1/simulate
// decoder — strict JSON decoding, Normalize and Validate. A body it
// accepts must build its machine without panicking or failing, so a
// malformed request is a 400 before it takes an admission slot, never
// a 500 from inside the run.
func FuzzSimulateRequest(f *testing.F) {
	f.Add([]byte(`{"protocol":"bitar"}`))
	f.Add([]byte(`{"protocol":"illinois","procs":8,"ways":4,"block":8,"unit":2,"unitmode":true,"buses":2}`))
	f.Add([]byte(`{"protocol":"locke","inject":"ignore-lock","workload":"lock","hold":5,"scheme":"ttas","log":10}`))
	f.Add([]byte(`{"tiers":2,"remote":64,"workload":"lockdata"}`))
	f.Add([]byte(`{"ways":-1}`))
	f.Add([]byte(`{"block":16777216}`))
	f.Add([]byte(`{"protocol":"bitar","extra":1}`))
	f.Add([]byte(`{"protocol":`))

	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
		cfg, err := simulateConfig(r)
		if err != nil {
			return
		}
		if _, _, err := simrun.BuildMachine(cfg); err != nil {
			t.Fatalf("accepted %s (%+v) but the machine does not build: %v", body, cfg, err)
		}
	})
}

// FuzzSweepRequest feeds arbitrary bytes through the /v1/sweep decoder
// and Expand, which cachesyncc's router calls too. A body they accept
// must name at most 256 points, each of which validates and builds its
// machine without panicking, so a malformed sweep is a 400 before it
// takes an admission slot.
func FuzzSweepRequest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"protocols":["bitar","illinois"],"procs":[1,2],"ops":200}`))
	f.Add([]byte(`{"cells":[{"protocol":"bitar","procs":2},{"protocol":"dragon","procs":4}],"workload":"lock","iters":3}`))
	f.Add([]byte(`{"protocols":["locke"],"procs":[2],"tiers":2,"remotes":[0,64],"workload":"lockdata"}`))
	f.Add([]byte(`{"cells":[{"protocol":"bitar","procs":2}],"procs":[4]}`))
	f.Add([]byte(`{"procs":[0]}`))
	f.Add([]byte(`{"remotes":[64]}`))
	f.Add(bigSweepBody())

	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body))
		var sr SweepRequest
		if err := decodeBody(r, &sr); err != nil {
			return
		}
		cfgs, err := sr.Expand()
		if err != nil {
			return
		}
		if len(cfgs) > maxSweepPoints {
			t.Fatalf("accepted %s as %d points, over the %d cap", body, len(cfgs), maxSweepPoints)
		}
		for _, cfg := range cfgs {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("accepted %s but cell %+v does not validate: %v", body, cfg, err)
			}
			if _, _, err := simrun.BuildMachine(cfg); err != nil {
				t.Fatalf("accepted %s but cell %+v does not build: %v", body, cfg, err)
			}
		}
	})
}

// FuzzCheckRequest feeds arbitrary bytes through the /v1/check decoder
// and the /v1/shard/open decoder. A check body the decoder accepts
// must resolve its mcheck.Options; a shard/open body it accepts must
// build its session for a two-worker replica or be refused by
// NewShardSession, a 400 either way. Neither may panic, and resolving
// the options or building the session must allocate under 1 MiB, so
// no body can size a replica's memory (at 2^20 shards a session once
// allocated about 76 MB).
func FuzzCheckRequest(f *testing.F) {
	f.Add([]byte(`{"protocol":"bitar"}`))
	f.Add([]byte(`{"protocol":"dragon","procs":5,"blocks":2,"words":4,"depth":12,"symmetry":true,"maxstates":4194304}`))
	f.Add([]byte(`{"protocol":"locke","inject":"stale-lock-grant","por":true,"blocks":2}`))
	f.Add([]byte(`{"protocol":"bitar","depth":99}`))
	f.Add([]byte(`{"session":"s","protocol":"bitar","procs":3,"self":2,"total":3,"resume":true}`))
	f.Add([]byte(`{"session":"s","protocol":"bitar","self":256,"total":256}`))
	f.Add([]byte(`{"session":"s","protocol":"illinois","por":true,"total":2}`))
	f.Add([]byte(hugeShardOpenBody))

	f.Fuzz(func(t *testing.T, body []byte) {
		post := func(path string) *http.Request {
			return httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		}
		if cr, err := checkRequest(post("/v1/check")); err == nil {
			if n := leastAlloc(2, func() {
				if _, err := cr.Options(); err != nil {
					t.Fatalf("accepted %s (%+v) but its options do not resolve: %v", body, cr, err)
				}
			}); n >= 1<<20 {
				t.Fatalf("resolving the options of %s allocated %d bytes, want under 1 MiB", body, n)
			}
		}
		req, opts, err := shardOpenOptions(post("/v1/shard/open"))
		if err != nil {
			return
		}
		opts.Workers = 2
		if n := leastAlloc(2, func() {
			if sess, err := mcheck.NewShardSession(opts, req.Self, req.Total); err == nil {
				sess.Close()
			}
		}); n >= 1<<20 {
			t.Fatalf("building the session of %s allocated %d bytes, want under 1 MiB", body, n)
		}
	})
}
