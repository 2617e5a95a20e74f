package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

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
