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
