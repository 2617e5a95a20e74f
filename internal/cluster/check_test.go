package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"cachesync/internal/serve"
)

// postCheck posts one /v1/check body and returns the status and body.
func postCheck(t *testing.T, url string, req map[string]any) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// checkResult extracts the mcheck.Result from a /v1/check response
// and re-marshals it with the timing fields zeroed, so two runs of
// the same exploration compare byte for byte.
func checkResult(t *testing.T, body []byte) (bool, []byte) {
	t.Helper()
	var cr serve.CheckResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("bad check response %s: %v", body, err)
	}
	// Result is normalized as a generic map: mcheck.Action marshals to
	// its human trace string and does not parse back into the struct.
	var res map[string]any
	if err := json.Unmarshal(cr.Result, &res); err != nil {
		t.Fatalf("bad result %s: %v", cr.Result, err)
	}
	delete(res, "elapsed_ns")
	delete(res, "states_per_sec")
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return cr.Pass, out
}

// TestShardedCheckMatchesSingle is the HTTP half of the distributed-
// exploration equivalence story: a /v1/check sharded across three
// replicas must return byte-identical results (timing aside) to the
// same request answered by one replica — verdict, state and
// transition counts, and the counterexample trace on seeded mutants,
// unreduced and under POR.
func TestShardedCheckMatchesSingle(t *testing.T) {
	b0, b1, b2 := newBackend(t), newBackend(t), newBackend(t)
	_, ts := newAttachCluster(t, b0.addr, b1.addr, b2.addr)
	single := newBackend(t)

	cases := []struct {
		name   string
		req    map[string]any
		shards int
		pass   bool
	}{
		{"bitar-clean", map[string]any{
			"protocol": "bitar", "procs": 3, "blocks": 2, "depth": 4, "symmetry": true,
		}, 3, true},
		{"locke-clean", map[string]any{
			"protocol": "locke", "procs": 2, "blocks": 2, "depth": 5, "symmetry": true,
		}, 3, true},
		{"locke-stale-lock-grant", map[string]any{
			"protocol": "locke", "inject": "stale-lock-grant", "procs": 2, "blocks": 2, "depth": 6,
		}, 3, false},
		{"illinois-skip-writeback", map[string]any{
			"protocol": "illinois", "inject": "skip-writeback", "procs": 3, "blocks": 2, "depth": 6, "symmetry": true,
		}, 4, false}, // more shards than replicas: assignment wraps
		{"bitar-por-clean", map[string]any{
			"protocol": "bitar", "procs": 3, "blocks": 2, "depth": 5, "symmetry": true, "por": true,
		}, 3, true},
		{"bitar-por-drop-invalidate", map[string]any{
			"protocol": "bitar", "inject": "drop-invalidate", "procs": 3, "blocks": 2, "depth": 5, "symmetry": true, "por": true,
		}, 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postCheck(t, single.ts.URL, tc.req)
			if code != http.StatusOK {
				t.Fatalf("single replica: status %d: %s", code, body)
			}
			wantPass, want := checkResult(t, body)

			req := map[string]any{"shards": tc.shards}
			for k, v := range tc.req {
				req[k] = v
			}
			code, body = postCheck(t, ts.URL, req)
			if code != http.StatusOK {
				t.Fatalf("sharded: status %d: %s", code, body)
			}
			gotPass, got := checkResult(t, body)

			if wantPass != tc.pass || gotPass != tc.pass {
				t.Fatalf("pass: single=%v sharded=%v want %v", wantPass, gotPass, tc.pass)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("sharded result differs from single replica\nsingle:  %s\nsharded: %s", want, got)
			}
		})
	}

	// The sessions a check opens must not leak: every replica's table
	// should be empty once the responses are in.
	for i, b := range []*backend{b0, b1, b2} {
		code, body := postJSONStatus(t, b.ts.URL+"/v1/shard/expand", map[string]any{"session": "nope"})
		if code != http.StatusNotFound {
			t.Fatalf("replica %d: probe expand: status %d: %s", i, code, body)
		}
	}
}

// postJSONStatus posts an arbitrary JSON body and returns status+body.
func postJSONStatus(t *testing.T, url string, req map[string]any) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// TestShardedCheckValidation covers the coordinator-side rejections
// and the shards=1 passthrough.
func TestShardedCheckValidation(t *testing.T) {
	b := newBackend(t)
	_, ts := newAttachCluster(t, b.addr)

	// Out-of-range shard counts are the coordinator's error, not a
	// replica's.
	for _, shards := range []int{-1, maxCheckShards + 1} {
		code, body := postCheck(t, ts.URL, map[string]any{"protocol": "bitar", "shards": shards})
		if code != http.StatusBadRequest {
			t.Fatalf("shards=%d: status %d: %s", shards, code, body)
		}
	}

	// shards=1 is the plain proxy path; the coordinator-only field is
	// stripped before the replica's strict decoder sees the body.
	code, body := postCheck(t, ts.URL, map[string]any{
		"protocol": "bitar", "procs": 2, "depth": 3, "shards": 1,
	})
	if code != http.StatusOK {
		t.Fatalf("shards=1: status %d: %s", code, body)
	}
	if pass, _ := checkResult(t, body); !pass {
		t.Fatalf("shards=1: expected pass: %s", body)
	}
}

// killableBackend is a replica that can drop dead mid-check: once the
// killAt-th /v1/shard/absorb arrives (or dead is set), every request —
// shard phases and health probes alike — aborts its connection, the
// closest an httptest server gets to a killed process.
type killableBackend struct {
	ts      *httptest.Server
	addr    string
	dead    atomic.Bool
	absorbs atomic.Int64
	killAt  int64 // 0 = immortal
}

func newKillableBackend(t *testing.T, ckptRoot string, killAt int64) *killableBackend {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 2, ShardCheckpointRoot: ckptRoot})
	b := &killableBackend{killAt: killAt}
	inner := srv.Handler()
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if b.dead.Load() {
			panic(http.ErrAbortHandler)
		}
		if b.killAt > 0 && r.URL.Path == "/v1/shard/absorb" && b.absorbs.Add(1) == b.killAt {
			b.dead.Store(true)
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(b.ts.Close)
	t.Cleanup(srv.Close)
	b.addr = strings.TrimPrefix(b.ts.URL, "http://")
	return b
}

// TestShardedCheckSurvivesReplicaDeath kills one replica of a
// three-replica fleet mid-check. With every replica pointed at the
// same shard checkpoint root, the coordinator re-dispatches the dead
// replica's session to a healthy one — resumed from its snapshot at
// the exact absorb sequence — and the merged Result must still be
// byte-identical to a single replica's.
func TestShardedCheckSurvivesReplicaDeath(t *testing.T) {
	cases := []struct {
		name   string
		req    map[string]any
		killAt int64
		pass   bool
	}{
		// killAt 2 dies with one level absorbed: the re-opened session
		// must restore real state, not reseed.
		{"clean", map[string]any{
			"protocol": "bitar", "procs": 3, "blocks": 2, "depth": 4, "symmetry": true,
		}, 2, true},
		// A mutant's counterexample trace must survive re-dispatch: the
		// rebuild hops through the resurrected session. It violates
		// early, so the kill lands on the first absorb.
		{"mutant", map[string]any{
			"protocol": "locke", "inject": "stale-lock-grant", "procs": 2, "blocks": 2, "depth": 6,
		}, 1, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			single := newBackend(t)
			code, body := postCheck(t, single.ts.URL, tc.req)
			if code != http.StatusOK {
				t.Fatalf("single replica: status %d: %s", code, body)
			}
			wantPass, want := checkResult(t, body)
			if wantPass != tc.pass {
				t.Fatalf("single replica pass=%v, want %v", wantPass, tc.pass)
			}

			root := t.TempDir()
			b0 := newKillableBackend(t, root, tc.killAt)
			b1 := newKillableBackend(t, root, 0)
			b2 := newKillableBackend(t, root, 0)
			c, ts := newAttachCluster(t, b0.addr, b1.addr, b2.addr)

			req := map[string]any{"shards": 3}
			for k, v := range tc.req {
				req[k] = v
			}
			code, body = postCheck(t, ts.URL, req)
			if code != http.StatusOK {
				t.Fatalf("sharded with replica death: status %d: %s", code, body)
			}
			gotPass, got := checkResult(t, body)
			if gotPass != tc.pass {
				t.Fatalf("sharded pass=%v, want %v", gotPass, tc.pass)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("result differs after replica death\nsingle:   %s\nsurvived: %s", want, got)
			}
			if !b0.dead.Load() {
				t.Fatal("the doomed replica was never hit — the check did not exercise failover")
			}
			if c.met.checkFailovers.Load() == 0 {
				t.Error("no session failover recorded")
			}
		})
	}
}
